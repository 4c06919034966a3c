"""End-to-end training sanity check for the resampler kernel.

Overfits the resampler plus a fixed orthogonal readout to regress the mean
patch vector of 32 seeded inputs. Exercises the full loop: forward, analytic
backward, global-norm clipping, AdamW, and the warmup + cosine schedule. The
task is exactly representable (uniform attention with a value path inverting
the readout), so a healthy kernel drives the loss down by orders of
magnitude; the acceptance gate asks for a 100x reduction within 2000 steps.

The demo's shape is fixed: ``d_model`` 16 over a 3x3 patch grid, 4 queries
and 1 head (``SHAPE``), on ``N_SAMPLES`` inputs, with the learning rate
going from ``PEAK_LR`` 1e-2 to ``MIN_LR`` 1e-4 and no weight decay. A run
chooses only its length, its warmup and its seed (``DemoConfig``).

Everything is float64 and single-threaded deterministic: two runs with the
same config produce bitwise-identical loss curves.

Importing this module, ``SHAPE`` and building a ``DemoConfig`` load no
numpy; ``overfit_demo`` imports it when it runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NumericalError
from .optim import adamw_step, init_state
from .resampler import (
    ResamplerConfig,
    ResamplerParams,
    backward,
    forward_with_cache,
    init_params,
)
from .schedules import ScheduleConfig, lr_at

SHAPE = ResamplerConfig(d_model=16, grid_h=3, grid_w=3, n_queries=4, n_heads=1)
N_SAMPLES = 32
PEAK_LR = 1e-2
MIN_LR = 1e-4
WEIGHT_DECAY = 0.0


@dataclass(frozen=True)
class DemoConfig:
    total_steps: int = 2000
    warmup_steps: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def overfit_demo(cfg: DemoConfig = DemoConfig()) -> list[float]:
    """Train and return the loss curve: one entry per step plus the final loss.

    Raises NumericalError if the loss leaves the finite range (divergence).
    """
    import numpy as np

    rng = np.random.default_rng(cfg.seed)
    params = init_params(SHAPE, rng).as_dict()
    features = rng.standard_normal((N_SAMPLES, SHAPE.n_keys, SHAPE.d_model))
    targets = features.mean(axis=1)
    readout, _ = np.linalg.qr(rng.standard_normal((SHAPE.d_model, SHAPE.d_model)))

    schedule = ScheduleConfig(
        peak_lr=PEAK_LR,
        min_lr=MIN_LR,
        warmup_steps=cfg.warmup_steps,
        total_steps=cfg.total_steps,
    )
    state = init_state(params)
    n, d, n_q = N_SAMPLES, SHAPE.d_model, SHAPE.n_queries

    def batch_loss_and_grads(p: dict) -> tuple[float, dict]:
        # One forward and one backward over all samples. Overflow here is
        # divergence, detected and raised; keep it silent.
        with np.errstate(over="ignore", invalid="ignore"):
            y, cache = forward_with_cache(features, ResamplerParams(**p), SHAPE)
            err = y.mean(axis=1) @ readout - targets  # (n, d)
            loss = float(np.mean(err * err))
            if not math.isfinite(loss):
                raise NumericalError("loss diverged")
            d_pred = ((2.0 / (n * d * n_q)) * err) @ readout.T
            return loss, backward(cache, np.repeat(d_pred[:, None, :], n_q, axis=1))

    losses: list[float] = []
    for step in range(cfg.total_steps):
        loss, grads = batch_loss_and_grads(params)
        losses.append(loss)
        params, state = adamw_step(params, grads, state, lr_at(schedule, step), WEIGHT_DECAY)
    losses.append(batch_loss_and_grads(params)[0])
    return losses
