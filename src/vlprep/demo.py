"""End-to-end training sanity check for the resampler kernel.

Overfits the resampler plus a fixed orthogonal readout to regress the mean
patch vector of 32 seeded inputs. Exercises the full loop: forward, analytic
backward, global-norm clipping, AdamW, and the warmup + cosine schedule. The
task is exactly representable (uniform attention with a value path inverting
the readout), so a healthy kernel drives the loss down by orders of
magnitude; the acceptance gate asks for a 100x reduction within 2000 steps.

Everything is float64 and single-threaded deterministic: two runs with the
same config produce bitwise-identical loss curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .optim import AdamWHyper, adamw_step, init_state
from .resampler import (
    ResamplerConfig,
    ResamplerParams,
    backward,
    forward_with_cache,
    init_params,
)
from .schedules import ScheduleConfig, lr_at


@dataclass(frozen=True)
class DemoConfig:
    d_model: int = 16
    grid_h: int = 3
    grid_w: int = 3
    n_queries: int = 4
    n_heads: int = 1
    n_samples: int = 32
    total_steps: int = 2000
    peak_lr: float = 1e-2
    min_lr: float = 1e-4
    warmup_steps: int = 100
    weight_decay: float = 0.0
    lr_scale: float = 1.0  # 0 freezes the parameters; the curve stays flat
    seed: int = 0


def overfit_demo(cfg: DemoConfig = DemoConfig()) -> list[float]:
    """Train and return the loss curve: one entry per step plus the final loss.

    Raises NumericalError if the loss leaves the finite range (divergence).
    """
    rcfg = ResamplerConfig(
        d_model=cfg.d_model,
        grid_h=cfg.grid_h,
        grid_w=cfg.grid_w,
        n_queries=cfg.n_queries,
        n_heads=cfg.n_heads,
        seed=cfg.seed,
    )
    rng = np.random.default_rng(cfg.seed)
    params = init_params(rcfg, rng).as_dict()
    features = rng.standard_normal((cfg.n_samples, rcfg.n_keys, cfg.d_model))
    targets = features.mean(axis=1)
    readout, _ = np.linalg.qr(rng.standard_normal((cfg.d_model, cfg.d_model)))

    schedule = ScheduleConfig(
        peak_lr=cfg.peak_lr,
        min_lr=cfg.min_lr,
        warmup_steps=cfg.warmup_steps,
        total_steps=cfg.total_steps,
    )
    hyper = AdamWHyper(weight_decay=cfg.weight_decay)
    state = init_state(params)
    n, d, n_q = cfg.n_samples, cfg.d_model, rcfg.n_queries

    def batch_loss_and_grads(p: dict) -> tuple[float, dict]:
        # One forward and one backward over all samples. Overflow here is
        # divergence, detected and raised; keep it silent.
        with np.errstate(over="ignore", invalid="ignore"):
            y, cache = forward_with_cache(features, ResamplerParams(**p), rcfg)
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
        lr = cfg.lr_scale * lr_at(schedule, step)
        params, state = adamw_step(params, grads, state, hyper, lr)
    losses.append(batch_loss_and_grads(params)[0])
    return losses
