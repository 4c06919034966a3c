"""AdamW with global-norm gradient clipping, on dicts of numpy arrays.

The constants are the paper's recipe, shared by all three training stages:
beta1 0.9, beta2 0.98, eps 1e-6, clip 1.0, and weight decay 0.05 as the
default of ``adamw_step``'s one setting. Clipping rescales the whole
gradient dict to global norm 1.0 before any moment update; weight decay is
decoupled (applied to the parameter directly, scaled by the learning rate,
never entering the moments).

numpy is imported by the functions that compute, so importing this module
loads no numpy. ``AdamWState`` is a mutable value class (:mod:`vlprep.values`).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .errors import NumericalError
from .values import Value

if TYPE_CHECKING:
    import numpy as np

Arrays = dict[str, "np.ndarray"]

BETA1 = 0.9
BETA2 = 0.98
EPS = 1e-6
CLIP_NORM = 1.0
WEIGHT_DECAY = 5e-2


class AdamWState(Value, frozen=False):
    """The step count and the first and second moments, keyed like the params."""

    __slots__ = ("step", "m", "v")

    def __init__(self, step: int, m: Arrays, v: Arrays) -> None:
        self.step = step
        self.m = m
        self.v = v


def init_state(params: Arrays) -> AdamWState:
    import numpy as np

    return AdamWState(
        step=0,
        m={k: np.zeros_like(p) for k, p in params.items()},
        v={k: np.zeros_like(p) for k, p in params.items()},
    )


def global_norm(grads: Arrays) -> float:
    import numpy as np

    return math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))


def clip_by_global_norm(grads: Arrays, max_norm: float) -> Arrays:
    norm = global_norm(grads)
    if norm <= max_norm:
        return dict(grads)
    scale = max_norm / norm
    return {k: g * scale for k, g in grads.items()}


def adamw_step(
    params: Arrays,
    grads: Arrays,
    state: AdamWState,
    lr: float,
    weight_decay: float = WEIGHT_DECAY,
) -> tuple[Arrays, AdamWState]:
    """One update. Returns new params and state; inputs are not mutated."""
    import numpy as np

    if set(params) != set(grads):
        raise ValueError("params and grads must have identical keys")
    for k, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NumericalError(f"non-finite gradient for {k}")

    grads = clip_by_global_norm(grads, CLIP_NORM)

    t = state.step + 1
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    new_params: Arrays = {}
    new_m: Arrays = {}
    new_v: Arrays = {}
    for k, p in params.items():
        g = grads[k]
        m = BETA1 * state.m[k] + (1.0 - BETA1) * g
        v = BETA2 * state.v[k] + (1.0 - BETA2) * (g * g)
        m_hat = m / bc1
        v_hat = v / bc2
        update = lr * m_hat / (np.sqrt(v_hat) + EPS)
        new_params[k] = p - update - lr * weight_decay * p
        new_m[k] = m
        new_v[k] = v
    return new_params, AdamWState(step=t, m=new_m, v=new_v)
