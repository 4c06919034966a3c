"""AdamW with global-norm gradient clipping, on dicts of numpy arrays.

The constants are the paper's recipe, shared by all three training stages:
beta1 0.9, beta2 0.98, eps 1e-6, clip 1.0, and weight decay 0.05 as the
default of ``adamw_step``'s one setting. Clipping rescales the whole
gradient dict to global norm 1.0 before any moment update; weight decay is
decoupled (applied to the parameter directly, scaled by the learning rate,
never entering the moments). Finite gradients too large to square in
float64, even those whose norm is past float range, still clip to a
unit-norm step (``global_norm``, ``clip_by_global_norm``).

``check_finite`` is the one finiteness check on gradients:
``clip_by_global_norm``, so ``adamw_step`` too, runs it on the gradients it
is given, and ``resampler.backward`` on those it returns. Either raises
``NumericalError`` naming the first bad one.

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


def check_finite(grads: Arrays) -> None:
    """Raise ``NumericalError`` naming the first gradient that holds a NaN or infinity.

    One finiteness pass over all the gradients together, then a search only
    to name the bad one: at the demo's shape five separate checks took ~10 us
    a call, twice this.
    """
    import numpy as np

    if grads and not np.isfinite(np.concatenate([np.ravel(g) for g in grads.values()])).all():
        name = next(name for name, g in grads.items() if not np.isfinite(g).all())
        raise NumericalError(f"non-finite gradient for {name}")


def global_norm(grads: Arrays) -> float:
    """The L2 norm of all the gradients together.

    When finite gradients have squares that overflow float64, the norm is that
    of the gradients divided by their largest magnitude, scaled back, so it
    stays finite wherever the norm itself fits a float.
    """
    import numpy as np

    with np.errstate(over="ignore"):
        norm = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if math.isfinite(norm) or not all(np.isfinite(g).all() for g in grads.values()):
        return norm
    peak = _peak(grads)
    return peak * global_norm({k: g / peak for k, g in grads.items()})


def _peak(grads: Arrays) -> float:
    """The largest magnitude in gradients that hold no NaN."""
    import numpy as np

    return max(float(np.max(np.abs(g), initial=0.0)) for g in grads.values())


def clip_by_global_norm(grads: Arrays, max_norm: float) -> Arrays:
    """The gradients scaled to global norm ``max_norm``, if theirs is larger.

    A gradient holding a NaN or infinity raises ``NumericalError`` naming it.
    Finite gradients whose norm is past float range are divided by their peak
    magnitude first, so they too clip to norm ``max_norm``, not to zeros.
    """
    check_finite(grads)
    norm = global_norm(grads)
    if norm <= max_norm:
        return dict(grads)
    if math.isinf(norm):
        peak = _peak(grads)
        grads = {k: g / peak for k, g in grads.items()}
        norm = global_norm(grads)
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
