"""Reference implementation of the position-aware feature resampler.

A fixed bank of learnable query vectors cross-attends onto a grid of patch
features, compressing any ``grid_h * grid_w`` input to exactly ``n_queries``
output rows. Both sides of the attention product carry 2D absolute sinusoidal
positional encodings, added to the inputs of the query / key projections:
queries live on a virtual ``sqrt(n_queries)`` square grid, keys on the patch
grid. Values are unencoded patch features. The encodings are computed once
per grid shape and cached as read-only arrays.

``forward_with_cache`` and ``backward`` take one sample ``(n_keys, d)`` or a
batch ``(B, n_keys, d)``; all heads and samples run as one batched matmul
over ``(batch, heads, queries, keys)``, and ``backward`` sums the parameter
gradients over the batch. Both passes work on tiles of query rows of at most
``TILE_BYTES`` (1 MiB), so that every step on a tile runs while it is in
cache. The forward writes a tile's logits into the attention matrix it
caches, runs the softmax on that tile in place, and writes the tile's rows of
``attn @ v``; the cache keeps the whole attention matrix. The backward builds
``d_logits``, ``d_q``, ``d_k`` and ``d_v`` tile by tile and takes the
softmax's row term from the cached attention output (FlashAttention's
``rowsum(dO * O)``, arXiv 2205.14135), so it never builds ``attn * d_attn``.
Neither pass allocates another array of the attention matrix's size, and
``backward`` leaves the cache unchanged. When the attention fits one tile, as
at the demo and ``grad-check`` defaults, each loop runs once and the
arithmetic is that of one whole-matrix pass.

The forward also takes stacked parameters: any of the five tensors may carry
one leading stack axis of a common size ``S``, with one sample ``x``. Matmul
broadcasting runs all ``S`` parameter copies at once and the output is
``(S, n_queries, d)``. ``backward`` refuses such a cache (``ShapeError``).

Everything runs in float64 with hand-written backward passes so gradients can
be audited entry by entry against central finite differences (``grad_check``).
The audit perturbs as many entries of one tensor per stacked forward as fit
the stacked arrays of one call into ``STACK_BUDGET_BYTES``. No normalization
layers, no MLP, single attention layer; head count is configurable and
defaults to 1.

numpy is imported by the functions that compute, not by the module:
importing it or building a ``ResamplerConfig`` loads no numpy, so the data
commands, which import ``grad_check`` through ``vlprep.cli``, never pay for
it. The first kernel call loads it. ``ResamplerConfig`` is a frozen dataclass
and ``ResamplerParams`` a mutable value class (:mod:`vlprep.values`).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import InvalidWidth, NumericalError, ShapeError
from .values import Value

if TYPE_CHECKING:
    import numpy as np

INIT_STD = 0.02
PARAM_NAMES = ("queries", "w_q", "w_k", "w_v", "w_o")
# grad_check: the central-difference step, the relative-error floor in units
# of the difference's rounding error, and the bytes the stacked arrays of one
# stacked forward may hold alive at once. 4 MiB is the smallest power of two
# that keeps each tensor of the CLI-default shape (d 16, 3x3, 4 queries: 256
# entries x 2 copies x 6,560 B = 3.36 MB) one stacked forward.
GRAD_CHECK_STEP = 1e-5
GRAD_CHECK_FLOOR_UNITS = 3e4
STACK_BUDGET_BYTES = 4 * 2**20
# forward and backward: the bytes of one tile of query rows of a (batch,
# heads, queries, keys) array; a quarter of the attention matrix at d 8, 32x32
# keys, 256 queries and 2 heads, and one tile for the demo's whole batch.
TILE_BYTES = 2**20


@dataclass(frozen=True)
class ResamplerConfig:
    d_model: int
    grid_h: int
    grid_w: int
    n_queries: int = 256
    n_heads: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.grid_h < 1 or self.grid_w < 1:
            raise ValueError(f"grid must be >= 1x1, got {self.grid_h}x{self.grid_w}")
        if self.n_heads < 1:
            raise ValueError(f"n_heads must be >= 1, got {self.n_heads}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.d_model < 1 or self.n_queries < 1:
            raise ValueError(
                f"d_model and n_queries must be >= 1, got {self.d_model} / {self.n_queries}"
            )
        if self.d_model % (4 * self.n_heads) != 0:
            raise ValueError(
                f"d_model ({self.d_model}) must be divisible by 4*n_heads "
                f"({4 * self.n_heads}) for per-axis sin/cos channels"
            )
        side = math.isqrt(self.n_queries)
        if side * side != self.n_queries:
            raise ValueError(f"n_queries ({self.n_queries}) must be a perfect square")

    @property
    def query_side(self) -> int:
        return math.isqrt(self.n_queries)

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads

    @property
    def n_keys(self) -> int:
        return self.grid_h * self.grid_w


class ResamplerParams(Value, frozen=False):
    """The query bank ``(n_queries, d_model)`` and the four ``(d_model,
    d_model)`` projections, in ``PARAM_NAMES`` order."""

    __slots__ = ("queries", "w_q", "w_k", "w_v", "w_o")

    def __init__(self, queries: np.ndarray, w_q: np.ndarray, w_k: np.ndarray,
                 w_v: np.ndarray, w_o: np.ndarray) -> None:
        self.queries = queries
        self.w_q = w_q
        self.w_k = w_k
        self.w_v = w_v
        self.w_o = w_o

    def as_dict(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_NAMES}


def init_params(cfg: ResamplerConfig, rng: np.random.Generator | None = None) -> ResamplerParams:
    """Draw all parameters from normal(0, 0.02) in a fixed order."""
    import numpy as np

    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    d = cfg.d_model
    return ResamplerParams(
        queries=rng.normal(0.0, INIT_STD, (cfg.n_queries, d)),
        w_q=rng.normal(0.0, INIT_STD, (d, d)),
        w_k=rng.normal(0.0, INIT_STD, (d, d)),
        w_v=rng.normal(0.0, INIT_STD, (d, d)),
        w_o=rng.normal(0.0, INIT_STD, (d, d)),
    )


def _axis_encoding(positions: np.ndarray, half: int) -> np.ndarray:
    import numpy as np

    pairs = np.arange(half // 2)
    inv_freq = np.power(10000.0, -2.0 * pairs / half)
    angles = positions[:, None].astype(np.float64) * inv_freq[None, :]
    out = np.empty((len(positions), half), dtype=np.float64)
    out[:, 0::2] = np.sin(angles)
    out[:, 1::2] = np.cos(angles)
    return out


@functools.lru_cache(maxsize=64)
def posenc_2d(h: int, w: int, d: int) -> np.ndarray:
    """Sinusoidal 2D positions for an ``h x w`` grid, row-major, shape (h*w, d).

    The first d/2 channels encode the row index, the last d/2 the column
    index, each as interleaved sin/cos over geometric frequencies. Computed
    once per shape; the cached result is read-only.
    """
    import numpy as np

    if d % 4 != 0:
        raise InvalidWidth(f"encoding width must be divisible by 4, got {d}")
    if h < 1 or w < 1:
        raise ShapeError(f"grid must be >= 1x1, got {h}x{w}")
    rows = np.repeat(np.arange(h), w)
    cols = np.tile(np.arange(w), h)
    half = d // 2
    enc = np.concatenate([_axis_encoding(rows, half), _axis_encoding(cols, half)], axis=1)
    enc.setflags(write=False)
    return enc


def _check_features(x: np.ndarray, cfg: ResamplerConfig) -> np.ndarray:
    """Validate ``(n_keys, d)`` or ``(B, n_keys, d)`` features; return them batched."""
    import numpy as np

    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (2, 3) or x.shape[-2:] != (cfg.n_keys, cfg.d_model):
        raise ShapeError(
            f"features must have shape ([B,] {cfg.n_keys}, {cfg.d_model}), got {x.shape}"
        )
    if not np.isfinite(x).all():
        raise NumericalError("features contain NaN or Inf")
    return x.reshape(-1, cfg.n_keys, cfg.d_model)


def _split_heads(a: np.ndarray, n_heads: int) -> np.ndarray:
    """(..., rows, d) -> (..., heads, rows, d_head)."""
    return a.reshape(a.shape[:-1] + (n_heads, -1)).swapaxes(-2, -3)


def _merge_heads(a: np.ndarray) -> np.ndarray:
    """(..., heads, rows, d_head) -> (..., rows, heads * d_head)."""
    a = a.swapaxes(-2, -3)
    return a.reshape(a.shape[:-2] + (-1,))


def _stack_size(params: ResamplerParams, cfg: ResamplerConfig) -> int | None:
    """The common leading stack axis of the parameters, or None if none has one."""
    d = cfg.d_model
    size = None
    for name in PARAM_NAMES:
        shape = getattr(params, name).shape
        base = (cfg.n_queries, d) if name == "queries" else (d, d)
        if shape == base:
            continue
        if len(shape) != 3 or shape[1:] != base or size not in (None, shape[0]):
            raise ShapeError(
                f"{name} must have shape ([S,] {base[0]}, {base[1]}) with one S "
                f"for all stacked parameters, got {shape}"
            )
        size = shape[0]
    return size


def _query_tiles(attn: np.ndarray) -> Iterator[slice]:
    """Slices of query rows, in order, that cut a ``(..., queries, keys)`` array
    into tiles of at most ``TILE_BYTES`` (at least one row each)."""
    n_rows = attn.shape[-2]
    rows = max(1, TILE_BYTES // (attn.nbytes // n_rows))
    return map(slice, range(0, n_rows, rows), range(rows, n_rows + rows, rows))


def forward_with_cache(
    x: np.ndarray,
    params: ResamplerParams,
    cfg: ResamplerConfig,
    key_posenc: np.ndarray | None = None,
) -> tuple[np.ndarray, dict]:
    """Run the resampler and keep every intermediate needed by ``backward``.

    ``x`` is one sample ``(n_keys, d)`` or a batch ``(B, n_keys, d)``; the
    output is ``(n_queries, d)`` or ``(B, n_queries, d)`` to match.
    ``key_posenc`` overrides the default grid encoding on the keys; callers
    use it to verify that jointly permuting keys and their encodings is a
    no-op.

    Stacked parameters: any parameter may instead carry a leading axis of a
    common size ``S`` (``(S, n_queries, d)`` or ``(S, d, d)``), which runs
    ``S`` parameter copies on one sample ``x`` and gives ``(S, n_queries, d)``.
    Cached intermediates then have a leading axis of ``S``, or of 1 where no
    stacked tensor reaches them, and ``backward`` rejects the cache. Memory
    grows linearly in ``S``; ``grad_check`` keeps each of its stacks within
    ``STACK_BUDGET_BYTES``.
    """
    import numpy as np

    batched = np.ndim(x) == 3
    x = _check_features(x, cfg)
    stacked = _stack_size(params, cfg) is not None
    if stacked and batched:
        raise ShapeError("stacked parameters take one sample (n_keys, d), not a batch")
    d, n_heads = cfg.d_model, cfg.n_heads
    q_pos = posenc_2d(cfg.query_side, cfg.query_side, d)
    if key_posenc is None:
        k_pos = posenc_2d(cfg.grid_h, cfg.grid_w, d)
    else:
        k_pos = np.asarray(key_posenc, dtype=np.float64)
        if k_pos.shape != (cfg.n_keys, d):
            raise ShapeError(
                f"key_posenc must have shape ({cfg.n_keys}, {d}), got {k_pos.shape}"
            )

    q_in = params.queries + q_pos
    k_in = x + k_pos
    q = _split_heads(q_in @ params.w_q, n_heads)  # ([stack,] heads, queries, d_head)
    k = _split_heads(k_in @ params.w_k, n_heads)  # (batch | stack, heads, keys, d_head)
    v = _split_heads(x @ params.w_v, n_heads)
    scale = 1.0 / math.sqrt(cfg.d_head)
    k_t = k.swapaxes(-1, -2)
    lead = max(len(k), len(q) if q.ndim == 4 else 1)  # batch | stack
    attn = np.empty((lead, n_heads, cfg.n_queries, cfg.n_keys))
    concat = np.empty((max(lead, len(v)), cfg.n_queries, d))
    heads_out = _split_heads(concat, n_heads)  # a view: attn @ v lands in concat
    for tile in _query_tiles(attn):
        # q is scaled per tile, so no scaled copy of q outlives its matmul: one
        # kept through the loop slowed grad-check's 512-copy stacked forwards.
        logits = np.matmul(q[..., tile, :] * scale, k_t, out=attn[..., tile, :])
        logits -= logits.max(axis=-1, keepdims=True)
        np.exp(logits, out=logits)
        logits /= logits.sum(axis=-1, keepdims=True)
        np.matmul(logits, v, out=heads_out[..., tile, :])
    y = concat @ params.w_o

    cache = {
        "x": x,
        "q_in": q_in,
        "k_in": k_in,
        "q": q,
        "k": k,
        "v": v,
        "attn": attn if batched or stacked else attn[0],
        "concat": concat,
        "scale": scale,
        "params": params,
        "cfg": cfg,
        "stacked": stacked,
    }
    return (y if batched or stacked else y[0]), cache


def resample(
    x: np.ndarray,
    params: ResamplerParams,
    cfg: ResamplerConfig,
    key_posenc: np.ndarray | None = None,
) -> np.ndarray:
    """Compress patch features to exactly ``n_queries`` output rows."""
    y, _ = forward_with_cache(x, params, cfg, key_posenc)
    return y


def attention_weights(
    x: np.ndarray,
    params: ResamplerParams,
    cfg: ResamplerConfig,
    key_posenc: np.ndarray | None = None,
) -> np.ndarray:
    """Per-head softmax matrices, shape ([B,] n_heads, n_queries, n_keys)."""
    _, cache = forward_with_cache(x, params, cfg, key_posenc)
    return cache["attn"]


def backward(cache: dict, d_y: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss w.r.t. all parameters, given dLoss/dOutput.

    ``d_y`` has the shape of the forward output; for a batch the parameter
    gradients are summed over its samples. A cache of stacked parameters
    raises ``ShapeError``: its leading axis is not a batch to sum over.

    The softmax backward takes its row term from the attention output,
    ``sum_k attn * d_attn = d_out . (attn @ v)``, which the cache holds as
    ``concat``. It builds ``d_logits`` one tile of query rows at a time, in
    place, each tile at most ``TILE_BYTES``, and adds each tile's share of
    ``d_v``, ``d_k`` and ``d_q`` while the tile's attention rows are in cache.
    The call never writes to the cache. A temporary as large as the attention
    matrix beside it is handed back to the OS by glibc's heap trimming after a
    call and faulted in again by the next, depending on the heap layout; tiles
    of a quarter of that size or less stay allocated.
    """
    import numpy as np

    if cache["stacked"]:
        raise ShapeError("backward takes the cache of unstacked parameters")
    params: ResamplerParams = cache["params"]
    cfg: ResamplerConfig = cache["cfg"]
    d, n_heads, scale = cfg.d_model, cfg.n_heads, cache["scale"]
    q, k, v, concat = cache["q"], cache["k"], cache["v"], cache["concat"]
    attn = cache["attn"].reshape(len(concat), n_heads, cfg.n_queries, cfg.n_keys)
    if np.shape(d_y)[-2:] != concat.shape[1:] or np.size(d_y) != concat.size:
        raise ShapeError(f"d_y must have the forward output's shape, got {np.shape(d_y)}")
    d_y = np.reshape(d_y, concat.shape)

    d_w_o = concat.reshape(-1, d).T @ d_y.reshape(-1, d)
    d_out = _split_heads(d_y @ params.w_o.T, n_heads)  # (batch, heads, queries, d_head)
    # Softmax backward, row-wise: d_logits = attn * (d_attn - sum_k attn * d_attn),
    # with the row term taken as d_out . (attn @ v), each head's slice of concat.
    delta = (d_out * _split_heads(concat, n_heads)).sum(axis=-1, keepdims=True)
    v_t = v.swapaxes(-1, -2)
    d_q = np.empty(d_out.shape)  # (batch, heads, queries, d_head)
    d_k = np.zeros(k.shape)  # (batch, heads, keys, d_head)
    d_v = np.zeros(v.shape)
    for tile in _query_tiles(attn):
        attn_tile, d_out_tile = attn[..., tile, :], d_out[..., tile, :]
        d_v += attn_tile.swapaxes(-1, -2) @ d_out_tile
        d_logits = d_out_tile @ v_t  # d_attn
        d_logits -= delta[..., tile, :]
        d_logits *= attn_tile
        np.matmul(d_logits, k, out=d_q[..., tile, :])
        d_k += d_logits.swapaxes(-1, -2) @ q[..., tile, :]
    d_q = scale * _merge_heads(d_q.sum(axis=0))
    d_k = scale * _merge_heads(d_k)
    d_v = _merge_heads(d_v)

    grads = {
        "queries": d_q @ params.w_q.T,
        "w_q": cache["q_in"].T @ d_q,
        "w_k": cache["k_in"].reshape(-1, d).T @ d_k.reshape(-1, d),
        "w_v": cache["x"].reshape(-1, d).T @ d_v.reshape(-1, d),
        "w_o": d_w_o,
    }
    # One finiteness pass over all five gradients, then a search only to name
    # the first bad one: at the demo's shape five separate checks took ~10 us
    # a call, twice this.
    if not np.isfinite(np.concatenate([g.ravel() for g in grads.values()])).all():
        name = next(name for name, g in grads.items() if not np.isfinite(g).all())
        raise NumericalError(f"non-finite gradient for {name}")
    return grads


def loss_and_grads(
    x: np.ndarray,
    params: ResamplerParams,
    cfg: ResamplerConfig,
) -> tuple[float, dict[str, np.ndarray]]:
    """Sum-of-squared-outputs loss and its analytic parameter gradients."""
    import numpy as np

    y, cache = forward_with_cache(x, params, cfg)
    loss = float(np.sum(y * y))
    grads = backward(cache, 2.0 * y)
    return loss, grads


def _entries_per_call(cfg: ResamplerConfig) -> int:
    """Entries ``grad_check`` perturbs per forward: ``2n`` copies within the budget.

    One copy's bound counts every stacked array a forward over it can hold
    alive at once: the attention matrix, plus the parameter copy, the
    projections, the head mix, the output and its square.
    """
    d = cfg.d_model
    per_copy = 8 * (cfg.n_heads * cfg.n_queries * cfg.n_keys
                    + (d + cfg.n_keys + 6 * cfg.n_queries) * d)
    return max(1, STACK_BUDGET_BYTES // (2 * per_copy))


def _perturbed_losses(x: np.ndarray, params: ResamplerParams, cfg: ResamplerConfig,
                      name: str, idx: np.ndarray, step: float) -> np.ndarray:
    """Losses of ``2n`` copies of ``params``: flat entry ``idx[i]`` of ``name``
    moved by ``+step`` in copy ``i`` and by ``-step`` in copy ``n + i``.

    A function of its own so that one call's copies and intermediates are
    freed before the next call allocates its own: the budget holds per call.
    """
    import numpy as np

    base = getattr(params, name)
    n = len(idx)
    copies = np.repeat(base.reshape(1, -1), 2 * n, axis=0)
    copies[np.arange(n), idx] += step
    copies[np.arange(n, 2 * n), idx] -= step
    stacked = ResamplerParams(**{**params.as_dict(), name: copies.reshape(2 * n, *base.shape)})
    y, _ = forward_with_cache(x, stacked, cfg)
    return np.sum(y * y, axis=(-2, -1))


def grad_check(cfg: ResamplerConfig) -> float:
    """Max relative error of analytic vs central-finite-difference gradients.

    The loss is the sum of squared outputs on one seeded input, and every
    entry of every parameter is audited. Relative error per entry is
    |analytic - numeric| / max(|analytic|, |numeric|, floor); the maximum over
    all entries is returned.

    The floor is ``max(1e-8, GRAD_CHECK_FLOOR_UNITS * eps * |L| / step)``,
    with ``L`` the unperturbed loss and ``eps`` the float64 machine epsilon.
    ``eps * |L| / step`` is the scale of the numeric derivative's rounding
    error: each perturbed loss is rounded to a few ``eps * |L|``, and their
    difference is divided by ``2 * step``. An entry below the floor is judged
    by its absolute error, so one unit of rounding reads ``1 / 3e4 ~ 3.3e-5``,
    well inside a 1e-4 tolerance; a larger factor would let a wrong small
    gradient pass. Over 72 configurations (d 8-128, grids 1x1-8x8, 1/4/16
    queries, 1-2 heads) the worst result on a correct backward is 5.6e-5 with
    this floor, 1.7e-4 with a factor of 1e4 and 1.4e-3 with 1e-8 alone. The
    1e-8 term dominates while ``|L| < 1e-8 * step / (3e4 * eps) ~ 0.015``;
    the CLI defaults (``|L| <= 4.1e-4`` over seeds 0-4) stay there.

    Each forward perturbs ``n`` entries of one tensor (as many as keep the
    ``2n`` stacked copies within ``STACK_BUDGET_BYTES``, at least one): the
    first ``n`` copies take ``+GRAD_CHECK_STEP`` and the last ``n`` take
    ``-GRAD_CHECK_STEP``. A non-finite numeric derivative or relative error
    raises ``NumericalError``.
    """
    import numpy as np

    step = GRAD_CHECK_STEP
    rng = np.random.default_rng(cfg.seed)
    params = init_params(cfg, rng)
    x = rng.standard_normal((cfg.n_keys, cfg.d_model))

    loss, analytic = loss_and_grads(x, params, cfg)
    floor = max(1e-8, GRAD_CHECK_FLOOR_UNITS * np.finfo(np.float64).eps * abs(loss) / step)

    per_call = _entries_per_call(cfg)
    worst = 0.0
    for name in PARAM_NAMES:
        grad = analytic[name].ravel()
        for start in range(0, grad.size, per_call):
            idx = np.arange(start, min(start + per_call, grad.size))
            n = len(idx)
            losses = _perturbed_losses(x, params, cfg, name, idx, step)
            numeric = (losses[:n] - losses[n:]) / (2.0 * step)
            a = grad[idx]
            err = np.abs(a - numeric) / np.maximum(
                np.maximum(np.abs(a), np.abs(numeric)), floor
            )
            if not (np.isfinite(numeric).all() and np.isfinite(err).all()):
                raise NumericalError(f"non-finite relative error in gradient check of {name}")
            worst = max(worst, float(err.max()))
    return worst
