"""One benchmark stage in its own process, driven over stdin/stdout.

The driver (``run.py``) starts one worker per stage, so that each stage's peak
RSS is its own process's high-water mark. A worker imports ``vlprep.cli``,
builds the stage configs, prints a ready line and then serves JSON commands,
one per line, answering each with one JSON line:

    {"op": "cli", "argv": [...], "trace": false}   run ``vlprep.cli.main``
    {"op": "fit", "steps": 60, "seed": 1, ...}     ``overfit_demo`` for N steps
    {"op": "fwd_bwd", "calls": 20, "seed": 1, ...} forward+backward, large shape
    {"op": "env"}                                  versions and BLAS threads
    {"op": "quit"}                                 write spans and exit

Everything the program prints is captured, so stdout carries only replies.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import time
import traceback

# Large resampler shape from acceptance criterion 5: (d_model, grid_h, grid_w,
# n_queries, n_heads).
LARGE = (8, 32, 32, 256, 2)


def _configs(config_path: str) -> None:
    """Build every config the stages use, as the CLI would from the file."""
    from vlprep.demo import DemoConfig
    from vlprep.filters import FilterConfig
    from vlprep.packing import PackerConfig
    from vlprep.resampler import ResamplerConfig

    with open(config_path, encoding="utf-8") as f:
        cfg = json.load(f)
    filt = dict(cfg.get("filter", {}))
    if "banned_patterns" in filt:
        filt["banned_patterns"] = tuple(filt["banned_patterns"])
    FilterConfig(**filt)
    PackerConfig(**cfg.get("packer", {}))
    DemoConfig()
    d, h, w, q, heads = LARGE
    ResamplerConfig(d_model=d, grid_h=h, grid_w=w, n_queries=q, n_heads=heads)


def _run_cli(argv: list[str]) -> dict:
    from vlprep import cli

    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    wall = time.perf_counter() - t0
    return {"rc": rc, "wall_s": wall, "stdout": out.getvalue()[-2000:],
            "stderr": err.getvalue()[-2000:]}


def _run_fit(steps: int, seed: int) -> dict:
    import numpy as np
    from vlprep import demo

    cfg = demo.DemoConfig(total_steps=steps, warmup_steps=max(1, steps // 10), seed=seed)
    t0 = time.perf_counter()
    curve = demo.overfit_demo(cfg)
    wall = time.perf_counter() - t0
    arr = np.asarray(curve, dtype=np.float64)
    return {"rc": 0, "wall_s": wall, "n": len(curve), "first": curve[0], "last": curve[-1],
            "finite": bool(np.all(np.isfinite(arr))),
            "digest": hashlib.sha256(arr.tobytes()).hexdigest()}


def _run_fwd_bwd(calls: int, seed: int) -> dict:
    import numpy as np
    from vlprep import resampler

    d, h, w, q, heads = LARGE
    cfg = resampler.ResamplerConfig(d_model=d, grid_h=h, grid_w=w, n_queries=q,
                                    n_heads=heads, seed=seed)
    rng = np.random.default_rng(seed)
    params = resampler.init_params(cfg, rng)
    x = rng.standard_normal((cfg.n_keys, d))
    t0 = time.perf_counter()
    for _ in range(calls):
        loss, grads = resampler.loss_and_grads(x, params, cfg)
    wall = time.perf_counter() - t0
    # Checks outside the timed loop: the loss is the forward pass's sum of
    # squares, and the gradient agrees with a central difference along a
    # random direction.
    y = resampler.resample(x, params, cfg)
    direction = {k: rng.standard_normal(a.shape) for k, a in params.as_dict().items()}
    eps = 1e-6

    def shifted_loss(sign: float) -> float:
        moved = resampler.ResamplerParams(
            **{k: a + sign * eps * direction[k] for k, a in params.as_dict().items()})
        out = resampler.resample(x, moved, cfg)
        return float(np.sum(out * out))

    numeric = (shifted_loss(1.0) - shifted_loss(-1.0)) / (2 * eps)
    analytic = sum(float(np.sum(grads[k] * direction[k])) for k in direction)
    rel = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-12)
    digest = hashlib.sha256(b"".join(grads[k].tobytes() for k in sorted(grads)))
    return {"rc": 0, "wall_s": wall, "shape": list(y.shape),
            "loss_matches": bool(np.isclose(loss, float(np.sum(y * y)), rtol=1e-12)),
            "grad_rel_err": rel, "digest": digest.hexdigest()}


def _env() -> dict:
    import numpy as np

    blas = {}
    with contextlib.suppress(Exception):
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    return {"python": sys.version.split()[0], "numpy": np.__version__, "blas": blas,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", required=True)
    ap.add_argument("--spans", help="write the last traced command's spans here")
    args = ap.parse_args()

    import vlprep.cli  # the set-up being timed

    _configs(args.config)
    proto = sys.stdout
    proto.write(json.dumps({"ready": True, "vlprep": os.path.dirname(vlprep.cli.__file__)})
                + "\n")
    proto.flush()

    from spans import Tracer, installed
    from speed import reference

    last_tracer = None
    for line in iter(sys.stdin.readline, ""):
        cmd = json.loads(line)
        op = cmd["op"]
        if op == "quit":
            break
        if op == "env":
            reply = _env()
        else:
            run = {"cli": lambda: _run_cli(cmd["argv"]),
                   "fit": lambda: _run_fit(cmd["steps"], cmd["seed"]),
                   "fwd_bwd": lambda: _run_fwd_bwd(cmd["calls"], cmd["seed"])}[op]
            tracer = Tracer() if cmd.get("trace") else None
            before = reference()
            try:
                if tracer is None:
                    reply = run()
                else:
                    tracer.record_id = 0 if op != "cli" else None
                    with installed(tracer, LARGE[1:4]):
                        root = f"cli.{cmd['argv'][0]}" if op == "cli" else "bench.op"
                        reply = tracer.wrap(root, run)()
                    reply["trace"] = tracer.summary()
                    last_tracer = tracer
            except Exception:  # the program failed; report it, keep serving
                reply = {"rc": 1, "wall_s": 0.0, "stderr": traceback.format_exc()[-2000:]}
            reply["ref_s"] = [before, reference()]
        proto.write(json.dumps(reply) + "\n")
        proto.flush()
    if args.spans and last_tracer is not None:
        last_tracer.write(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
