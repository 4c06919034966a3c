"""Run every workload, untraced then traced, and optionally save one BENCH file.

    python3 perfbench/suite.py --seed 1 --seconds 25 --out BENCH_x.json

Each run's table (every metric with its unit) is printed as it finishes.
The exit code is nonzero if any run failed a check or could not run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import OUT, PIPELINES, ROOT


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--out", type=Path, help="write all results to this JSON file")
    args = ap.parse_args()

    results, worst = {}, 0
    for workload in PIPELINES:
        for trace in (0, 1):
            rc = subprocess.call(
                [sys.executable, str(Path(__file__).with_name("run.py")),
                 "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)], cwd=ROOT)
            worst = max(worst, rc)
            path = OUT / f"{workload}-seed{args.seed}-trace{trace}" / "result.json"
            if rc in (0, 1) and path.is_file():
                results[f"{workload}/trace{trace}"] = json.loads(path.read_text(encoding="utf-8"))
    if args.out:
        args.out.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    return worst


if __name__ == "__main__":
    sys.exit(main())
