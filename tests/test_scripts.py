"""Smoke tests for the example scripts, run as a user would run them."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_demo_pipeline_runs_and_drops_each_planted_defect(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "demo_pipeline.py"), "--outdir", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "clean_report.json").read_text(encoding="utf-8"))
    assert report["drops"] == {
        "R1_aspect": 1, "R2_small": 1, "R5_emoji": 1, "R6_length": 1, "R7_html": 1,
        "T_special_tag": 1,
    }
    assert (report["records_in"], report["records_kept"], report["errors"]) == (46, 40, 0)
    assert "pipeline complete" in proc.stdout
