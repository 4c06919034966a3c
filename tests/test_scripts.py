"""Smoke tests for the example scripts, run as a user would run them."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vlprep.cli as cli
from vlprep import encode_token_ids

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def load_demo_pipeline():
    spec = importlib.util.spec_from_file_location("demo_pipeline",
                                                  ROOT / "scripts" / "demo_pipeline.py")
    demo_pipeline = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo_pipeline)
    return demo_pipeline


def test_demo_pipeline_runs_and_drops_each_planted_defect(tmp_path):
    proc = run_script("demo_pipeline.py", "--outdir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "clean_report.json").read_text(encoding="utf-8"))
    assert report["drops"] == {
        "R1_aspect": 1, "R2_small": 1, "R5_emoji": 1, "R6_length": 1, "R7_html": 1,
        "T_special_tag": 1,
    }
    assert (report["records_in"], report["records_kept"], report["errors"]) == (46, 40, 0)
    assert "pipeline complete" in proc.stdout
    assert "43 token records decode to their text" in proc.stdout


@pytest.mark.parametrize("change", [
    {"token_ids": encode_token_ids([72, 105, 63])},
    {"token_len": 2},
    # Decodes to its text, but <eos> is one id in the text's encoding.
    {"text": "<eos>", "token_ids": encode_token_ids(list(b"<eos>")), "token_len": 5},
], ids=["text", "token_len", "split_literal"])
def test_demo_pipeline_refuses_a_token_record_that_does_not_decode(tmp_path, change):
    demo_pipeline = load_demo_pipeline()
    path = tmp_path / "tokens.jsonl"
    good = {"id": "a", "text": "Hi!", "token_ids": encode_token_ids([72, 105, 33]),
            "token_len": 3}
    path.write_text(json.dumps(good) + "\n", encoding="utf-8")
    assert demo_pipeline.check_token_records(path) == 1
    bad = dict(good, id="b", **change)
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n", encoding="utf-8")
    with pytest.raises(SystemExit, match="'b' does not decode"):
        demo_pipeline.check_token_records(path)


def test_demo_pipeline_refuses_a_token_record_with_reordered_keys(tmp_path):
    demo_pipeline = load_demo_pipeline()
    path = tmp_path / "tokens.jsonl"
    good = {"id": "a", "text": "Hi!", "token_ids": encode_token_ids([72, 105, 33]),
            "token_len": 3}
    bad = {"token_len": 3, "id": "b", "text": "Hi!", "token_ids": good["token_ids"]}
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n", encoding="utf-8")
    with pytest.raises(SystemExit, match="'b' is not laid out as json.dumps"):
        demo_pipeline.check_token_records(path)


def test_demo_pipeline_refuses_a_kept_line_with_reordered_keys(tmp_path, monkeypatch):
    demo_pipeline = load_demo_pipeline()
    # clean writing its kept lines in to_json's key order instead of sorted.
    monkeypatch.setattr(cli, "_corpus_line",
                        lambda record, text: json.dumps(dict(record.to_json(), text=text)))
    monkeypatch.setattr(sys, "argv", ["demo_pipeline.py", "--outdir", str(tmp_path)])
    with pytest.raises(SystemExit, match=r"kept.jsonl:1: record 'ok\d+' is not laid out as "
                                         "json.dumps") as exit_info:
        demo_pipeline.main()
    assert exit_info.value.code not in (0, None)


def test_schedule_report_prints_every_stage():
    proc = run_script("schedule_report.py")
    assert proc.returncode == 0, proc.stderr
    headers = [line for line in proc.stdout.splitlines() if line.startswith("=== ")]
    assert headers == ["=== pretrain ===", "=== multitask ===", "=== sft ==="]
    assert proc.stdout.count("vision encoder frozen") == 1


def test_schedule_report_prints_one_stage():
    proc = run_script("schedule_report.py", "--stage", "sft")
    assert proc.returncode == 0, proc.stderr
    assert [line for line in proc.stdout.splitlines() if line.startswith("=== ")] == [
        "=== sft ==="
    ]


def test_schedule_report_refuses_a_depth_below_one():
    proc = run_script("schedule_report.py", "--layers", "0")
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: ")
    assert "--layers must be >= 1, got 0" in proc.stderr
    assert "Traceback" not in proc.stderr


def depth_rows(stdout):
    return [line.split(":")[0].strip() for line in stdout.splitlines()
            if line.lstrip().startswith("depth ")]


@pytest.mark.parametrize("args, rows, header", [
    (["--layers", "1"], ["depth  0 from top"], "1 layer)"),
    (["--layers", "2"], ["depth  0 from top", "depth  1 from top"], "2 layers)"),
    ([], ["depth  0 from top", "depth 24 from top", "depth 47 from top"], "48 layers)"),
])
def test_schedule_report_prints_each_depth_once(args, rows, header):
    proc = run_script("schedule_report.py", "--stage", "pretrain", *args)
    assert proc.returncode == 0, proc.stderr
    assert depth_rows(proc.stdout) == rows
    assert header in proc.stdout
