"""Smoke tests for the example scripts, run as a user would run them."""

import importlib.util
import json
import os
import re
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


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


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
    {"loss_spans": [[0, 4]]},
], ids=["text", "token_len", "split_literal", "loss_span"])
def test_demo_pipeline_refuses_a_token_record_that_does_not_decode(tmp_path, change):
    demo_pipeline = load_script("demo_pipeline")
    path = tmp_path / "tokens.jsonl"
    good = {"id": "a", "loss_spans": [[0, 3]], "text": "Hi!",
            "token_ids": encode_token_ids([72, 105, 33]), "token_len": 3}
    path.write_text(json.dumps(good) + "\n", encoding="utf-8")
    assert demo_pipeline.check_token_records(path) == 1
    bad = dict(good, id="b", **change)
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n", encoding="utf-8")
    with pytest.raises(SystemExit, match="'b' does not decode"):
        demo_pipeline.check_token_records(path)


def test_demo_pipeline_refuses_a_token_record_with_reordered_keys(tmp_path):
    demo_pipeline = load_script("demo_pipeline")
    path = tmp_path / "tokens.jsonl"
    good = {"id": "a", "text": "Hi!", "token_ids": encode_token_ids([72, 105, 33]),
            "token_len": 3}
    bad = {"token_len": 3, "id": "b", "text": "Hi!", "token_ids": good["token_ids"]}
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n", encoding="utf-8")
    with pytest.raises(SystemExit, match="'b' is not laid out as json.dumps"):
        demo_pipeline.check_token_records(path)


def test_demo_pipeline_refuses_a_kept_line_with_reordered_keys(tmp_path, monkeypatch):
    demo_pipeline = load_script("demo_pipeline")
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


@pytest.fixture(scope="module")
def heldout():
    return load_script("heldout_checks")


def append_space(path, n):
    """Line ``n`` of ``path`` with a space appended: one altered output line."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[n] = lines[n][:-1] + " \n"
    path.write_text("".join(lines), encoding="utf-8")


def add_to_text(path, n):
    """Line ``n`` of ``path`` in its own layout, with one more character of text."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    record = json.loads(lines[n])
    record["text"] += "x"
    lines[n] = json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n"
    path.write_text("".join(lines), encoding="utf-8")


def replace_first(path, old, new):
    path.write_text(path.read_text(encoding="utf-8").replace(old, new, 1), encoding="utf-8")


# Each held-out check on a small seed-2 corpus; then, with its commands' outputs
# kept and one line of them altered, the same check again without running them.
@pytest.mark.parametrize("check, args, summary, mutate, failure", [
    ("halves", {"n": 200}, "200 lines, the halves' outputs are the bytes of one run",
     lambda d: append_space(d / "split_b_out.jsonl", 7), "not the bytes of one run"),
    ("whole_parse", {"seed": 2, "n": 400}, "lines match a whole-string parse",
     lambda d: append_space(d / "checked.jsonl", 150),
     r"checked.jsonl:151: .* is not the whole-string parse"),
    ("token_records", {"seed": 2, "n": 300, "n_dialogues": 60}, "decode to their text",
     lambda d: add_to_text(d / "caption.jsonl", 50),
     "caption.jsonl: token record .* does not decode"),
    ("without_numpy", {"seed": 2, "n": 300, "n_dialogues": 60}, "the same without numpy",
     lambda d: append_space(d / "no_numpy" / "packed.jsonl", 3), "packed.jsonl: .* without numpy"),
    ("resampler", {}, "grad-check PASS: ",
     lambda d: replace_first(d / "gc.out", "PASS: ", "FAIL: "), r"grad-check PASS lines \[\]"),
    ("resampler", {}, "two-tile grad-check PASS: ",
     lambda d: replace_first(d / "gc_tiles.out", "PASS: ", "FAIL: "),
     r"two-tile grad-check PASS lines \[\]"),
], ids=["halves", "whole_parse", "token_records", "without_numpy", "resampler",
        "resampler_two_tiles"])
def test_heldout_check_passes_and_fails_on_one_altered_output_line(
        heldout, tmp_path, monkeypatch, check, args, summary, mutate, failure):
    assert summary in getattr(heldout, check)(tmp_path, **args)
    monkeypatch.setattr(heldout, "run", lambda *args, **kwargs: None)
    assert summary in getattr(heldout, check)(tmp_path, **args)
    mutate(tmp_path)
    with pytest.raises(SystemExit, match=failure):
        getattr(heldout, check)(tmp_path, **args)


def test_heldout_checks_exit_1_naming_each_failed_check(heldout, monkeypatch, capsys):
    def fail(workdir, seed):
        raise SystemExit(f"planted failure at seed {seed}")
    monkeypatch.setattr(heldout, "CHECKS", {"a": (lambda workdir: "fine", [()]),
                                            "b": (fail, [(2,), (3,)]), "c": (fail, [(2,)])})
    assert heldout.main() == 1
    assert capsys.readouterr().out.splitlines() == [
        "PASS a: fine", "FAIL b: planted failure at seed 2", "FAIL c: planted failure at seed 2"]


def test_heldout_command_that_runs_too_long_fails_with_its_argv(heldout, tmp_path, monkeypatch):
    monkeypatch.setattr(heldout, "TIMEOUT_S", 0.2)
    with pytest.raises(subprocess.TimeoutExpired, match=r"'-c', 'import time; time.sleep\(5\)'\]' "
                                                        r"timed out after 0.2 seconds"):
        heldout.run(tmp_path, "import time; time.sleep(5)", prefix=["-c"])


def test_workflow_runs_no_inline_python_and_only_scripts_that_exist():
    """Read as text: PyYAML is not a test dependency."""
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    assert not re.search(r"\bpython3? -c\b", workflow)
    scripts = re.findall(r"\bscripts/[\w.-]+\.py\b", workflow)
    assert "scripts/heldout_checks.py" in scripts
    assert [s for s in scripts if not (ROOT / s).is_file()] == []
