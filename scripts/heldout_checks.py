"""Held-out differential checks of the vlprep commands, one line per check.

Inputs come from perfbench/gen.py at seeds 2 and 3, which the benchmark does
not measure. Each command runs as ``python -m vlprep.cli`` in its own
interpreter and is stopped after 120 s. The script exits 1 naming each check
that failed; README's Tests section says what each one compares.

    PYTHONPATH=src python3 scripts/heldout_checks.py
"""

import json
import os
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

import vlprep
from vlprep.errors import VlprepError
from vlprep.grounding import emit_markup, parse_markup

# The sibling script, which loads gen; running this file puts scripts/ on sys.path.
from demo_pipeline import check_token_records, gen, lines_of, write_files

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 120
# The commands import the vlprep this script imported, from any directory.
_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (str(Path(vlprep.__file__).parents[1]), os.environ.get("PYTHONPATH")) if p))
VLPREP = ["-m", "vlprep.cli"]


def run(cwd: Path, *args, prefix=VLPREP, status: int = 0, log: str = "") -> None:
    """``python PREFIX ARGS`` in ``cwd``, output kept as LOG.out/.err; exit on another status."""
    argv = [sys.executable, *map(str, [*prefix, *args])]
    # On a timeout, subprocess.TimeoutExpired names the command.
    proc = subprocess.run(argv, cwd=cwd, env=_ENV, capture_output=True, text=True,
                          timeout=TIMEOUT_S)
    if proc.returncode != status:
        raise SystemExit(f"{argv} exited {proc.returncode}, not {status}: {proc.stderr.strip()}")
    if log:
        (cwd / f"{log}.out").write_text(proc.stdout, encoding="utf-8")
        (cwd / f"{log}.err").write_text(proc.stderr, encoding="utf-8")


def write_workload(workdir: Path, seed: int, n: int, n_dialogues: int, n_markup: int) -> None:
    """grounded_sft's files, and caption_web's corpus of ``n`` records and config."""
    cw = gen.caption_web(n, seed)
    write_files(workdir, {**gen.grounded_sft(n, n_dialogues, n_markup, seed).files,
                          "corpus": cw.files["corpus"]})
    (workdir / "config.json").write_text(json.dumps(cw.configs), encoding="utf-8")


def halves(workdir: Path, n: int = 2000) -> str:
    markup = ["<ref>a cat</ref><box>(1,2),(3,4)</box>", "<ref>a</ref><box>(1,2), (3,4)</box>",
              "<ref>a</ref><box>(5,2),(3,4)</box>", "a plain caption"]
    lines = [json.dumps({"id": f"m{i}", "markup": markup[i % 4]}) for i in range(n)]
    write_files(workdir, {"split": lines, "split_a": lines[:n // 2], "split_b": lines[n // 2:]})
    for name in ("split", "split_a", "split_b"):
        run(workdir, "check-markup", "-i", f"{name}.jsonl", "-o", f"{name}_out.jsonl")
    whole, a, b = ((workdir / f"{name}_out.jsonl").read_bytes()
                   for name in ("split", "split_a", "split_b"))
    if whole.count(b"\n") != n or whole != a + b:
        raise SystemExit(f"the two halves' outputs are not the bytes of one run over {n} lines")
    return f"{n} lines, the halves' outputs are the bytes of one run"


def whole_parse(workdir: Path, seed: int, n: int = 20000) -> str:
    write_files(workdir, {"markup": gen.grounded_sft(0, 0, n, seed).files["markup"]})
    run(workdir, "check-markup", "-i", "markup.jsonl", "-o", "checked.jsonl")
    expected = []  # one line per record with a string markup, parsed whole
    for line in lines_of(workdir / "markup.jsonl"):
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if not isinstance(markup := record["markup"], str):
            continue
        try:
            canonical = emit_markup(parse_markup(markup))
        except VlprepError as e:
            row = {"error": str(e), "ok": False}
        else:
            row = {"ok": True} if canonical == markup else {"canonical": canonical, "ok": False}
        expected.append(json.dumps(dict(row, id=record["id"]), ensure_ascii=False, sort_keys=True))
    got = lines_of(workdir / "checked.jsonl")
    for i, (a, b) in enumerate(zip(got, expected), 1):
        if a != b:
            raise SystemExit(f"checked.jsonl:{i}: {a!r} is not the whole-string parse {b!r}")
    if len(got) != len(expected) or not got:
        raise SystemExit(f"checked.jsonl: {len(got)} lines, the oracle has {len(expected)}")
    return f"{len(got)} lines match a whole-string parse"


def token_records(workdir: Path, seed: int, n: int = 20000, n_dialogues: int = 6000) -> str:
    write_workload(workdir, seed, n, n_dialogues, 0)
    # Kept captions mix CJK and ASCII, so both of the mock tokenizer's encoding paths run.
    run(workdir, "clean", "-i", "corpus.jsonl", "-o", "kept.jsonl", "--config", "config.json")
    write_files(workdir, {"captions": gen.caption_tasks(lines_of(workdir / "kept.jsonl"))
                          .files["tasks"]})
    run(workdir, "build-task", "-i", "tasks.jsonl", "-o", "task.jsonl")
    run(workdir, "build-chat", "-i", "dialogues.jsonl", "-o", "chat.jsonl")
    run(workdir, "build-task", "-i", "captions.jsonl", "-o", "caption.jsonl")
    counts = {name: check_token_records(workdir / f"{name}.jsonl")
              for name in ("task", "chat", "caption")}
    captions = [json.loads(line)["text"] for line in lines_of(workdir / "caption.jsonl")]
    ascii_rows = sum(text.isascii() for text in captions)
    if not all(counts.values()) or not 0 < ascii_rows < len(captions):
        raise SystemExit(f"token records per file {counts}, {ascii_rows} captions ASCII")
    return f"token records {counts} ({ascii_rows} captions ASCII) decode to their text"


def without_numpy(workdir: Path, seed: int, n: int = 20000, n_dialogues: int = 6000) -> str:
    write_workload(workdir, seed, n, n_dialogues, n)
    runs = {"numpy": VLPREP, "no_numpy": ["-c", 'import sys; sys.modules["numpy"] = None; from '
                                          'vlprep.cli import main; sys.exit(main(sys.argv[1:]))']}
    commands = [  # each run works in its own directory beside the generated inputs
        "clean -i ../corpus.jsonl -o kept.jsonl --verdicts verdicts.jsonl "
        "--config ../config.json --report clean.json",
        "build-task -i ../tasks.jsonl -o tasks.jsonl --report build-task.json",
        "build-chat -i ../dialogues.jsonl -o chat.jsonl --report build-chat.json",
        "check-markup -i ../markup.jsonl -o markup.jsonl --report check-markup.json",
        "pack -i tasks.jsonl -o packed.jsonl --config ../config.json --report pack.json",
        "stats -i packed.jsonl -o stats.jsonl --report stats.json",
    ]
    for name, prefix in runs.items():
        (workdir / name).mkdir(exist_ok=True)
        for command in commands:
            run(workdir / name, *command.split(), prefix=prefix)
        run(workdir / name, "lr-curve", "--every", "50", "-o", "lr.csv", prefix=prefix, log="lr")
    for name in ("kept.jsonl", "verdicts.jsonl", "tasks.jsonl", "chat.jsonl", "markup.jsonl",
                 "packed.jsonl", "stats.jsonl", "lr.csv", "lr.err"):
        a, b = ((workdir / run_name / name).read_bytes() for run_name in runs)
        if not a or a != b:
            raise SystemExit(f"{name}: {len(b)} bytes without numpy, not the {len(a)} with it")
    for name in (command.split()[0] for command in commands):
        a, b = (json.loads((workdir / run_name / f"{name}.json").read_text(encoding="utf-8"))
                for run_name in runs)
        a.pop("wall_time_s"), b.pop("wall_time_s")
        if a != b or a["records_kept"] == 0:
            raise SystemExit(f"{name}: report without numpy {b} is not {a}")
    return "every output and report is the same without numpy"


def resampler(workdir: Path) -> str:
    run(workdir, prefix=[ROOT / "scripts" / "schedule_report.py"])
    # 8x8 grid, 64 queries: the 4 MiB stack budget binds (22 entries per forward).
    run(workdir, "grad-check", "--grid-h", "8", "--grid-w", "8", "--n-queries", "64",
        "--seeds", "1", log="gc")
    # 32x32 grid, 144 queries, d 4: the unstacked forward and backward run two
    # 1 MiB tiles of query rows (128 + 16), audited at the real tile size.
    run(workdir, "grad-check", "--d-model", "4", "--grid-h", "32", "--grid-w", "32",
        "--n-queries", "144", "--seeds", "1", log="gc_tiles")
    run(workdir, "demo-resampler", "--seed", "-1", "-o", "x.csv", status=1, log="demo")
    passed, tiled = ([line for line in lines_of(workdir / f"{log}.out") if line.startswith("PASS: ")]
                     for log in ("gc", "gc_tiles"))
    err = lines_of(workdir / "demo.err")
    if (not passed or not tiled or lines_of(workdir / "demo.out") or len(err) != 1
            or "Traceback" in err[0] or not err[0].startswith("config error: seed must be >= 0")
            or (workdir / "x.csv").exists()):
        raise SystemExit(f"grad-check PASS lines {passed}, two-tile grad-check PASS lines {tiled}, "
                         f"demo-resampler --seed -1 errors {err}")
    return (f"grad-check {passed[0]}; two-tile grad-check {tiled[0]}; "
            f"demo-resampler --seed -1: {err[0]}")


PER_SEED = [(2,), (3,)]  # the held-out seeds; the benchmark measures seed 1
CHECKS = {  # name: (check, its arguments: once, or once per held-out seed)
    "check-markup on two halves": (halves, [()]),
    "whole-string parse": (whole_parse, PER_SEED),
    "token records decode to their text": (token_records, PER_SEED),
    "data commands without numpy": (without_numpy, PER_SEED),
    "resampler commands and schedule_report": (resampler, [()]),
}


def main() -> int:
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, (check, arg_lists) in CHECKS.items():
            try:
                results = ["".join(f"seed {seed}: " for seed in args)
                           + check(Path(tempfile.mkdtemp(dir=tmp)), *args) for args in arg_lists]
                print(f"PASS {name}: {'; '.join(results)}", flush=True)
            except (Exception, SystemExit) as e:
                traceback.print_exc()
                print(f"FAIL {name}: {e}", flush=True)
                failed.append(name)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
