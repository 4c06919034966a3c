"""Batch front door: subcommands wiring the library over JSON Lines streams.

Data commands (clean, build-task, build-chat, pack, stats, check-markup)
read one JSON record per line, write one record per line, and emit a run
report whose counters always satisfy ``records_in = kept + drops + errors``.
Malformed or rejected records are counted and skipped, never fatal; the
process exits nonzero only for configuration errors (1) or IO failures (2).

Record processing is a pure per-line map, so ``--workers N`` shards it over
a process pool with an order-preserving merge: outputs are byte-identical
for every worker count.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from multiprocessing import Pool
from typing import Callable, Optional

from .chat import build_chatml, build_task_sample, make_turn
from .demo import DemoConfig, overfit_demo
from .errors import ConfigError, IOFailure, NumericalError, VlprepError
from .filters import (
    CorpusRecord,
    FilterConfig,
    check_special_tags,
    clean_html_text,
    filter_pair,
)
from .grounding import emit_markup, parse_markup
from .packing import PackedSequence, PackerConfig, Sample, pack, utilization_report
from .resampler import ResamplerConfig, grad_check
from .schedules import STAGES, ScheduleConfig, lr_at, stage_preset
from .tokenizer import MockTokenizer, project_mask

_TOKENIZER = MockTokenizer()


# ---------------------------------------------------------------------------
# plumbing

class _Parser(argparse.ArgumentParser):
    """Argument errors are configuration errors: exit 1, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@dataclass
class RunReport:
    command: str
    records_in: int = 0
    records_kept: int = 0
    drops: dict[str, int] = field(default_factory=dict)
    errors: int = 0
    sequences_out: int = 0
    mean_fill: float = 0.0
    wall_time_s: float = 0.0

    def count_drop(self, rule_id: str) -> None:
        self.drops[rule_id] = self.drops.get(rule_id, 0) + 1

    def validate(self) -> None:
        total = self.records_kept + sum(self.drops.values()) + self.errors
        if self.records_in != total:
            raise RuntimeError(
                f"report invariant violated: in={self.records_in} accounted={total}"
            )

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "records_in": self.records_in,
            "records_kept": self.records_kept,
            "drops": dict(sorted(self.drops.items())),
            "errors": self.errors,
            "sequences_out": self.sequences_out,
            "mean_fill": self.mean_fill,
            "wall_time_s": self.wall_time_s,
        }


def _read_lines(path: str) -> list[str]:
    try:
        with open(path, encoding="utf-8") as f:
            raw = f.read()
    except OSError as e:
        raise IOFailure(f"cannot read {path}: {e}") from e
    # Records end at "\n" only: str.splitlines would also split a record at the
    # U+2028 / U+0085 that _dump writes raw inside JSON strings.
    return [line for line in raw.split("\n") if line.strip()]


def _write_lines(path: str, lines: list[str]) -> None:
    text = "".join(line + "\n" for line in lines)
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as e:
        raise IOFailure(f"cannot write {path}: {e}") from e


def _dump(obj: dict) -> str:
    return json.dumps(obj, ensure_ascii=False, sort_keys=True)


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise IOFailure(f"cannot read config {path}: {e}") from e
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return cfg


def _filter_config(d: dict) -> FilterConfig:
    converted = dict(d)
    try:
        if "allowed_scripts" in converted:
            converted["allowed_scripts"] = frozenset(converted["allowed_scripts"])
        if "emoji_ranges" in converted:
            converted["emoji_ranges"] = tuple(
                (int(a), int(b)) for a, b in converted["emoji_ranges"]
            )
        for key in ("banned_patterns", "special_tags"):
            if key in converted:
                converted[key] = tuple(converted[key])
        return FilterConfig(**converted)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad filter config: {e}") from e


def _packer_config(d: dict) -> PackerConfig:
    try:
        return PackerConfig(**d)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad packer config: {e}") from e


def _map_ordered(fn: Callable[[str], dict], lines: list[str], workers: int) -> list[dict]:
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    if workers == 1 or len(lines) < 2:
        return [fn(line) for line in lines]
    with Pool(workers) as pool:
        return list(pool.imap(fn, lines, chunksize=32))


def _emit_report(report: RunReport, args, t0: float) -> None:
    report.wall_time_s = round(time.perf_counter() - t0, 6)
    report.validate()
    payload = _dump(report.to_json())
    if getattr(args, "report", None):
        _write_lines(args.report, [payload])
    print(
        f"{report.command}: in={report.records_in} kept={report.records_kept} "
        f"drops={sum(report.drops.values())} errors={report.errors}",
        file=sys.stderr,
    )


# ---------------------------------------------------------------------------
# per-record workers (top level so they pickle for the process pool)

def _clean_one(cfg: FilterConfig, line: str) -> dict:
    try:
        record = CorpusRecord.from_json(json.loads(line))
    except (ValueError, TypeError) as e:
        return {"status": "error", "detail": str(e)}
    try:
        verdict = filter_pair(record, cfg)
        if verdict.kept:
            verdict = check_special_tags(record, cfg)
    except VlprepError as e:
        return {"status": "error", "id": record.id, "detail": str(e)}
    if not verdict.kept:
        return {
            "status": "dropped",
            "rule": verdict.rule_id,
            "verdict": verdict.to_json(record.id),
        }
    out = record.to_json()
    out["text"] = clean_html_text(record.text)
    return {
        "status": "kept",
        "line": _dump(out),
        "verdict": verdict.to_json(record.id),
    }


def _tokenized_record(record_id: str, task: str, sample) -> dict:
    token_ids, mask = project_mask(sample, _TOKENIZER)
    return {
        "id": record_id,
        "task": task,
        "text": sample.text,
        "token_ids": token_ids,
        "loss_mask": mask,
        "token_len": len(token_ids),
        "n_images": len(sample.images),
    }


def _build_task_one(line: str) -> dict:
    try:
        record = json.loads(line)
        if not isinstance(record, dict):
            raise ValueError("record must be a JSON object")
        record_id = record.pop("id")
        task = record.pop("task")
        sample = build_task_sample(task, record)
        return {"status": "kept", "line": _dump(_tokenized_record(record_id, task, sample))}
    except (VlprepError, ValueError, TypeError, KeyError) as e:
        return {"status": "error", "detail": f"{type(e).__name__}: {e}"}


def _build_chat_one(line: str) -> dict:
    try:
        record = json.loads(line)
        if not isinstance(record, dict):
            raise ValueError("record must be a JSON object")
        record_id = record["id"]
        turns = [
            make_turn(t["role"], t.get("content", ""), t.get("images", []))
            for t in record["turns"]
        ]
        sample = build_chatml(turns)
        return {"status": "kept", "line": _dump(_tokenized_record(record_id, "chat", sample))}
    except (VlprepError, ValueError, TypeError, KeyError) as e:
        return {"status": "error", "detail": f"{type(e).__name__}: {e}"}


def _check_markup_one(line: str) -> dict:
    try:
        record = json.loads(line)
        record_id = record["id"]
        markup = record["markup"]
        if not isinstance(markup, str):
            raise ValueError("markup must be a string")
    except (ValueError, TypeError, KeyError) as e:
        return {"status": "error", "detail": f"{type(e).__name__}: {e}"}
    try:
        canonical = emit_markup(parse_markup(markup))
    except VlprepError as e:
        return {
            "status": "dropped",
            "rule": "parse_error",
            "line": _dump({"id": record_id, "ok": False, "error": str(e)}),
        }
    if canonical != markup:
        return {
            "status": "dropped",
            "rule": "non_canonical",
            "line": _dump({"id": record_id, "ok": False, "canonical": canonical}),
        }
    return {"status": "kept", "line": _dump({"id": record_id, "ok": True})}


# ---------------------------------------------------------------------------
# subcommands

def cmd_clean(args) -> int:
    t0 = time.perf_counter()
    cfg = _filter_config(_load_config(args.config).get("filter", {}))
    lines = _read_lines(args.input)
    results = _map_ordered(partial(_clean_one, cfg), lines, args.workers)
    report = RunReport("clean", records_in=len(lines))
    kept: list[str] = []
    verdicts: list[str] = []
    for res in results:
        if res["status"] == "error":
            report.errors += 1
            verdicts.append(
                _dump({"id": res.get("id"), "decision": "error", "detail": res["detail"]})
            )
        elif res["status"] == "dropped":
            report.count_drop(res["rule"])
            verdicts.append(_dump(res["verdict"]))
        else:
            report.records_kept += 1
            kept.append(res["line"])
            verdicts.append(_dump(res["verdict"]))
    _write_lines(args.output, kept)
    if args.verdicts:
        _write_lines(args.verdicts, verdicts)
    _emit_report(report, args, t0)
    return 0


def _run_build(args, worker: Callable[[str], dict], command: str) -> int:
    t0 = time.perf_counter()
    lines = _read_lines(args.input)
    results = _map_ordered(worker, lines, args.workers)
    report = RunReport(command, records_in=len(lines))
    out: list[str] = []
    for res in results:
        if res["status"] == "error":
            report.errors += 1
        else:
            report.records_kept += 1
            out.append(res["line"])
    _write_lines(args.output, out)
    _emit_report(report, args, t0)
    return 0


def cmd_build_task(args) -> int:
    return _run_build(args, _build_task_one, "build-task")


def cmd_build_chat(args) -> int:
    return _run_build(args, _build_chat_one, "build-chat")


def cmd_pack(args) -> int:
    t0 = time.perf_counter()
    cfg = _packer_config(_load_config(args.config).get("packer", {}))
    lines = _read_lines(args.input)
    report = RunReport("pack", records_in=len(lines))
    samples: list[Sample] = []
    for line in lines:
        try:
            record = json.loads(line)
            sample = Sample(
                id=record["id"],
                task=record["task"],
                token_len=record["token_len"],
                n_images=record.get("n_images", 0),
            )
            # Exact types: bool is not an int, and a list task is unhashable.
            if not (type(sample.id) is str and type(sample.task) is str
                    and type(sample.token_len) is int and type(sample.n_images) is int):
                raise TypeError("id/task must be strings, token_len/n_images integers")
            samples.append(sample)
        except (ValueError, TypeError, KeyError):
            report.errors += 1
    sequences, dropped = pack(samples, cfg)
    usage = utilization_report(sequences, cfg)
    report.records_kept = usage.n_samples
    for _ in dropped:
        report.count_drop("oversize")
    report.sequences_out = usage.n_sequences
    report.mean_fill = usage.fill_ratio
    out = [
        _dump({"task": s.task, "sample_ids": s.sample_ids, "total_len": s.total_len})
        for s in sequences
    ]
    _write_lines(args.output, out)
    _emit_report(report, args, t0)
    return 0


def cmd_stats(args) -> int:
    t0 = time.perf_counter()
    cfg = _packer_config(_load_config(args.config).get("packer", {}))
    lines = _read_lines(args.input)
    report = RunReport("stats", records_in=len(lines))
    sequences: list[PackedSequence] = []
    for line in lines:
        try:
            record = json.loads(line)
            seq = PackedSequence(
                task=record["task"],
                sample_ids=record["sample_ids"],
                total_len=record["total_len"],
            )
            if not (type(seq.task) is str and type(seq.total_len) is int
                    and type(seq.sample_ids) is list
                    and all(type(s) is str for s in seq.sample_ids)):
                raise TypeError("task must be a string, sample_ids a list of strings, "
                                "total_len an integer")
            sequences.append(seq)
        except (ValueError, TypeError, KeyError):
            report.errors += 1
    report.records_kept = len(sequences)
    usage = utilization_report(sequences, cfg)
    report.sequences_out = usage.n_sequences
    report.mean_fill = usage.fill_ratio
    _write_lines(args.output, [_dump(usage.to_json())])
    _emit_report(report, args, t0)
    return 0


def cmd_lr_curve(args) -> int:
    if args.stage:
        schedule = stage_preset(args.stage).schedule
    else:
        try:
            schedule = ScheduleConfig(
                peak_lr=args.peak_lr,
                min_lr=args.min_lr,
                warmup_steps=args.warmup_steps,
                total_steps=args.total_steps,
            )
        except (TypeError, ValueError) as e:
            raise ConfigError(f"bad schedule: {e}") from e
    steps = list(range(0, schedule.total_steps + 1, args.every))
    if steps[-1] != schedule.total_steps:
        steps.append(schedule.total_steps)
    rows = [(step, lr_at(schedule, step)) for step in steps]
    _write_csv(args.output, ("step", "lr"), rows)
    print(f"lr-curve: {len(rows)} rows", file=sys.stderr)
    return 0


def _write_csv(path: str, header: tuple[str, ...], rows: list[tuple]) -> None:
    def emit(f) -> None:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)

    if path == "-":
        emit(sys.stdout)
        return
    try:
        with open(path, "w", newline="", encoding="utf-8") as f:
            emit(f)
    except OSError as e:
        raise IOFailure(f"cannot write {path}: {e}") from e


def cmd_grad_check(args) -> int:
    worst = 0.0
    for seed in range(args.seeds):
        try:
            cfg = ResamplerConfig(
                d_model=args.d_model,
                grid_h=args.grid_h,
                grid_w=args.grid_w,
                n_queries=args.n_queries,
                n_heads=args.n_heads,
                seed=seed,
            )
        except ValueError as e:
            raise ConfigError(str(e)) from e
        err = grad_check(cfg)
        worst = max(worst, err)
        print(f"seed {seed}: max_rel_err={err:.3e}")
    ok = worst < args.tolerance
    print(f"{'PASS' if ok else 'FAIL'}: worst={worst:.3e} tolerance={args.tolerance:.1e}")
    return 0 if ok else 1


def cmd_demo_resampler(args) -> int:
    """Overfit seeds --seed .. --seed+N-1; the CSV holds the --seed curve."""
    if args.seeds < 1:
        raise ConfigError(f"seeds must be >= 1, got {args.seeds}")
    failed = False
    for seed in range(args.seed, args.seed + args.seeds):
        label = "demo" if args.seeds == 1 else f"demo seed {seed}"
        cfg = DemoConfig(total_steps=args.steps, warmup_steps=args.warmup_steps, seed=seed)
        try:
            curve = overfit_demo(cfg)
        except ValueError as e:
            raise ConfigError(str(e)) from e
        except NumericalError as e:
            print(f"{label} diverged: {e}", file=sys.stderr)
            failed = True
            continue
        if seed == args.seed:
            _write_csv(args.output, ("step", "loss"), list(enumerate(curve)))
        ratio = curve[-1] / curve[0]
        print(
            f"{label}: initial={curve[0]:.6e} final={curve[-1]:.6e} ratio={ratio:.3e}",
            file=sys.stderr,
        )
        failed = failed or ratio > 0.01
    return 1 if failed else 0


def cmd_check_markup(args) -> int:
    t0 = time.perf_counter()
    lines = _read_lines(args.input)
    results = _map_ordered(_check_markup_one, lines, args.workers)
    report = RunReport("check-markup", records_in=len(lines))
    out: list[str] = []
    for res in results:
        if res["status"] == "error":
            report.errors += 1
            continue
        if res["status"] == "dropped":
            report.count_drop(res["rule"])
        else:
            report.records_kept += 1
        out.append(res["line"])
    _write_lines(args.output, out)
    _emit_report(report, args, t0)
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_io_flags(p: argparse.ArgumentParser, verdicts: bool = False) -> None:
    p.add_argument("--input", "-i", required=True, help="input JSON Lines file")
    p.add_argument("--output", "-o", default="-", help="output path, '-' for stdout")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--workers", type=int, default=1, help="process count")
    p.add_argument("--report", help="write the run report JSON here")
    if verdicts:
        p.add_argument("--verdicts", help="write per-record verdicts here")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="vlprep", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    sub.required = True

    p = sub.add_parser("clean", help="filter image-text records")
    _add_io_flags(p, verdicts=True)
    p.set_defaults(func=cmd_clean)

    p = sub.add_parser("build-task", help="render task samples to masked tokens")
    _add_io_flags(p)
    p.set_defaults(func=cmd_build_task)

    p = sub.add_parser("build-chat", help="render dialogues to masked tokens")
    _add_io_flags(p)
    p.set_defaults(func=cmd_build_chat)

    p = sub.add_parser("pack", help="pack samples into fixed-length sequences")
    _add_io_flags(p)
    p.set_defaults(func=cmd_pack)

    p = sub.add_parser("stats", help="utilization report for packed sequences")
    _add_io_flags(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("check-markup", help="validate grounding markup records")
    _add_io_flags(p)
    p.set_defaults(func=cmd_check_markup)

    p = sub.add_parser("lr-curve", help="emit (step, lr) CSV for a schedule")
    p.add_argument("--stage", choices=STAGES)
    p.add_argument("--peak-lr", type=float, default=2e-4)
    p.add_argument("--min-lr", type=float, default=1e-6)
    p.add_argument("--warmup-steps", type=int, default=500)
    p.add_argument("--total-steps", type=int, default=50_000)
    p.add_argument("--every", type=int, default=1, help="row stride")
    p.add_argument("--output", "-o", default="-")
    p.set_defaults(func=cmd_lr_curve)

    p = sub.add_parser("grad-check", help="finite-difference gradient verification")
    p.add_argument("--d-model", type=int, default=16)
    p.add_argument("--grid-h", type=int, default=3)
    p.add_argument("--grid-w", type=int, default=3)
    p.add_argument("--n-queries", type=int, default=4)
    p.add_argument("--n-heads", type=int, default=1)
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(func=cmd_grad_check)

    p = sub.add_parser("demo-resampler", help="overfit demo, loss curve as CSV")
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--warmup-steps", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seeds", type=int, default=1, help="run seeds --seed .. --seed+N-1")
    p.add_argument("--output", "-o", default="-")
    p.set_defaults(func=cmd_demo_resampler)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except IOFailure as e:
        print(f"io error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
