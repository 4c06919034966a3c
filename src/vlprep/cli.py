"""Batch front door: subcommands wiring the library over JSON Lines streams.

Data commands (clean, build-task, build-chat, pack, stats, check-markup)
read one JSON record per line, write one record per line, and emit a run
report whose counters always satisfy ``records_in = kept + drops + errors``.
Malformed or rejected records are counted and skipped, never fatal; the
process exits nonzero only for configuration errors (1) or IO failures (2).
Each command makes one pass over its input's bytes (a record ends at ``\\n``
only) and writes every output line as its record comes through, so memory
stays flat in corpus size. No output may name a file the command reads (its
input or its ``--config``) and no two outputs may name one file. Numbers in
the config's ``filter`` section must be finite.

Every command runs in one process. Record processing is a per-line map in
clean, build-task, build-chat and check-markup, so their input can be split
at line boundaries and run as one process per part: the parts' outputs,
concatenated in order, are the bytes of one run over the whole input.
``--workers`` is accepted for compatibility and has no effect. Only
``grad-check`` and ``demo-resampler`` load numpy; without it they exit with
a config error.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field
from functools import cache, partial
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, TextIO

from .chat import build_chatml, build_task_sample, make_turn
from .demo import DemoConfig, overfit_demo
from .errors import ConfigError, IOFailure, NumericalError, VlprepError
from .filters import (
    CorpusRecord,
    FilterConfig,
    FilterVerdict,
    check_special_tags,
    clean_html_text,
    filter_pair,
)
from .grounding import canonical_prefix, emit_markup, parse_markup
from .packing import (PackedSequence, PackerConfig, Sample, UtilizationReport, effective_len, pack,
                      utilization_report)
from .resampler import ResamplerConfig, grad_check
from .schedules import STAGES, ScheduleConfig, lr_at, stage_preset
from .tokenizer import MockTokenizer, encode_token_ids, project_mask

_TOKENIZER = MockTokenizer()

# Token records carry their ids as one base64 string of little-endian uint16
# (format 3; formats 1 and 2 had a JSON list of ints) and their supervision
# as "loss_spans", half-open token ranges (formats 2 and 3; format 1 had a
# bool per token in "loss_mask"). pack reads none of these fields, but
# refuses a format it does not know.
_TOKEN_RECORD_FORMAT = 3

# Every per-record line the data commands write is the bytes of
# json.dumps(obj, ensure_ascii=False, sort_keys=True). The writers below
# (_token_record, _corpus_line, _verdict_line, _markup_line, _sequence_line)
# build that layout from typed fields: strings through json.dumps's own
# escaper, ints and floats as their repr, which is what json.dumps writes.
# Error verdicts, check-markup lines with a non-string id, stats and run
# reports go through _dump.


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


@contextmanager
def _open_output(path: str) -> Iterator[TextIO]:
    """Open ``path`` for writing text, or hand out stdout for ``-``; OSError is IOFailure."""
    try:
        if path == "-":
            yield sys.stdout
            sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        else:
            with open(path, "w", newline="", encoding="utf-8") as f:
                yield f
    except OSError as e:
        raise _write_failure(path, e) from e


def _write_failure(path: str, e: OSError) -> IOFailure:
    """The ``IOFailure`` for an ``OSError`` met while writing ``path``."""
    if path == "-":  # a closed pipe: the interpreter's flush at exit must not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return IOFailure(f"cannot write {path}: {e}")


def _same_file(a: str, b: str) -> bool:
    """Whether paths ``a`` and ``b`` name one file (``-``, stdout, is no file)."""
    if a == "-" or b == "-":
        return False
    if os.path.exists(a) and os.path.exists(b):
        return os.path.samefile(a, b)
    return os.path.realpath(a) == os.path.realpath(b)


def _write_csv(path: str, header: tuple[str, ...], rows: Iterable[tuple]) -> None:
    with _open_output(path) as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def _dump(obj: dict) -> str:
    # NaN and infinities are not JSON (RFC 8259): dumping one raises ValueError,
    # which makes the record malformed
    return json.dumps(obj, ensure_ascii=False, sort_keys=True, allow_nan=False)


# The string escaper json.dumps uses with ensure_ascii=False.
_json_string = json.encoder.encode_basestring


def _utf8(*texts: str) -> None:
    """Raise ``UnicodeEncodeError`` if a text holds a lone surrogate.

    A ``\\ud800`` escape decodes to one, and no output file can encode it.
    """
    for text in texts:
        if not text.isascii():  # ASCII holds no surrogate
            text.encode("utf-8")


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as e:
        raise IOFailure(f"cannot read config {path}: {e}") from e
    try:
        cfg = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    sections = sorted({c.section for c in _DATA_COMMANDS.values() if c.section})
    unknown = sorted(set(cfg) - set(sections))
    if unknown:
        raise ConfigError(f"config {path} has unknown sections {unknown}, "
                          f"expected {' or '.join(sections)}")
    return cfg


def _section_config(command: _Command, path: Optional[str]):
    """The dataclass ``command.config`` built from its section of the config at ``path``."""
    d = _load_config(path).get(command.section, {})
    try:
        if command.config is FilterConfig:  # the only section holding lists
            d = {**d}  # a JSON object; dict() would also take a list of pairs
            if isinstance(d.get("emoji_ranges"), list):
                d["emoji_ranges"] = tuple(map(tuple, d["emoji_ranges"]))
            for key in ("banned_patterns", "special_tags"):
                if isinstance(d.get(key), list):
                    d[key] = tuple(d[key])
        return command.config(**d)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad {command.section} config: {e}") from e


# ---------------------------------------------------------------------------
# the stage runner

class _Outcome(NamedTuple):
    """What one input record came to."""

    status: str                    # "kept", "dropped" or "error"
    rule: Optional[str] = None     # the rule a dropped record broke
    line: Optional[str] = None     # the record's output line, if it writes one
    verdict: Optional[str] = None  # its line in clean's --verdicts file
    value: object = None           # the typed record pack and stats finish on


# What a malformed record can raise: bad JSON or UTF-8 (ValueError), missing
# keys, wrong types, numbers past float range, nesting past the recursion
# limit, and the toolkit's own record errors.
_MALFORMED = (ValueError, TypeError, KeyError, OverflowError, RecursionError, VlprepError)


def _run_line(parse: Callable, work: Callable[..., _Outcome], line: bytes) -> _Outcome:
    """Decode one input line and run a command's record functions on it.

    ``parse`` turns the JSON value into the command's typed record and
    ``work`` turns that into an outcome. This is the only place a record is
    decoded and the only place a malformed one is caught: it becomes an error
    whose verdict names the typed record's id once ``parse`` has made one.
    """
    record = None
    try:
        # Without its line end, so decode errors point into line 1; strict
        # UTF-8, where json.loads(bytes) would also take UTF-16/32 and surrogates.
        record = parse(json.loads(line.rstrip(b"\r\n").decode("utf-8")))
        outcome = work(record)
        _utf8(outcome.line or "", outcome.verdict or "")
        return outcome
    except _MALFORMED as e:
        verdict = {"id": getattr(record, "id", None), "decision": "error", "detail": str(e)}
        return _Outcome("error", verdict=_dump(verdict))


class _Command(NamedTuple):
    """One data command. With a config ``section``, ``work`` and ``finish``
    take that section's dataclass ``config`` as their first argument."""

    help: str
    parse: Callable                # _run_line's two record functions
    work: Callable[..., _Outcome]
    finish: Optional[Callable[..., Iterable[str]]] = None
    section: Optional[str] = None
    config: Optional[type] = None


def _run_stage(args) -> int:
    """Stream the command's input through ``_run_line``, tallying and writing each outcome.

    Lines of ASCII whitespace only are skipped. ``finish(values, report)``
    turns the kept records' values into the output lines when a command
    (pack, stats) works on all records at once; it may set the report's
    sequence fields, but only the outcomes count records.
    """
    cmd = _DATA_COMMANDS[args.command]
    config_path = getattr(args, "config", None)
    work, finish = cmd.work, cmd.finish
    if cmd.section:
        cfg = _section_config(cmd, config_path)
        work, finish = partial(work, cfg), partial(finish, cfg) if finish else None
    t0 = time.perf_counter()
    verdicts_path = getattr(args, "verdicts", None)
    report = RunReport(args.command)
    values: list = []
    try:
        src = open(args.input, "rb")
    except OSError as e:
        raise IOFailure(f"cannot read {args.input}: {e}") from e
    with src:
        if args.workers < 1:  # --workers has no effect, but below 1 it was always refused
            raise ConfigError(f"workers must be >= 1, got {args.workers}")
        # Each output has its own handle, and opening one empties it: refuse a
        # file the command reads, by any name, and one file named twice.
        reads = {"input": args.input, "config": config_path}
        outputs = [path for path in (args.output, verdicts_path, args.report) if path]
        for i, path in enumerate(outputs):
            for what, read in reads.items():
                if read and _same_file(path, read):
                    raise ConfigError(f"output {path} is the {what} file")
            for earlier in outputs[:i]:
                if _same_file(earlier, path):
                    raise ConfigError(f"outputs {earlier} and {path} are one file")
        with _open_output(args.output) as out:
            with (_open_output(verdicts_path) if verdicts_path else nullcontext()) as verdicts:
                lines = (line for line in src if line.strip())
                for res in map(partial(_run_line, cmd.parse, work), lines):
                    report.records_in += 1
                    if res.status == "error":
                        report.errors += 1
                    elif res.status == "dropped":
                        report.count_drop(res.rule)
                    else:
                        report.records_kept += 1
                        if finish is not None:
                            values.append(res.value)
                    if res.line is not None:
                        try:  # the verdicts block around it would name its own file
                            out.write(res.line + "\n")
                        except OSError as e:
                            raise _write_failure(args.output, e) from e
                    if res.verdict is not None and verdicts is not None:
                        verdicts.write(res.verdict + "\n")
            if finish is not None:
                out.writelines(line + "\n" for line in finish(values, report))
    report.wall_time_s = round(time.perf_counter() - t0, 6)
    report.validate()
    if args.report:
        with _open_output(args.report) as f:
            f.write(_dump(asdict(report)) + "\n")
    print(
        f"{report.command}: in={report.records_in} kept={report.records_kept} "
        f"drops={sum(report.drops.values())} errors={report.errors}",
        file=sys.stderr,
    )
    return 0


# ---------------------------------------------------------------------------
# per-record functions

def _json_object(obj) -> dict:
    if not isinstance(obj, dict):
        raise ValueError("record must be a JSON object")
    return obj


def _corpus_record(obj) -> CorpusRecord:
    record = CorpusRecord.from_json(_json_object(obj))
    _utf8(record.id)  # every verdict names it, error verdicts too
    return record


def _clean_one(cfg: FilterConfig, record: CorpusRecord) -> _Outcome:
    verdict = filter_pair(record, cfg)
    if verdict.kept:
        verdict = check_special_tags(record, cfg)
    # Fields by position: keywords make the tuple measurably slower per record.
    if not verdict.kept:
        return _Outcome("dropped", verdict.rule_id, None, _verdict_line(record.id, verdict))
    return _Outcome("kept", None, _corpus_line(record, clean_html_text(record.text)),
                    _verdict_line(record.id, verdict))


_ABSENT = (None, "")  # the values CorpusRecord.to_json leaves out


def _corpus_line(r: CorpusRecord, text: str) -> str:
    """``_dump`` of ``r.to_json()`` with ``text`` as its text, written without json.dumps.

    Keys in sorted order; a field ``to_json`` leaves out (``None`` or ``""``)
    is left out here too.
    """
    clip, dataset, group, height = r.clip_score, r.dataset, r.group_key, r.image_height
    key, width, language = r.image_key, r.image_width, r.language
    return "".join((
        "{",
        "" if clip in _ABSENT else f'"clip_score": {clip!r}, ',
        "" if dataset in _ABSENT else f'"dataset": {_json_string(dataset)}, ',
        "" if group in _ABSENT else f'"group_key": {_json_string(group)}, ',
        f'"id": {_json_string(r.id)}, ',
        "" if height in _ABSENT else f'"image_height": {height!r}, ',
        "" if key in _ABSENT else f'"image_key": {_json_string(key)}, ',
        "" if width in _ABSENT else f'"image_width": {width!r}, ',
        "" if language in _ABSENT else f'"language": {_json_string(language)}, ',
        f'"text": {_json_string(text)}}}',
    ))


def _verdict_line(record_id: str, verdict: FilterVerdict) -> str:
    """``_dump(verdict.to_json(record_id))``, written without json.dumps."""
    rule = "null" if verdict.rule_id is None else _json_string(verdict.rule_id)
    return (f'{{"decision": {_json_string(verdict.decision)}, '
            f'"detail": {_json_string(verdict.detail)}, '
            f'"id": {_json_string(record_id)}, "rule_id": {rule}}}')


def _token_line(record_id: str, task: str, sample) -> str:
    """The token record of ``sample`` as one JSON line, keys sorted."""
    if not isinstance(record_id, str):
        raise TypeError("id must be a string")  # pack reads only string ids
    token_ids, loss_spans = project_mask(sample, _TOKENIZER)
    return _token_record(record_id, task, sample.text, encode_token_ids(token_ids),
                         loss_spans, len(token_ids), len(sample.images))


def _token_record(record_id: str, task: str, text: str, token_ids: str,
                  loss_spans: list[list[int]], token_len: int, n_images: int) -> str:
    """``_dump`` of the token record with these fields, written without json.dumps.

    The strings go through json.dumps's own escaper, except ``token_ids``:
    base64 holds no character JSON escapes. The list of int pairs and the ints
    print as their JSON.
    """
    return (f'{{"format": {_TOKEN_RECORD_FORMAT}, "id": {_json_string(record_id)}, '
            f'"loss_spans": {loss_spans}, "n_images": {n_images}, '
            f'"task": {_json_string(task)}, "text": {_json_string(text)}, '
            f'"token_ids": "{token_ids}", "token_len": {token_len}}}')


def _build_task_one(record: dict) -> _Outcome:
    record_id = record.pop("id")
    task = record.pop("task")
    sample = build_task_sample(task, record)
    return _Outcome("kept", line=_token_line(record_id, task, sample))


def _build_chat_one(record: dict) -> _Outcome:
    turns = [
        make_turn(t["role"], t.get("content", ""), t.get("images", []))
        for t in record["turns"]
    ]
    sample = build_chatml(turns)
    return _Outcome("kept", line=_token_line(record["id"], "chat", sample))


def _check_markup_one(record: dict) -> _Outcome:
    record_id = record["id"]
    markup = record["markup"]
    if not isinstance(markup, str):
        raise ValueError("markup must be a string")
    try:
        p = canonical_prefix(markup)  # markup[:p] is whole canonical nodes
        canonical = (markup if p == len(markup)
                     else markup[:p] + emit_markup(parse_markup(markup, p)))
    except VlprepError as e:  # markup that does not parse is this command's drop rule
        rule, problem = "parse_error", ("error", str(e))
    else:
        rule, problem = ((None, None) if canonical == markup
                         else ("non_canonical", ("canonical", canonical)))
    if type(record_id) is str:
        line = _markup_line(record_id, problem)
    else:  # any other JSON value; dumped at this call depth, as ever, so an id
        # nested near the recursion limit fails exactly where it did
        line = _dump(dict([problem] if problem else [], id=record_id, ok=problem is None))
    return _Outcome("dropped" if rule else "kept", rule, line)


def _markup_line(record_id: str, problem: Optional[tuple[str, str]]) -> str:
    """A check-markup line, ``{"id": …, "ok": true}`` or ``ok`` false with ``problem``.

    ``problem`` is ``("error", message)`` or ``("canonical", markup)``; both
    keys sort before ``id``.
    """
    if problem is None:
        return f'{{"id": {_json_string(record_id)}, "ok": true}}'
    key, value = problem
    return f'{{"{key}": {_json_string(value)}, "id": {_json_string(record_id)}, "ok": false}}'


def _sample(obj) -> Sample:
    # No "format" is format 1. Exact int type: true and 2.0 are unknown formats.
    record_format = _json_object(obj).get("format", 1)
    if type(record_format) is not int or record_format not in (1, 2, _TOKEN_RECORD_FORMAT):
        raise ValueError(f"unknown token record format {record_format!r}")
    sample = Sample(
        id=obj["id"],
        task=obj["task"],
        token_len=obj["token_len"],
        n_images=obj.get("n_images", 0),
    )
    # Exact types: bool is not an int, and a list task is unhashable.
    if not (type(sample.id) is str and type(sample.task) is str
            and type(sample.token_len) is int and type(sample.n_images) is int):
        raise TypeError("id/task must be strings, token_len/n_images integers")
    _utf8(sample.id, sample.task)  # both are written to the packed sequences
    return sample


def _pack_one(cfg: PackerConfig, sample: Sample) -> _Outcome:
    if effective_len(sample, cfg) > cfg.max_len:  # pack would drop it too
        return _Outcome("dropped", "oversize")
    return _Outcome("kept", value=sample)


def _stats_one(cfg: PackerConfig, record: dict) -> _Outcome:
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
    # A longer sequence cannot come out of pack with this config, and one
    # past float range would overflow the mean fill.
    if not 0 <= seq.total_len <= cfg.max_len:
        raise ValueError(f"total_len {seq.total_len} outside [0, {cfg.max_len}]")
    _utf8(seq.task)  # task names key the per-task report
    return _Outcome("kept", value=seq)


def _report_usage(cfg: PackerConfig, sequences: list[PackedSequence],
                  report: RunReport) -> UtilizationReport:
    """The sequences' ``utilization_report``, with its count and fill put into ``report``."""
    usage = utilization_report(sequences, cfg)
    report.sequences_out = usage.n_sequences
    report.mean_fill = usage.fill_ratio
    return usage


def _finish_pack(cfg: PackerConfig, samples: list[Sample], report: RunReport) -> Iterator[str]:
    sequences, _ = pack(samples, cfg)  # _pack_one has dropped the oversize samples
    _report_usage(cfg, sequences, report)
    return map(_sequence_line, sequences)


def _sequence_line(s: PackedSequence) -> str:
    """``_dump`` of a packed sequence's three fields, written without json.dumps."""
    sample_ids = ", ".join(map(_json_string, s.sample_ids))
    return (f'{{"sample_ids": [{sample_ids}], "task": {_json_string(s.task)}, '
            f'"total_len": {s.total_len!r}}}')


def _finish_stats(cfg: PackerConfig, sequences: list[PackedSequence],
                  report: RunReport) -> list[str]:
    return [_dump(_report_usage(cfg, sequences, report).to_json())]


# ---------------------------------------------------------------------------
# subcommands

# build_parser, _load_config and _run_stage read each data command's wiring here.
_DATA_COMMANDS = {
    "clean": _Command("filter image-text records", _corpus_record, _clean_one,
                      section="filter", config=FilterConfig),
    "build-task": _Command("render task samples to masked tokens", _json_object, _build_task_one),
    "build-chat": _Command("render dialogues to masked tokens", _json_object, _build_chat_one),
    "pack": _Command("pack samples into fixed-length sequences", _sample, _pack_one, _finish_pack,
                     "packer", PackerConfig),
    "stats": _Command("utilization report for packed sequences", _json_object, _stats_one,
                      _finish_stats, "packer", PackerConfig),
    "check-markup": _Command("validate grounding markup records", _json_object, _check_markup_one),
}


def cmd_lr_curve(args) -> int:
    if args.every < 1:
        raise ConfigError(f"every must be >= 1, got {args.every}")
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
    last = schedule.total_steps
    steps = range(0, last + 1, args.every)
    final = [last] if last % args.every else []  # the last step, when the stride skips it
    rows = ((step, lr_at(schedule, step)) for step in itertools.chain(steps, final))
    _write_csv(args.output, ("step", "lr"), rows)  # streamed: no row is held
    print(f"lr-curve: {len(steps) + len(final)} rows", file=sys.stderr)
    return 0


def _require_numpy(command: str) -> None:
    """Import numpy for a kernel command, or refuse ``command`` in one line."""
    try:
        import numpy  # noqa: F401
    except ImportError as e:
        raise ConfigError(f"{command} needs numpy, which could not be imported; "
                          "install vlprep[kernel]") from e


def cmd_grad_check(args) -> int:
    _require_numpy(args.command)
    if args.seeds < 1:
        raise ConfigError(f"seeds must be >= 1, got {args.seeds}")
    if not 0 < args.tolerance < float("inf"):  # nan fails both comparisons
        raise ConfigError(f"tolerance must be finite and > 0, got {args.tolerance}")
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
    _require_numpy(args.command)
    if args.seeds < 1:
        raise ConfigError(f"seeds must be >= 1, got {args.seeds}")
    failed = False
    for seed in range(args.seed, args.seed + args.seeds):
        label = "demo" if args.seeds == 1 else f"demo seed {seed}"
        try:
            cfg = DemoConfig(total_steps=args.steps, warmup_steps=args.warmup_steps, seed=seed)
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


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="vlprep", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    sub.required = True

    for name, command in _DATA_COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--input", "-i", required=True, help="input JSON Lines file")
        p.add_argument("--output", "-o", default="-", help="output path, '-' for stdout")
        p.add_argument("--workers", type=int, default=1,
                       help="accepted for compatibility; has no effect")
        p.add_argument("--report", help="write the run report JSON here")
        if command.section:
            p.add_argument("--config", help="JSON config file: filter and packer sections")
        if name == "clean":
            p.add_argument("--verdicts", help="write per-record verdicts here")
        p.set_defaults(func=_run_stage)

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

    for p in sub.choices.values():  # main reports leftovers with the subcommand's usage
        p.set_defaults(parser=p)
    return parser


def _print_error(text: str) -> None:
    """Print to stderr, escaping what its encoding cannot hold (a lone surrogate)."""
    encoding = getattr(sys.stderr, "encoding", None) or "utf-8"
    print(text.encode(encoding, "backslashreplace").decode(encoding), file=sys.stderr)


# main's parser, built on its first call (a build costs about a millisecond);
# parsing leaves it unchanged, so every later call can reuse it.
_parser = cache(build_parser)


def main(argv: Optional[list[str]] = None) -> int:
    args, extra = _parser().parse_known_args(argv)
    if extra:
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.func(args)
    except ConfigError as e:
        _print_error(f"config error: {e}")
        return 1
    except IOFailure as e:
        _print_error(f"io error: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
