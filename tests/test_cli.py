"""End-to-end tests for the JSON Lines command line.

Every test drives ``vlprep.cli.main`` in process with files under tmp_path,
asserting output bytes, run-report accounting, and exit codes. One test runs
the installed entry point as a subprocess to cover interpreter-level wiring.
"""

import base64
import csv
import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from functools import partial

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

import vlprep.chat as chat
import vlprep.cli as cli
import vlprep.demo as demo
from vlprep.chat import build_chatml
from vlprep.cli import RunReport, _dump, _token_line, main
from vlprep.errors import VlprepError
from vlprep.filters import (
    DROP,
    KEEP,
    LANGUAGES,
    CorpusRecord,
    FilterConfig,
    FilterVerdict,
    check_special_tags,
    clean_html_text,
    filter_pair,
)
from vlprep.grounding import (
    emit_markup,
    is_canonical_markup,
    is_canonical_region_list,
    parse_markup,
)
from vlprep.packing import PackedSequence, PackerConfig, pack
from vlprep.schedules import ScheduleConfig, lr_at
from vlprep.tokenizer import MockTokenizer, decode_token_ids, project_mask

from conftest import MIXED_MARKUP, defective_markup, dialogues, mask_from_spans, task_samples
from golden import (
    CHATML_LINE,
    CHATML_SUPERVISED,
    CHATML_TEXT,
    CHATML_TOKENS,
    CHATML_TURNS,
    CLEAN_FIXTURES,
    CLEAN_LINES,
    MARKUP_LINES,
    MARKUP_RECORDS,
    PACK_CONFIG,
    PACK_LINES,
    PACK_RECORDS,
    REGION_LINES,
    REGION_RECORDS,
    TASK_FIXTURES,
    TASK_LINES,
    TASK_TOKENS,
)

TOK = MockTokenizer()


def write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def line_bytes(lines):
    """The bytes a command writes for these output lines."""
    return "".join(line + "\n" for line in lines).encode("utf-8")


def clean_corpus():
    """Three records: one kept (with HTML to strip), one emoji drop, one tag drop."""
    return [
        {
            "id": "a", "text": "A <b>small</b> dog on the lawn.",
            "image_width": 512, "image_height": 512, "language": "en",
        },
        {
            "id": "b", "text": "Nice weather \U0001F600 today!",
            "image_width": 512, "image_height": 512, "language": "en",
        },
        {
            "id": "c", "text": "Photo of <PERSON> at the beach.",
            "image_width": 512, "image_height": 512, "language": "en",
        },
    ]


def run_report(path):
    report = json.loads(path.read_text(encoding="utf-8"))
    accounted = report["records_kept"] + sum(report["drops"].values()) + report["errors"]
    assert report["records_in"] == accounted
    return report


# ---------------------------------------------------------------------------
# clean

class TestClean:
    def test_counts_and_report(self, tmp_path):
        src, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        rpt, verdicts = tmp_path / "report.json", tmp_path / "verdicts.jsonl"
        write_jsonl(src, clean_corpus())
        rc = main([
            "clean", "-i", str(src), "-o", str(out),
            "--report", str(rpt), "--verdicts", str(verdicts),
        ])
        assert rc == 0
        report = run_report(rpt)
        assert report["command"] == "clean"
        assert report["records_in"] == 3
        assert report["records_kept"] == 1
        assert report["drops"] == {"R5_emoji": 1, "T_special_tag": 1}
        assert report["errors"] == 0

    def test_kept_text_is_cleaned(self, tmp_path):
        src, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        write_jsonl(src, clean_corpus())
        main(["clean", "-i", str(src), "-o", str(out)])
        kept = read_jsonl(out)
        assert [r["id"] for r in kept] == ["a"]
        assert kept[0]["text"] == "A small dog on the lawn."

    def test_verdicts_cover_every_record(self, tmp_path):
        src, verdicts = tmp_path / "in.jsonl", tmp_path / "verdicts.jsonl"
        write_jsonl(src, clean_corpus())
        main(["clean", "-i", str(src), "-o", "-", "--verdicts", str(verdicts)])
        rows = read_jsonl(verdicts)
        assert [r["id"] for r in rows] == ["a", "b", "c"]
        assert [r["decision"] for r in rows] == ["keep", "drop", "drop"]
        assert rows[1]["rule_id"] == "R5_emoji"
        assert rows[2]["rule_id"] == "T_special_tag"

    def test_malformed_line_counted_not_fatal(self, tmp_path):
        src, rpt = tmp_path / "in.jsonl", tmp_path / "report.json"
        records = clean_corpus()
        text = json.dumps(records[0]) + "\n{not json}\n" + json.dumps(records[1]) + "\n"
        src.write_text(text, encoding="utf-8")
        rc = main(["clean", "-i", str(src), "-o", "-", "--report", str(rpt)])
        assert rc == 0
        report = run_report(rpt)
        assert report["records_in"] == 3
        assert report["errors"] == 1
        assert report["records_kept"] == 1

    def test_wrongly_typed_fields_are_record_errors(self, tmp_path):
        src, rpt = tmp_path / "in.jsonl", tmp_path / "report.json"
        good = clean_corpus()[0]
        write_jsonl(src, [
            dict(good, text=12345),
            dict(good, id=["a"]),
            dict(good, image_width="512"),
            dict(good, clip_score=True),
            good,
        ])
        rc = main(["clean", "-i", str(src), "-o", "-", "--report", str(rpt)])
        assert rc == 0
        report = run_report(rpt)
        assert report["records_in"] == 5
        assert report["errors"] == 4
        assert report["records_kept"] == 1

    def test_non_finite_clip_score_is_record_error(self, tmp_path):
        """NaN/Infinity parse from JSON but must not reach a filter or the output."""
        src, out, rpt = tmp_path / "in.jsonl", tmp_path / "out.jsonl", tmp_path / "r.json"
        cfg = tmp_path / "cfg.json"
        good = dict(clean_corpus()[0], dataset="web", clip_score=0.5)
        write_jsonl(src, [
            dict(good, id="nan", clip_score=float("nan")),
            dict(good, id="inf", clip_score=float("inf")),
            dict(good, id="ninf", clip_score=float("-inf")),
            good,
        ])
        cfg.write_text(json.dumps({"filter": {"clip_thresholds": {"web": 0.3}}}),
                       encoding="utf-8")
        rc = main(["clean", "-i", str(src), "-o", str(out), "--config", str(cfg),
                   "--report", str(rpt)])
        assert rc == 0
        report = run_report(rpt)
        assert (report["records_kept"], report["errors"], report["drops"]) == (1, 3, {})

        def reject(token):
            raise AssertionError(f"non-standard JSON token {token} in output")

        kept = [json.loads(line, parse_constant=reject)
                for line in out.read_text(encoding="utf-8").splitlines()]
        assert [r["id"] for r in kept] == ["a"]

    def test_unknown_field_is_record_error(self, tmp_path):
        src, rpt = tmp_path / "in.jsonl", tmp_path / "report.json"
        write_jsonl(src, [{"id": "a", "text": "A small dog.", "bogus": 1}])
        rc = main(["clean", "-i", str(src), "-o", "-", "--report", str(rpt)])
        assert rc == 0
        assert run_report(rpt)["errors"] == 1

    def test_empty_input(self, tmp_path):
        src, out, rpt = tmp_path / "in.jsonl", tmp_path / "out.jsonl", tmp_path / "r.json"
        src.write_text("", encoding="utf-8")
        rc = main(["clean", "-i", str(src), "-o", str(out), "--report", str(rpt)])
        assert rc == 0
        assert out.read_text(encoding="utf-8") == ""
        assert run_report(rpt)["records_in"] == 0

    def test_config_overrides_thresholds(self, tmp_path):
        src, out, cfg = tmp_path / "in.jsonl", tmp_path / "out.jsonl", tmp_path / "cfg.json"
        write_jsonl(src, [clean_corpus()[0]])
        cfg.write_text(json.dumps({"filter": {"min_chars": 100}}), encoding="utf-8")
        main(["clean", "-i", str(src), "-o", str(out), "--config", str(cfg)])
        assert out.read_text(encoding="utf-8") == ""

    @pytest.mark.parametrize("name", sorted(CLEAN_FIXTURES))
    def test_golden_lines(self, tmp_path, name):
        src, out, verdicts = tmp_path / "in.jsonl", tmp_path / "out.jsonl", tmp_path / "v.jsonl"
        cfg = tmp_path / "cfg.json"
        write_jsonl(src, CLEAN_FIXTURES[name]["records"])
        cfg.write_text(json.dumps(CLEAN_FIXTURES[name]["config"]), encoding="utf-8")
        rc = main(["clean", "-i", str(src), "-o", str(out), "--verdicts", str(verdicts),
                   "--config", str(cfg)])
        assert rc == 0
        assert out.read_bytes() == line_bytes(CLEAN_LINES[name]["kept"])
        assert verdicts.read_bytes() == line_bytes(CLEAN_LINES[name]["verdicts"])

    def test_stdout_output(self, tmp_path, capsys):
        src = tmp_path / "in.jsonl"
        write_jsonl(src, [clean_corpus()[0]])
        main(["clean", "-i", str(src), "-o", "-"])
        lines = capsys.readouterr().out.splitlines()
        assert json.loads(lines[0])["id"] == "a"


# ---------------------------------------------------------------------------
# exit codes

class TestExitCodes:
    def test_missing_input_is_io_failure(self, tmp_path):
        rc = main(["clean", "-i", str(tmp_path / "absent.jsonl"), "-o", "-"])
        assert rc == 2

    def test_unwritable_output_is_io_failure(self, tmp_path):
        src = tmp_path / "in.jsonl"
        write_jsonl(src, [clean_corpus()[0]])
        rc = main(["clean", "-i", str(src), "-o", str(tmp_path / "no" / "dir.jsonl")])
        assert rc == 2

    def test_invalid_config_json_is_config_error(self, tmp_path):
        src, cfg = tmp_path / "in.jsonl", tmp_path / "cfg.json"
        write_jsonl(src, [clean_corpus()[0]])
        cfg.write_text("{", encoding="utf-8")
        assert main(["clean", "-i", str(src), "-o", "-", "--config", str(cfg)]) == 1

    def test_unknown_config_key_is_config_error(self, tmp_path):
        src, cfg = tmp_path / "in.jsonl", tmp_path / "cfg.json"
        write_jsonl(src, [clean_corpus()[0]])
        cfg.write_text(json.dumps({"filter": {"bogus_knob": 1}}), encoding="utf-8")
        assert main(["clean", "-i", str(src), "-o", "-", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("text", [
        b'{"filter": {"emoji_ranges": [[1e400, 2]]}}',
        b'{"filter": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
        b'{"filter": {"\xff": 1}}',
    ], ids=["number_past_int", "too_deep", "not_utf8"])
    def test_malformed_config_is_config_error(self, tmp_path, capsys, text):
        src, cfg = tmp_path / "in.jsonl", tmp_path / "cfg.json"
        write_jsonl(src, [clean_corpus()[0]])
        cfg.write_bytes(text)
        assert main(["clean", "-i", str(src), "-o", "-", "--config", str(cfg)]) == 1
        assert "config error:" in capsys.readouterr().err

    def test_zero_workers_is_config_error(self, tmp_path):
        src = tmp_path / "in.jsonl"
        write_jsonl(src, [clean_corpus()[0]])
        assert main(["clean", "-i", str(src), "-o", "-", "--workers", "0"]) == 1

    def test_unknown_subcommand_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_missing_required_flag_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["clean"])
        assert exc.value.code == 1

    def test_subprocess_entry_point(self, tmp_path):
        src, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        write_jsonl(src, clean_corpus())
        proc = subprocess.run(
            [sys.executable, "-m", "vlprep.cli", "clean", "-i", str(src), "-o", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "kept=1" in proc.stderr
        assert [r["id"] for r in read_jsonl(out)] == ["a"]


# ---------------------------------------------------------------------------
# build-task / build-chat

class TestBuildTask:
    def test_golden_text_and_mask(self, tmp_path):
        src, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        records = [
            dict(fx["fields"], id=name, task=name)
            for name, fx in sorted(TASK_FIXTURES.items())
        ]
        write_jsonl(src, records)
        rc = main(["build-task", "-i", str(src), "-o", str(out)])
        assert rc == 0
        assert out.read_bytes() == "".join(
            TASK_LINES[name] + "\n" for name in sorted(TASK_FIXTURES)).encode("utf-8")
        rows = read_jsonl(out)
        assert [r["task"] for r in rows] == sorted(TASK_FIXTURES)
        for row in rows:
            fx = TASK_FIXTURES[row["task"]]
            assert row["text"] == fx["text"]
            ids = decode_token_ids(row["token_ids"])
            assert TOK.decode(ids) == fx["text"]
            assert row["token_len"] == len(ids)
            assert row["n_images"] == 1
            assert row["format"] == 3
            golden = TASK_TOKENS[row["task"]]
            assert {key: row[key] for key in golden} == golden
            mask = mask_from_spans(row["loss_spans"], len(ids))
            supervised = [
                tid for tid, flag in zip(ids, mask) if flag
            ]
            assert TOK.decode(supervised) == "".join(fx["supervised"])

    def test_non_canonical_regions_golden_lines(self, tmp_path):
        # Regions that parse but are not canonical take the parse-and-format
        # path; their lines are pinned byte for byte.
        assert not any(is_canonical_region_list(r["regions"]) for r in REGION_RECORDS)
        src, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        write_jsonl(src, REGION_RECORDS)
        assert main(["build-task", "-i", str(src), "-o", str(out)]) == 0
        assert out.read_bytes() == "".join(line + "\n" for line in REGION_LINES).encode("utf-8")

    def test_unknown_task_is_record_error(self, tmp_path):
        src, rpt = tmp_path / "in.jsonl", tmp_path / "report.json"
        good = dict(TASK_FIXTURES["caption"]["fields"], id="a", task="caption")
        bad = {"id": "b", "task": "poetry", "image": "x.jpg"}
        write_jsonl(src, [good, bad])
        rc = main(["build-task", "-i", str(src), "-o", "-", "--report", str(rpt)])
        assert rc == 0
        report = run_report(rpt)
        assert report["records_kept"] == 1
        assert report["errors"] == 1

    def test_missing_field_is_record_error(self, tmp_path):
        src, rpt = tmp_path / "in.jsonl", tmp_path / "report.json"
        write_jsonl(src, [{"id": "a", "task": "vqa", "image": "x.jpg"}])
        main(["build-task", "-i", str(src), "-o", "-", "--report", str(rpt)])
        assert run_report(rpt)["errors"] == 1


@given(
    sample=st.one_of(task_samples(), dialogues().map(lambda case: build_chatml(case[0]))),
    record_id=st.text(),  # quotes, backslashes, control and non-ASCII characters
    task=st.text(),
)
@settings(deadline=None)
def test_token_line_is_the_sorted_json_of_the_record(sample, record_id, task):
    ids, spans = project_mask(sample, TOK)
    record = {
        "id": record_id,
        "task": task,
        "text": sample.text,
        # The base64 of the ids as little-endian uint16, whatever the host.
        "token_ids": base64.b64encode(b"".join(i.to_bytes(2, "little") for i in ids)).decode(),
        "format": 3,
        "loss_spans": spans,
        "token_len": len(ids),
        "n_images": len(sample.images),
    }
    assert _token_line(record_id, task, sample) == json.dumps(
        record, ensure_ascii=False, sort_keys=True)


def has_surrogate(text):
    return any(0xD800 <= ord(c) <= 0xDFFF for c in text)


def dumped_token_record(record_id, task, text, token_ids, loss_spans, token_len, n_images):
    """A token record line as json.dumps writes it: the layout _token_record keeps."""
    return _dump({
        "id": record_id,
        "task": task,
        "text": text,
        "token_ids": token_ids,
        "format": 3,
        "loss_spans": loss_spans,
        "token_len": token_len,
        "n_images": n_images,
    })


def _token_record_outcome(write, token_ids, loss_spans, token_len, n_images, record):
    line = write(record["id"], record["task"], record["text"],
                 token_ids, loss_spans, token_len, n_images)
    return cli._Outcome("kept", line=line)


# Characters JSON escapes or that tend to be mishandled: quote, backslash, C0
# controls, DEL, NEL, U+2028/2029, astral characters, lone surrogates.
_ESCAPE_EDGES = '"\\\x00\x08\x1f\x7f\x85\u2028\u2029\U0001F600\U0010FFFF\ud800\udfff'
_record_strings = st.text(
    alphabet=st.one_of(st.sampled_from(_ESCAPE_EDGES), st.characters(exclude_categories=())))


@given(
    record_id=_record_strings,
    task=_record_strings,
    text=_record_strings,
    token_ids=st.binary(max_size=64).map(lambda b: base64.b64encode(b).decode("ascii")),
    loss_spans=st.lists(st.lists(st.integers(), min_size=2, max_size=2), max_size=4),
    token_len=st.integers(),
    n_images=st.integers(),
)
@example(record_id="a", task="caption", text="x\ud800y", token_ids="", loss_spans=[],
         token_len=0, n_images=0)
@example(record_id="", task="", text="\ud800\udfff", token_ids="", loss_spans=[],
         token_len=0, n_images=0)  # an escaped pair decodes to U+103FF
@settings(deadline=None)
def test_token_record_is_the_dumped_record(record_id, task, text, token_ids, loss_spans,
                                           token_len, n_images):
    fields = (token_ids, loss_spans, token_len, n_images)
    assert cli._token_record(record_id, task, text, *fields) == dumped_token_record(
        record_id, task, text, *fields)
    # Through the stage's line runner: the same kept line, or, for a lone
    # surrogate, the same error verdict naming the same position.
    line = json.dumps({"id": record_id, "task": task, "text": text}).encode("ascii")
    written, reference = (
        cli._run_line(cli._json_object, partial(_token_record_outcome, write, *fields), line)
        for write in (cli._token_record, dumped_token_record))
    assert written == reference
    # Decoded, as the runner sees it: an escaped high and low surrogate next
    # to each other decode to one astral character.
    decoded = json.loads(line)
    assert (written.status == "error") == has_surrogate(
        decoded["id"] + decoded["task"] + decoded["text"])


# ---------------------------------------------------------------------------
# clean, check-markup and pack lines without json.dumps: each writer against
# the _dump expression it replaced

def dumped_corpus_line(record, text):
    """A kept clean line as json.dumps writes it: the layout _corpus_line keeps."""
    out = record.to_json()
    out["text"] = text
    return _dump(out)


def dumped_verdict_line(record_id, verdict):
    return _dump(verdict.to_json(record_id))


def dumped_clean_one(cfg, record):
    """cli._clean_one, writing its lines with json.dumps."""
    verdict = filter_pair(record, cfg)
    if verdict.kept:
        verdict = check_special_tags(record, cfg)
    if not verdict.kept:
        return cli._Outcome("dropped", verdict.rule_id,
                            verdict=dumped_verdict_line(record.id, verdict))
    return cli._Outcome("kept", line=dumped_corpus_line(record, clean_html_text(record.text)),
                        verdict=dumped_verdict_line(record.id, verdict))


def dumped_check_markup_one(record):
    """cli._check_markup_one, writing its lines with json.dumps."""
    record_id = record["id"]
    markup = record["markup"]
    if not isinstance(markup, str):
        raise ValueError("markup must be a string")
    try:
        canonical = markup if is_canonical_markup(markup) else emit_markup(parse_markup(markup))
    except VlprepError as e:
        return cli._Outcome("dropped", "parse_error",
                            _dump({"id": record_id, "ok": False, "error": str(e)}))
    if canonical != markup:
        return cli._Outcome("dropped", "non_canonical",
                            _dump({"id": record_id, "ok": False, "canonical": canonical}))
    return cli._Outcome("kept", line=_dump({"id": record_id, "ok": True}))


def dumped_sequence_line(s):
    return _dump({"task": s.task, "sample_ids": s.sample_ids, "total_len": s.total_len})


# Scores of both JSON number types: signed zero, the smallest subnormal, floats
# whose repr switches to exponent form, and ints past float range.
_clip_scores = st.one_of(
    st.sampled_from([0, -0.0, 5e-324, 1e16, 1e22, 0.1, 10**400, -10**400]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(min_value=-10**400, max_value=10**400),
)


@st.composite
def corpus_records(draw, text=_record_strings, sides=st.integers(1, 10**400)):
    """CorpusRecords whose optional fields are absent, empty where their type
    allows (None or ""), or set."""
    fields = {"id": draw(_record_strings), "text": draw(text)}
    optional = {
        "dataset": st.sampled_from(["", "laion"]) | _record_strings,
        "image_width": st.none() | sides,
        "image_height": st.none() | sides,
        "language": st.sampled_from(LANGUAGES),
        "clip_score": st.none() | _clip_scores,
        "image_key": st.just("") | _record_strings,
        "group_key": st.sampled_from([None, ""]) | _record_strings,
    }
    for name, values in optional.items():
        if draw(st.booleans()):
            fields[name] = draw(values)
    return CorpusRecord(**fields)


def _keep_outcome(write_line, write_verdict, record):
    return cli._Outcome("kept", line=write_line(record, record.text),
                        verdict=write_verdict(record.id, FilterVerdict(KEEP)))


@given(record=corpus_records(), text=_record_strings)
@example(record=CorpusRecord(id="a", text="b", clip_score=-0.0), text="c")
@example(record=CorpusRecord(id="a", text="b", clip_score=10**400, dataset="", group_key=""),
         text="c")
@example(record=CorpusRecord(id="\ud800\udfff", text="\udfff"), text="")
@settings(deadline=None)
def test_corpus_line_is_the_dumped_record(record, text):
    assert cli._corpus_line(record, text) == dumped_corpus_line(record, text)
    # Through the stage's line runner: the same kept line and verdict, or, for
    # a lone surrogate in any field, the same error verdict.
    line = json.dumps(record.to_json()).encode("ascii")
    written, reference = (
        cli._run_line(cli._corpus_record, partial(_keep_outcome, *writers), line)
        for writers in ((cli._corpus_line, cli._verdict_line),
                        (dumped_corpus_line, dumped_verdict_line)))
    assert written == reference
    assert (written.status == "error") == has_surrogate(
        json.dumps(json.loads(line), ensure_ascii=False))


@given(record_id=_record_strings, rule_id=_record_strings, detail=_record_strings,
       tag=_record_strings.filter(bool))  # FilterConfig refuses an empty tag
@settings(deadline=None)
def test_verdict_line_is_the_dumped_verdict(record_id, rule_id, detail, tag):
    tagged = check_special_tags(CorpusRecord(id=record_id, text=f"a{tag}b"),
                                FilterConfig(special_tags=(tag,)))
    assert tagged.rule_id == "T_special_tag"
    for verdict in (FilterVerdict(KEEP), FilterVerdict(DROP, rule_id, detail), tagged):
        assert cli._verdict_line(record_id, verdict) == dumped_verdict_line(record_id, verdict)


# Captions that pass, or break, each rule of _CLEAN_RULES.
_captions = st.lists(st.one_of(
    st.sampled_from('ab "\\\t\n<>&;/\x00\x7f\u2028\U0001F600\ud800é中'),
    st.sampled_from(["<b>", "&amp;", "<PERSON>", "stock"]),
), max_size=12).map("".join)
_CLEAN_RULES = FilterConfig(clip_thresholds={"laion": 0.3}, min_chars=2, max_chars=20,
                            banned_patterns=("ab*ba",))


@given(record=corpus_records(text=_captions), width=st.sampled_from([512, 640, 2000, 100]),
       height=st.sampled_from([512, 640, 2000, 100]))
@settings(deadline=None)
def test_clean_one_writes_the_dumped_lines(record, width, height):
    record = dataclasses.replace(record, image_width=width, image_height=height)
    line = json.dumps(record.to_json()).encode("ascii")
    written, reference = (
        cli._run_line(cli._corpus_record, partial(one, _CLEAN_RULES), line)
        for one in (cli._clean_one, dumped_clean_one))
    assert written == reference


_MARKUP_FORMS = [m["markup"] for m in MARKUP_RECORDS[:3]]  # kept, non-canonical, parse error
_json_scalars = (st.none() | st.booleans() | st.integers() | _record_strings
                 | st.floats(allow_nan=False, allow_infinity=False))
_json_values = _json_scalars | st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_record_strings, inner, max_size=3),
    max_leaves=6,
)


@given(record_id=_record_strings, text=_record_strings)
def test_markup_line_is_the_dumped_line(record_id, text):
    assert cli._markup_line(record_id, None) == _dump({"id": record_id, "ok": True})
    for key in ("error", "canonical"):
        assert cli._markup_line(record_id, (key, text)) == _dump(
            {"id": record_id, "ok": False, key: text})


@given(record_id=_json_values, markup=st.sampled_from(_MARKUP_FORMS))
@settings(deadline=None)
def test_check_markup_one_writes_the_dumped_lines(record_id, markup):
    # Ids of every JSON type, through the stage's line runner: a lone
    # surrogate anywhere in the id gives the same error verdict.
    line = json.dumps({"id": record_id, "markup": markup}).encode("ascii")
    written, reference = (cli._run_line(cli._json_object, one, line)
                          for one in (cli._check_markup_one, dumped_check_markup_one))
    assert written == reference
    assert (written.status == "error") == has_surrogate(
        json.dumps(json.loads(line)["id"], ensure_ascii=False))


def test_markup_id_nested_near_the_recursion_limit_fails_where_it_did():
    # A non-string id is dumped at the call depth it always had, so around the
    # recursion limit the same ids are kept or become error verdicts.
    statuses = set()
    limit = sys.getrecursionlimit()
    for depth in range(limit - 200, limit + 1):
        line = json.dumps({"id": 0, "markup": _MARKUP_FORMS[0]}).replace(
            "0", "[" * depth + "]" * depth, 1).encode("ascii")
        written, reference = (cli._run_line(cli._json_object, one, line)
                              for one in (cli._check_markup_one, dumped_check_markup_one))
        assert written == reference
        statuses.add(written.status)
    assert statuses == {"kept", "error"}


# The canonical prefix ends at the spaced box, but the box continues the run of
# the last canonical ref, so parsing must start at that ref, not at the box.
@example("x <ref>a</ref><box>(1,2),(3,4)</box> y "
         "<ref>b</ref><box>(1,2),(3,4)</box><box>(5, 6),(7,8)</box>")
# An unordered box early in the prefix: the whole parse raises it first.
@example("<ref>a</ref><box>(5,2),(3,4)</box> <ref>b</ref><box>(1,2),(3,4)</box> "
         "<ref>c</ref><box>(1, 2),(3,4)</box>")
@given(markup=defective_markup())
@settings(max_examples=200, deadline=None)
def test_check_markup_line_is_the_whole_parse_line(markup):
    record = {"id": "d", "markup": markup}
    assert cli._check_markup_one(record) == dumped_check_markup_one(record)


@given(records=st.lists(st.fixed_dictionaries({
    "id": _record_strings,
    "task": st.sampled_from(["caption", "vqa"]) | _record_strings,
    "token_len": st.integers(1, 700),
    "n_images": st.integers(0, 2),
}), max_size=8))
@settings(deadline=None)
def test_sequence_lines_are_the_dumped_sequences(records):
    cfg = PackerConfig(max_len=1024)
    lines = [json.dumps(r).encode("ascii") for r in records]
    outcomes = [cli._run_line(cli._sample, partial(cli._pack_one, cfg), line) for line in lines]
    for line, outcome in zip(lines, outcomes):
        decoded = json.loads(line)
        assert (outcome.status == "error") == has_surrogate(decoded["id"] + decoded["task"])
    samples = [o.value for o in outcomes if o.status == "kept"]
    sequences, _ = pack(samples, cfg)
    assert list(cli._finish_pack(cfg, samples, RunReport("pack"))) == [
        dumped_sequence_line(s) for s in sequences]


@given(task=_record_strings, sample_ids=st.lists(_record_strings, max_size=4),
       total_len=st.integers())
def test_sequence_line_is_the_dumped_sequence(task, sample_ids, total_len):
    seq = PackedSequence(task, sample_ids, total_len)
    assert cli._sequence_line(seq) == dumped_sequence_line(seq)


class TestBuildChat:
    def test_golden_dialogue(self, tmp_path):
        src, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        turns = [
            {"role": role, "content": content, "images": images}
            for role, content, images in CHATML_TURNS
        ]
        write_jsonl(src, [{"id": "dlg", "turns": turns}])
        rc = main(["build-chat", "-i", str(src), "-o", str(out)])
        assert rc == 0
        assert out.read_bytes() == (CHATML_LINE + "\n").encode("utf-8")
        (row,) = read_jsonl(out)
        assert row["text"] == CHATML_TEXT
        assert row["n_images"] == 1
        assert row["format"] == 3
        assert {key: row[key] for key in CHATML_TOKENS} == CHATML_TOKENS
        ids = decode_token_ids(row["token_ids"])
        mask = mask_from_spans(row["loss_spans"], len(ids))
        supervised = [
            tid for tid, flag in zip(ids, mask) if flag
        ]
        assert TOK.decode(supervised) == "".join(CHATML_SUPERVISED)

    def test_bad_role_is_record_error(self, tmp_path):
        src, rpt = tmp_path / "in.jsonl", tmp_path / "report.json"
        write_jsonl(src, [{"id": "d", "turns": [{"role": "narrator", "content": "hi"}]}])
        rc = main(["build-chat", "-i", str(src), "-o", "-", "--report", str(rpt)])
        assert rc == 0
        assert run_report(rpt)["errors"] == 1

    def test_empty_input_writes_nothing(self, tmp_path):
        src, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        src.write_text("", encoding="utf-8")
        assert main(["build-chat", "-i", str(src), "-o", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == ""


# ---------------------------------------------------------------------------
# pack / stats

class TestPackStats:
    def test_pack_groups_and_drops(self, tmp_path):
        src, out, rpt = tmp_path / "in.jsonl", tmp_path / "seq.jsonl", tmp_path / "r.json"
        write_jsonl(src, [
            {"id": "a", "task": "caption", "token_len": 1000},
            {"id": "b", "task": "caption", "token_len": 1000},
            {"id": "c", "task": "caption", "token_len": 100},
            {"id": "d", "task": "vqa", "token_len": 64, "n_images": 1},
            {"id": "e", "task": "vqa", "token_len": 3000},
        ])
        rc = main(["pack", "-i", str(src), "-o", str(out), "--report", str(rpt)])
        assert rc == 0
        rows = read_jsonl(out)
        assert [r["sample_ids"] for r in rows] == [["a", "b"], ["c"], ["d"]]
        assert rows[0]["total_len"] == 2000
        assert rows[2]["total_len"] == 64 + 258
        report = run_report(rpt)
        assert report["drops"] == {"oversize": 1}
        assert report["records_kept"] == 4
        assert report["sequences_out"] == 3

    def test_golden_pack_lines(self, tmp_path):
        src, out, cfg = tmp_path / "in.jsonl", tmp_path / "seq.jsonl", tmp_path / "cfg.json"
        write_jsonl(src, PACK_RECORDS)
        cfg.write_text(json.dumps(PACK_CONFIG), encoding="utf-8")
        assert main(["pack", "-i", str(src), "-o", str(out), "--config", str(cfg)]) == 0
        assert out.read_bytes() == line_bytes(PACK_LINES)

    def test_pack_respects_config(self, tmp_path):
        src, out, cfg = tmp_path / "in.jsonl", tmp_path / "seq.jsonl", tmp_path / "cfg.json"
        write_jsonl(src, [
            {"id": "a", "task": "caption", "token_len": 300},
            {"id": "b", "task": "caption", "token_len": 300},
        ])
        cfg.write_text(json.dumps({"packer": {"max_len": 512}}), encoding="utf-8")
        main(["pack", "-i", str(src), "-o", str(out), "--config", str(cfg)])
        assert [r["sample_ids"] for r in read_jsonl(out)] == [["a"], ["b"]]

    @pytest.mark.parametrize("bad", [
        {"id": "x", "task": ["caption"], "token_len": 5},
        {"id": "x", "task": {"k": 1}, "token_len": 5},
        {"id": ["x"], "task": "caption", "token_len": 5},
        {"id": 7, "task": "caption", "token_len": 5},
        {"id": "x", "task": "caption", "token_len": True},
        {"id": "x", "task": "caption", "token_len": 2.5},
        {"id": "x", "task": "caption", "token_len": 5, "n_images": True},
        {"id": "x", "task": "caption", "token_len": 5, "n_images": 1.0},
    ])
    def test_pack_wrongly_typed_fields_are_record_errors(self, tmp_path, bad):
        src, out, rpt = tmp_path / "in.jsonl", tmp_path / "seq.jsonl", tmp_path / "r.json"
        write_jsonl(src, [bad, {"id": "ok", "task": "caption", "token_len": 4}])
        rc = main(["pack", "-i", str(src), "-o", str(out), "--report", str(rpt)])
        assert rc == 0
        report = run_report(rpt)
        assert (report["records_in"], report["records_kept"], report["errors"]) == (2, 1, 1)
        assert read_jsonl(out) == [{"task": "caption", "sample_ids": ["ok"], "total_len": 4}]

    @pytest.mark.parametrize("bad", [
        {"task": "caption", "sample_ids": ["a"], "total_len": "5"},
        {"task": "caption", "sample_ids": ["a"], "total_len": True},
        {"task": "caption", "sample_ids": ["a"], "total_len": 2.5},
        {"task": "caption", "sample_ids": "ab", "total_len": 5},
        {"task": "caption", "sample_ids": [1], "total_len": 5},
        {"task": 7, "sample_ids": ["a"], "total_len": 5},
        {"task": ["caption"], "sample_ids": ["a"], "total_len": 5},
    ])
    def test_stats_wrongly_typed_fields_are_record_errors(self, tmp_path, bad):
        src, out, rpt = tmp_path / "seq.jsonl", tmp_path / "stats.json", tmp_path / "r.json"
        write_jsonl(src, [bad, {"task": "caption", "sample_ids": ["ok"], "total_len": 1024}])
        rc = main(["stats", "-i", str(src), "-o", str(out), "--report", str(rpt)])
        assert rc == 0
        report = run_report(rpt)
        assert (report["records_in"], report["records_kept"], report["errors"]) == (2, 1, 1)
        (usage,) = read_jsonl(out)
        assert (usage["n_samples"], usage["total_tokens"]) == (1, 1024)

    def test_pack_reads_token_record_formats_1_to_3_only(self, tmp_path):
        src, out, rpt = tmp_path / "in.jsonl", tmp_path / "seq.jsonl", tmp_path / "r.json"
        records = [{"id": "absent", "task": "caption", "token_len": 4}]
        for label, record_format in [("1", 1), ("2", 2), ("3", 3), ("4", 4), ("string", "2"),
                                     ("true", True), ("float", 2.0), ("null", None)]:
            records.append({"id": label, "task": "caption", "token_len": 4,
                            "format": record_format})
        write_jsonl(src, records)
        assert '"format": 2.0' in src.read_text(encoding="utf-8")
        rc = main(["pack", "-i", str(src), "-o", str(out), "--report", str(rpt)])
        assert rc == 0
        report = run_report(rpt)
        assert (report["records_in"], report["records_kept"], report["errors"]) == (9, 4, 5)
        assert [r["sample_ids"] for r in read_jsonl(out)] == [["absent", "1", "2", "3"]]

    def test_pack_writes_the_same_bytes_from_format_1_2_and_3_records(self, tmp_path):
        src, v3 = tmp_path / "in.jsonl", tmp_path / "v3.jsonl"
        write_jsonl(src, [
            dict(fx["fields"], id=name, task=name)
            for name, fx in sorted(TASK_FIXTURES.items())
        ])
        assert main(["build-task", "-i", str(src), "-o", str(v3)]) == 0
        v2_records = [dict(row, format=2, token_ids=decode_token_ids(row["token_ids"]))
                      for row in read_jsonl(v3)]
        v1_records = []
        for row in v2_records:
            row = dict(row)
            mask = mask_from_spans(row.pop("loss_spans"), row["token_len"])
            del row["format"]
            v1_records.append(dict(row, loss_mask=mask))
        write_jsonl(tmp_path / "v2.jsonl", v2_records)
        write_jsonl(tmp_path / "v1.jsonl", v1_records)
        packed = {}
        for name in ("v1", "v2", "v3"):
            seq = tmp_path / f"seq_{name}.jsonl"
            assert main(["pack", "-i", str(tmp_path / f"{name}.jsonl"), "-o", str(seq)]) == 0
            packed[name] = seq.read_bytes()
        assert len(read_jsonl(tmp_path / "seq_v3.jsonl")) == len(TASK_FIXTURES)
        assert packed["v1"] == packed["v2"] == packed["v3"]

    def test_stats_roundtrip(self, tmp_path):
        src, seq, out = tmp_path / "in.jsonl", tmp_path / "seq.jsonl", tmp_path / "stats.json"
        write_jsonl(src, [
            {"id": "a", "task": "caption", "token_len": 1024},
            {"id": "b", "task": "caption", "token_len": 1024},
        ])
        main(["pack", "-i", str(src), "-o", str(seq)])
        rc = main(["stats", "-i", str(seq), "-o", str(out)])
        assert rc == 0
        (usage,) = read_jsonl(out)
        assert usage["n_sequences"] == 1
        assert usage["n_samples"] == 2
        assert usage["fill_ratio"] == 1.0

    def test_build_then_pack_chain(self, tmp_path):
        """Lengths flowing out of build-task are valid pack input as-is."""
        built, seq = tmp_path / "built.jsonl", tmp_path / "seq.jsonl"
        src = tmp_path / "in.jsonl"
        records = [
            dict(fx["fields"], id=name, task=name)
            for name, fx in sorted(TASK_FIXTURES.items())
        ]
        write_jsonl(src, records)
        main(["build-task", "-i", str(src), "-o", str(built)])
        rc = main(["pack", "-i", str(built), "-o", str(seq)])
        assert rc == 0
        packed_ids = [sid for r in read_jsonl(seq) for sid in r["sample_ids"]]
        assert sorted(packed_ids) == sorted(TASK_FIXTURES)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_line_separators_inside_captions_do_not_split_records(self, tmp_path, newline):
        """U+2028 and U+0085 are written raw by every stage; only "\n" ends a record."""
        src, kept, tasks = tmp_path / "in.jsonl", tmp_path / "kept.jsonl", tmp_path / "tasks.jsonl"
        built, seq, cfg = tmp_path / "built.jsonl", tmp_path / "seq.jsonl", tmp_path / "cfg.json"
        base = {"image_width": 512, "image_height": 512, "language": "en"}
        records = [
            dict(base, id="nel", text="Two cats\u0085asleep on a sofa."),
            dict(base, id="lsep", text="A dog\u2028on the lawn."),  # outside allowed scripts
            dict(base, id="plain", text="A red car parked outside."),
        ]
        src.write_text(
            "".join(json.dumps(r, ensure_ascii=False) + newline for r in records),
            encoding="utf-8",
        )
        cfg.write_text(json.dumps(
            {"filter": {"allowed_scripts": ["latin_basic", "latin_supplement"]}}
        ), encoding="utf-8")
        rpt = [tmp_path / f"r{i}.json" for i in range(3)]
        assert main(["clean", "-i", str(src), "-o", str(kept), "--config", str(cfg),
                     "--report", str(rpt[0])]) == 0
        report = run_report(rpt[0])
        assert (report["records_in"], report["records_kept"], report["errors"]) == (3, 2, 0)
        assert report["drops"] == {"R4_script": 1}

        kept_records = [json.loads(line) for line in
                        kept.read_text(encoding="utf-8").split("\n") if line]
        assert [r["id"] for r in kept_records] == ["nel", "plain"]
        task_records = [
            {"id": r["id"], "task": "caption", "image": f"{r['id']}.jpg", "caption": r["text"]}
            for r in kept_records
        ] + [{"id": "lsep", "task": "caption", "image": "lsep.jpg",
              "caption": "A dog\u2028on the lawn."}]
        tasks.write_text(
            "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in task_records),
            encoding="utf-8",
        )
        assert main(["build-task", "-i", str(tasks), "-o", str(built),
                     "--report", str(rpt[1])]) == 0
        report = run_report(rpt[1])
        assert (report["records_in"], report["records_kept"], report["errors"]) == (3, 3, 0)
        assert "\u2028" in built.read_text(encoding="utf-8")

        assert main(["pack", "-i", str(built), "-o", str(seq), "--report", str(rpt[2])]) == 0
        report = run_report(rpt[2])
        assert (report["records_in"], report["records_kept"], report["errors"]) == (3, 3, 0)
        packed_ids = [sid for r in read_jsonl(seq) for sid in r["sample_ids"]]
        assert packed_ids == ["nel", "plain", "lsep"]


# ---------------------------------------------------------------------------
# check-markup

class TestCheckMarkup:
    def test_kept_dropped_and_errors(self, tmp_path):
        src, out, rpt = tmp_path / "in.jsonl", tmp_path / "out.jsonl", tmp_path / "r.json"
        write_jsonl(src, [
            {"id": "ok", "markup": "<ref>a cat</ref><box>(1,2),(3,4)</box>"},
            {"id": "loose", "markup": "<ref>a cat</ref><quad>(1,2),(3,4),(5,6),(7,8)</quad>"},
            {"id": "broken", "markup": "<ref>a cat</ref><box>(1,2)</box>"},
            {"id": "bad", "markup": 7},
        ])
        rc = main(["check-markup", "-i", str(src), "-o", str(out), "--report", str(rpt)])
        assert rc == 0
        report = run_report(rpt)
        assert report["records_kept"] == 1
        assert report["drops"] == {"non_canonical": 1, "parse_error": 1}
        assert report["errors"] == 1
        rows = read_jsonl(out)
        assert [r["ok"] for r in rows] == [True, False, False]
        assert rows[1]["canonical"] == (
            "<ref>a cat</ref><quad>(1,2), (3,4), (5,6), (7,8)</quad>"
        )

    def test_golden_lines(self, tmp_path):
        src, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        write_jsonl(src, MARKUP_RECORDS)
        assert main(["check-markup", "-i", str(src), "-o", str(out)]) == 0
        assert out.read_bytes() == line_bytes(MARKUP_LINES)

    def test_accepted_forms_come_back_canonical(self, tmp_path):
        src, out, rpt = tmp_path / "in.jsonl", tmp_path / "out.jsonl", tmp_path / "r.json"
        forms = [
            "<ref>a</ref><box>(\u0661,2),(3,4)</box>",      # Arabic-Indic digit one
            "<ref>a</ref><box>(\uff15,6),(7,8)</box>",      # fullwidth digit five
            "<ref>a</ref><box>(-0,02),(003,4)</box>",
            "<ref>a</ref><box>(1,\t2),\n(3,\u30004)</box>",
        ]
        write_jsonl(src, [{"id": str(i), "markup": m} for i, m in enumerate(forms)])
        rc = main(["check-markup", "-i", str(src), "-o", str(out), "--report", str(rpt)])
        assert rc == 0
        assert run_report(rpt)["drops"] == {"non_canonical": 4}
        assert [r["canonical"] for r in read_jsonl(out)] == [
            "<ref>a</ref><box>(1,2),(3,4)</box>",
            "<ref>a</ref><box>(5,6),(7,8)</box>",
            "<ref>a</ref><box>(0,2),(3,4)</box>",
            "<ref>a</ref><box>(1,2),(3,4)</box>",
        ]

    def test_non_finite_id_is_error(self, tmp_path):
        # json.loads takes NaN, Infinity and 1e400 (an infinity), but none is
        # JSON: such an id would make the output line unreadable to a strict reader.
        src, out, rpt = tmp_path / "in.jsonl", tmp_path / "out.jsonl", tmp_path / "r.json"
        markup = '"markup": "<ref>a</ref><box>(1,2),(3,4)</box>"'
        src.write_text("".join(f'{{"id": {record_id}, {markup}}}\n' for record_id in
                               ("NaN", "1e400", "[1, Infinity]", "1.5", '"ok"')),
                       encoding="utf-8")
        rc = main(["check-markup", "-i", str(src), "-o", str(out), "--report", str(rpt)])
        assert rc == 0
        report = run_report(rpt)
        assert (report["records_in"], report["records_kept"], report["errors"]) == (5, 2, 3)

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        lines = out.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line, parse_constant=refuse)["id"] for line in lines] == [1.5, "ok"]

    def test_huge_coordinate_is_parse_error(self, tmp_path):
        src, out, rpt = tmp_path / "in.jsonl", tmp_path / "out.jsonl", tmp_path / "r.json"
        huge = "9" * 5000
        write_jsonl(src, [
            {"id": "huge", "markup": f"<ref>a</ref><box>({huge},2),(3,4)</box>"},
            {"id": "ok", "markup": "<ref>a cat</ref><box>(1,2),(3,4)</box>"},
        ])
        rc = main(["check-markup", "-i", str(src), "-o", str(out), "--report", str(rpt)])
        assert rc == 0
        report = run_report(rpt)
        assert report["records_kept"] == 1
        assert report["drops"] == {"parse_error": 1}
        assert report["errors"] == 0
        assert [r["id"] for r in read_jsonl(out)] == ["huge", "ok"]


MIXED_MARKUP_RECORDS = {
    "check-markup": [{"id": f"m{i}", "markup": v} for i, v in enumerate(MIXED_MARKUP)],
    "build-task": [{"id": f"{task}{i}", "task": task, "image": "x.jpg", key: v}
                   for task, key in (("caption_grounded", "caption"), ("ocr", "text"))
                   for i, v in enumerate(MIXED_MARKUP)],
}


@pytest.mark.parametrize("command", sorted(MIXED_MARKUP_RECORDS))
def test_canonical_markup_fast_path_writes_the_round_trip_bytes(tmp_path, monkeypatch, command):
    src = tmp_path / "in.jsonl"
    write_jsonl(src, MIXED_MARKUP_RECORDS[command])

    def run(name):
        out, rpt = tmp_path / f"{name}.jsonl", tmp_path / f"{name}.json"
        assert main([command, "-i", str(src), "-o", str(out), "--report", str(rpt)]) == 0
        report = run_report(rpt)
        del report["wall_time_s"]
        return out.read_bytes(), report

    fast = run("fast")
    # No canonical prefix: the slow run parses every string whole.
    monkeypatch.setattr(cli, "canonical_prefix", lambda s: 0)
    monkeypatch.setattr(chat, "canonical_prefix", lambda s: 0)
    slow = run("slow")
    assert fast == slow
    report = slow[1]
    assert report["records_kept"] and report["errors"]
    if command == "check-markup":
        assert set(report["drops"]) == {"non_canonical", "parse_error"}


# ---------------------------------------------------------------------------
# every data command: malformed input at the line and output boundary

# One well-formed record per data command; each is kept.
GOOD_RECORDS = {
    "clean": clean_corpus()[0],
    "build-task": dict(TASK_FIXTURES["caption"]["fields"], id="t", task="caption"),
    "build-chat": {"id": "d", "turns": [{"role": "user", "content": "Hi."},
                                        {"role": "assistant", "content": "Hello."}]},
    "check-markup": {"id": "m", "markup": "<ref>a cat</ref><box>(1,2),(3,4)</box>"},
    "pack": {"id": "s", "task": "caption", "token_len": 4},
    "stats": {"task": "caption", "sample_ids": ["s"], "total_len": 4},
}
DATA_COMMANDS = sorted(GOOD_RECORDS)


def strict_jsonl(text):
    """Parse JSON Lines as strict JSON: NaN and Infinity are not JSON."""
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return [json.loads(line, parse_constant=reject) for line in text.split("\n") if line]


def run_lines(tmp_path, command, lines):
    """Run ``command`` over raw input lines; return its report and output rows.

    Every file it writes must be UTF-8 JSON Lines of objects.
    """
    src, rpt = tmp_path / "in.jsonl", tmp_path / "report.json"
    src.write_bytes(b"".join(line + b"\n" for line in lines))
    outputs = {"out": tmp_path / "out.jsonl"}
    argv = [command, "-i", str(src), "-o", str(outputs["out"]), "--report", str(rpt)]
    if command == "clean":
        outputs["verdicts"] = tmp_path / "verdicts.jsonl"
        argv += ["--verdicts", str(outputs["verdicts"])]
    assert main(argv) == 0
    rows = {name: strict_jsonl(path.read_bytes().decode("utf-8"))
            for name, path in outputs.items()}
    for name, file_rows in rows.items():
        assert all(isinstance(row, dict) for row in file_rows), name
    return run_report(rpt), rows


def good_line(command):
    return json.dumps(GOOD_RECORDS[command]).encode("utf-8")


@pytest.mark.parametrize("command", DATA_COMMANDS)
def test_too_deep_nesting_is_record_error(tmp_path, command):
    deep = b"[" * 100_000 + b"]" * 100_000
    report, _ = run_lines(tmp_path, command, [good_line(command), deep, good_line(command)])
    assert (report["records_in"], report["records_kept"], report["errors"]) == (3, 2, 1)


@pytest.mark.parametrize("command", DATA_COMMANDS)
def test_invalid_utf8_is_record_error(tmp_path, command):
    good = good_line(command)
    bad = good.replace(b'": "', b'": "\xff', 1)  # a stray byte in the first string
    report, rows = run_lines(tmp_path, command, [good, bad, good])
    assert (report["records_in"], report["records_kept"], report["errors"]) == (3, 2, 1)
    if command == "clean":
        assert [r["decision"] for r in rows["verdicts"]] == ["keep", "error", "keep"]


@pytest.mark.parametrize("command, key", [
    ("clean", "id"), ("clean", "dataset"), ("build-task", "id"), ("build-chat", "id"),
    ("check-markup", "id"), ("pack", "id"), ("pack", "task"), ("stats", "task"),
])
def test_lone_surrogate_bound_for_output_is_record_error(tmp_path, command, key):
    bad = dict(GOOD_RECORDS[command])
    bad[key] = bad.get(key, "x") + "\ud800"
    lines = [good_line(command), json.dumps(bad).encode("utf-8"), good_line(command)]
    report, rows = run_lines(tmp_path, command, lines)
    assert (report["records_in"], report["records_kept"], report["errors"]) == (3, 2, 1)
    if command == "clean":
        assert rows["verdicts"][1]["decision"] == "error"


@pytest.mark.parametrize("command", DATA_COMMANDS)
def test_zero_workers_is_config_error_in_every_data_command(tmp_path, command):
    src = tmp_path / "in.jsonl"
    write_jsonl(src, [GOOD_RECORDS[command]])
    assert main([command, "-i", str(src), "-o", "-", "--workers", "0"]) == 1


@pytest.mark.parametrize("command", ["build-task", "build-chat"])
def test_build_with_non_string_id_is_record_error(tmp_path, command):
    bad = dict(GOOD_RECORDS[command], id=7)
    report, _ = run_lines(tmp_path, command, [json.dumps(bad).encode("utf-8"),
                                                 good_line(command)])
    assert (report["records_kept"], report["errors"]) == (1, 1)


_BOX = "<box>(1,2),(3,4)</box>"
_WRONGLY_TYPED = [
    ("build-task", {"task": "caption", "image": ["x.jpg"], "caption": "A cat."}),
    ("build-task", {"task": "caption", "image": 7, "caption": "A cat."}),
    ("build-task", {"task": "vqa", "image": "x.jpg", "question": ["Q?"], "answer": "A."}),
    ("build-task", {"task": "ref_grounding", "image": "x.jpg", "phrase": ["the", "dog"],
                    "regions": _BOX}),
    ("build-task", {"task": "grounded_caption", "image": "x.jpg", "phrase": {"k": 1},
                    "regions": _BOX, "description": "a dog"}),
    ("build-chat", {"turns": [{"role": "user", "content": "Hi.", "images": "a.jpg"},
                              {"role": "assistant", "content": "Hello."}]}),
    ("build-chat", {"turns": [{"role": "user", "content": "Hi.", "images": [5, None]},
                              {"role": "assistant", "content": "Hello."}]}),
    # An empty list where markup belongs would render no markup at all.
    ("build-task", {"task": "caption_grounded", "image": "a.jpg", "caption": []}),
    ("build-task", {"task": "ocr", "image": "a.jpg", "text": []}),
    ("build-task", {"task": "ref_grounding", "image": "a.jpg", "phrase": "p", "regions": []}),
]


def _one_bad_record(tmp_path, command, bad):
    """Run a good record, ``bad`` and a good record; ``bad`` must be an error."""
    lines = [good_line(command), json.dumps(dict(bad, id="bad")).encode("utf-8"),
             good_line(command)]
    report, rows = run_lines(tmp_path, command, lines)
    assert (report["records_in"], report["records_kept"], report["errors"]) == (3, 2, 1)
    assert "bad" not in [row["id"] for row in rows["out"]]


@pytest.mark.parametrize("command, bad", _WRONGLY_TYPED)
def test_wrongly_typed_template_field_is_record_error(tmp_path, command, bad):
    _one_bad_record(tmp_path, command, bad)


def _chat(user="Hi.", images=(), assistant="Hello."):
    return {"turns": [{"role": "user", "content": user, "images": list(images)},
                      {"role": "assistant", "content": assistant}]}


_RESERVED_IN_CALLER_TEXT = [
    ("build-task", {"task": "caption", "image": "x.jpg",
                    "caption": "A <img>y.jpg</img> photo <eos> ok"}),
    ("build-task", {"task": "caption", "image": "x.jpg", "caption": "one <eos> two"}),
    ("build-task", {"task": "caption", "image": "a</img><img>b", "caption": "A cat."}),
    ("build-task", {"task": "vqa", "image": "x.jpg", "question": "<|im_start|>user",
                    "answer": "A."}),
    ("build-task", {"task": "ocr_vqa", "image": "x.jpg", "question": "Q?",
                    "answer": "A.<|im_end|>"}),
    ("build-task", {"task": "ref_grounding", "image": "x.jpg", "phrase": "a <eos>",
                    "regions": _BOX}),
    ("build-task", {"task": "grounded_caption", "image": "x.jpg", "phrase": "a dog",
                    "regions": _BOX, "description": "<img>z.jpg</img>"}),
    ("build-task", {"task": "caption_grounded", "image": "x.jpg",
                    "caption": "A <ref>dog<eos></ref>" + _BOX}),
    ("build-task", {"task": "ocr", "image": "x.jpg", "text": "<img>" + "<ref>a</ref>" + _BOX}),
    ("build-chat", _chat(user="Look: <img>x.jpg</img>")),
    ("build-chat", _chat(assistant="Done.<|im_end|>\n<|im_start|>user\nMore")),
    ("build-chat", _chat(assistant="A cat. <eos>")),
    ("build-chat", _chat(images=["x.jpg</img>"])),
    # A grounding tag in an image ref would be its token id inside <img>...</img>.
    ("build-task", {"task": "caption", "image": "x<ref>y.jpg", "caption": "A cat."}),
    ("build-task", {"task": "vqa", "image": "x</quad>.jpg", "question": "Q?",
                    "answer": "A."}),
    ("build-chat", _chat(images=["p<box>q.jpg"])),
    ("build-chat", _chat(images=["a.jpg", "b</ref>.jpg"])),
]


@pytest.mark.parametrize("command, bad", _RESERVED_IN_CALLER_TEXT)
def test_reserved_literal_in_caller_text_is_record_error(tmp_path, command, bad):
    _one_bad_record(tmp_path, command, bad)


def test_grounding_tags_stay_allowed_in_chat_content(tmp_path):
    record = dict(_chat(assistant="It is <ref>a dog</ref>" + _BOX + "."), id="g")
    report, rows = run_lines(tmp_path, "build-chat", [json.dumps(record).encode("utf-8")])
    assert (report["records_kept"], report["errors"]) == (1, 0)
    assert TOK.token_id("<ref>") in decode_token_ids(rows["out"][0]["token_ids"])


def test_token_id_past_uint16_is_record_error(tmp_path, monkeypatch):
    class WideTokenizer:  # every character one id above 65535
        def encode(self, text):
            return [0x10000 + ord(c) for c in text]

        def decode(self, ids):
            return "".join(chr(i - 0x10000) for i in ids)

    monkeypatch.setattr(cli, "_TOKENIZER", WideTokenizer())
    report, rows = run_lines(tmp_path, "build-task", [good_line("build-task")])
    assert (report["records_in"], report["records_kept"], report["errors"]) == (1, 0, 1)
    assert rows["out"] == []


@pytest.mark.parametrize("total_len", [-1, 2049, 10**400],
                         ids=["negative", "past_max_len", "past_float_range"])
def test_stats_total_len_outside_budget_is_record_error(tmp_path, total_len):
    bad = dict(GOOD_RECORDS["stats"], total_len=total_len)
    report, rows = run_lines(tmp_path, "stats", [json.dumps(bad).encode("utf-8"),
                                                 good_line("stats")])
    assert (report["records_kept"], report["errors"]) == (1, 1)
    assert rows["out"][0]["total_tokens"] == 4


def test_huge_image_dimension_is_record_error(tmp_path):
    bad = dict(GOOD_RECORDS["clean"], image_width=10**400)
    report, rows = run_lines(tmp_path, "clean", [json.dumps(bad).encode("utf-8"),
                                                 good_line("clean")])
    assert (report["records_kept"], report["errors"]) == (1, 1)
    assert [r["decision"] for r in rows["verdicts"]] == ["error", "keep"]


# Hostile field values: huge and non-finite numbers, bools, nulls, nested
# containers, and strings with lone surrogates, line separators and tags.
_hostile_text = st.lists(
    st.sampled_from(["a", " ", "<", "/", "\ud800", "\udcff", "\u2028", "\x85",
                     "\xe9", "\U0001F600", "<ref>", "</ref>", "<box>", "(1,2)",
                     "<img>", "</img>", "<eos>", "<|im_end|>"]),
    max_size=6,
).map("".join)
_hostile_scalar = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3000),
    st.sampled_from([2**64, -(2**63), 10**400]),
    st.floats(allow_nan=True, allow_infinity=True), _hostile_text,
)
_hostile_value = st.recursive(
    _hostile_scalar,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(_hostile_text, kids, max_size=3),
    max_leaves=6,
)
_TURN = st.fixed_dictionaries(
    {}, optional={"role": st.sampled_from(["user", "assistant"]) | _hostile_value,
                  "content": st.sampled_from(["Hi.", "A cat."]) | _hostile_value,
                  "images": st.just(["a.jpg"]) | _hostile_value})
# Plausible values per field, so that generated records are often kept.
_PLAUSIBLE = {
    "id": st.sampled_from(["a", "b\u2028c"]),
    "text": st.sampled_from(["A small dog on the lawn.", "Two cats\u0085asleep."]),
    "dataset": st.sampled_from(["", "laion"]),
    "image_width": st.sampled_from([512, 96]),
    "image_height": st.sampled_from([512, 4096]),
    "language": st.just("en"),
    "clip_score": st.sampled_from([0.5, 0.1]),
    "image_key": st.just("img/1.jpg"),
    "group_key": st.none(),
    "task": st.sampled_from(["caption", "vqa", "ref_grounding", "caption_grounded", "ocr"]),
    "image": st.just("i.jpg"),
    "caption": st.sampled_from(["A cat.", "<ref>a</ref><box>(1,2),(3,4)</box>"]),
    "question": st.just("Why?"),
    "answer": st.just("Because."),
    "phrase": st.just("the cat"),
    "regions": st.sampled_from(["<box>(1,2),(3,4)</box>", "<quad>(1,2),(3,4)</quad>"]),
    "turns": st.lists(_TURN, max_size=3),
    "markup": st.sampled_from(["<ref>a</ref><box>(1,2),(3,4)</box>", "<ref>a</ref>"]),
    "token_len": st.sampled_from([1, 500, 5000]),
    "format": st.sampled_from([1, 2, 3]),
    "n_images": st.sampled_from([0, 1]),
    "sample_ids": st.just(["a", "b"]),
    "total_len": st.sampled_from([0, 700, 2048]),
}
_FIELDS = {
    "clean": ["id", "text", "dataset", "image_width", "image_height", "language",
              "clip_score", "image_key", "group_key"],
    "build-task": ["id", "task", "image", "caption", "question", "answer", "phrase",
                   "regions"],
    "build-chat": ["id", "turns"],
    "check-markup": ["id", "markup"],
    "pack": ["id", "task", "token_len", "n_images", "format"],
    "stats": ["task", "sample_ids", "total_len"],
}


@st.composite
def hostile_lines(draw, command):
    """Raw input lines: records of plausible or hostile fields, other JSON
    values, lines that are not JSON, bytes that are not UTF-8, blank lines."""
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["record", "record", "record", "value", "raw", "blank"]))
        if kind == "record":
            record = {}
            for key in _FIELDS[command]:
                choice = draw(st.sampled_from(["plausible", "plausible", "hostile", "absent"]))
                if choice != "absent":
                    record[key] = draw(_PLAUSIBLE[key] if choice == "plausible"
                                       else _hostile_value)
            text = json.dumps(record, ensure_ascii=draw(st.booleans()))
        elif kind == "value":
            text = json.dumps(draw(_hostile_value), ensure_ascii=draw(st.booleans()))
        elif kind == "raw":
            text = "x" + draw(st.text(alphabet="{}[]\":,01ab \t\u2028\udcff", max_size=8))
        else:
            text = draw(st.sampled_from(["", "  ", "\t"]))
        # Raw surrogates become bytes that are not UTF-8.
        lines.append(text.encode("utf-8", "surrogatepass"))
    return lines


@pytest.mark.parametrize("command", DATA_COMMANDS)
def test_every_data_command_survives_hostile_lines(tmp_path, command):
    """Exit 0, one report count per non-blank line, strict UTF-8 JSON Lines
    out, and the next stage accepts every line written by build-task,
    build-chat (pack) and pack (stats)."""

    @settings(max_examples=30, deadline=None, database=None)
    @given(lines=hostile_lines(command))
    def check(lines):
        report, rows = run_lines(tmp_path, command, lines)
        assert report["records_in"] == sum(1 for line in lines if line.strip())
        if command.startswith("build-"):  # caller text holds no image literal
            img_id = TOK.token_id("<img>")
            for row in rows["out"]:
                assert row["n_images"] == row["text"].count("<img>")
                assert row["n_images"] == decode_token_ids(row["token_ids"]).count(img_id)
        following = {"build-task": "pack", "build-chat": "pack", "pack": "stats"}
        if command in following:
            next_report, _ = run_lines(tmp_path, following[command],
                                       [json.dumps(r).encode("utf-8") for r in rows["out"]])
            assert (next_report["records_in"], next_report["errors"]) == (len(rows["out"]), 0)

    check()


def run_bytes(tmp_path, command, lines, name):
    """Run ``command`` over raw input lines, writing into directory ``name``;
    return every file it wrote, as bytes, with the report's ``wall_time_s`` removed."""
    src, out = tmp_path / f"{name}.jsonl", tmp_path / name
    src.write_bytes(b"".join(line + b"\n" for line in lines))
    out.mkdir(exist_ok=True)
    argv = [command, "-i", str(src), "-o", str(out / "out.jsonl"),
            "--report", str(out / "report.json")]
    if command == "clean":
        argv += ["--verdicts", str(out / "verdicts.jsonl")]
    assert main(argv) == 0
    return written_files(out)


def written_files(out):
    """Every file in directory ``out``, as bytes, with the report's ``wall_time_s`` removed."""
    files = {p.name: p.read_bytes() for p in out.iterdir()}
    report = json.loads(files["report.json"])
    del report["wall_time_s"]
    files["report.json"] = json.dumps(report).encode("utf-8")
    return files


# The per-line maps; pack and stats fold all their records into one output.
_PER_LINE_COMMANDS = ["build-chat", "build-task", "check-markup", "clean"]


@pytest.mark.parametrize("command", _PER_LINE_COMMANDS)
def test_two_parts_write_the_bytes_of_one_run_on_hostile_lines(tmp_path, command):
    """Input split at a line boundary, one run per part: each output of the
    whole input is the first part's followed by the second's, and the whole
    run's record counters are the sums of the parts'.

    Hostile lines are rarely kept, so the command's good line is mixed into
    each part: every run writes output lines, and the whole run's lines are
    split between the two parts' outputs."""

    @settings(max_examples=10, deadline=None, database=None)
    @given(lines=hostile_lines(command), data=st.data())
    def check(lines, data):
        cut = data.draw(st.integers(0, len(lines)), label="cut")
        inputs = []
        for part in (lines[:cut], lines[cut:]):
            at = data.draw(st.integers(0, len(part)), label="good line at")
            inputs.append([*part[:at], good_line(command), *part[at:]])
        whole = run_bytes(tmp_path, command, inputs[0] + inputs[1], "whole")
        first = run_bytes(tmp_path, command, inputs[0], "first")
        second = run_bytes(tmp_path, command, inputs[1], "second")
        reports = [json.loads(files.pop("report.json")) for files in (whole, first, second)]
        assert whole == {name: first[name] + second[name] for name in whole}
        total, *parts = reports
        for key in ("records_in", "records_kept", "errors"):
            assert total[key] == sum(part[key] for part in parts), key
        assert total["drops"] == Counter(parts[0]["drops"]) + Counter(parts[1]["drops"])

    check()


def load_gen():
    """``perfbench/gen.py``, the benchmark's seeded input generator."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "gen.py")
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen  # its dataclasses look their module up here
    spec.loader.exec_module(gen)
    return gen


def test_pack_and_stats_a_generated_corpus(tmp_path):
    """The hostile-line properties draw at most a few lines and may keep none,
    so this runs thousands of samples through: the build-task output of the
    benchmark's seed-2 task records, then the sequences ``pack`` wrote."""
    tasks = tmp_path / "tasks.jsonl"
    tasks.write_text("".join(f"{line}\n" for line in load_gen().grounded_sft(3000, 0, 0, 2)
                             .files["tasks"]), encoding="utf-8")
    src = tmp_path / "tokens.jsonl"
    assert main(["build-task", "-i", str(tasks), "-o", str(src)]) == 0
    for command in ("pack", "stats"):
        out, rpt = tmp_path / f"{command}.jsonl", tmp_path / f"{command}.json"
        assert main([command, "-i", str(src), "-o", str(out), "--report", str(rpt)]) == 0
        report = run_report(rpt)
        assert report["records_in"] > (2500 if command == "pack" else 500)
        assert report["errors"] == 0 and report["sequences_out"] > 500
        src = out


# Free text that literal matching can trip on: near misses of the literals,
# multi-byte characters and U+0100, the code point the mock gives <img>'s id.
_tricky_text = st.lists(
    st.one_of(st.sampled_from(["<boxx>", "</img", "<<", ">", "é", "猫", "\u0100"]),
              st.text(max_size=4)),
    max_size=5,
).map("".join)
_tricky_markup = st.builds("{}<ref>{}</ref><box>(1,2),(3,4)</box>{}".format,
                           _tricky_text, _tricky_text, _tricky_text)


@st.composite
def tricky_task_records(draw):
    """build-task records of every task whose free-text fields mix near-miss
    literals, multi-byte characters and arbitrary text."""
    task = draw(st.sampled_from(chat.TASKS))
    record = {key: draw(_tricky_text)
              for key in ("id", "image", "caption", "question", "answer", "phrase",
                          "description")}
    record["task"] = task
    record["regions"] = draw(st.sampled_from(  # canonical, not canonical, quadrilateral
        ["<box>(1,2),(3,4)</box>", "<box>(1,2), (3,4)</box><box>(5,6),(7,8)</box>",
         "<quad>(1,2), (3,4), (5,6), (7,8)</quad>"]))
    record["text"] = draw(_tricky_markup)
    if task == "caption_grounded":
        record["caption"] = draw(_tricky_markup)
    return record


_tricky_dialogues = st.builds(
    lambda record_id, turns: {"id": record_id, "turns": turns},
    _tricky_text,
    st.lists(st.tuples(_tricky_text.filter(bool), st.lists(_tricky_text, max_size=2),
                       _tricky_text.filter(bool)),
             min_size=1, max_size=3).map(lambda rounds: [
                 turn for user, images, answer in rounds
                 for turn in ({"role": "user", "content": user, "images": images},
                              {"role": "assistant", "content": answer})]),
)


def test_every_token_record_decodes_to_its_own_text(tmp_path):
    """The command-line form of project_mask's decode check, which the exact
    mock's projection skips: every kept token record's ids decode back to its
    text, token_len counts them, and every loss span lies within them."""

    @settings(max_examples=50, deadline=None, database=None)
    @given(tasks=st.lists(tricky_task_records(), max_size=4),
           chats=st.lists(_tricky_dialogues, max_size=3))
    def check(tasks, chats):
        for command, records in (("build-task", tasks), ("build-chat", chats)):
            report, rows = run_lines(tmp_path, command,
                                     [json.dumps(r).encode("utf-8") for r in records])
            assert report["records_kept"] == len(rows["out"])
            for row in rows["out"]:
                ids = decode_token_ids(row["token_ids"])
                assert TOK.decode(ids) == row["text"]
                assert len(ids) == row["token_len"]
                for start, end in row["loss_spans"]:
                    assert 0 <= start < end <= row["token_len"]

    check()


# ---------------------------------------------------------------------------
# the streamed input: what ends a record, what is blank, and what may be written

def test_lone_carriage_return_does_not_end_a_record(tmp_path):
    line = (b'{"id":"a","task":"caption","token_len":5}\r'
            b'{"id":"b","task":"caption","token_len":5}')
    report, rows = run_lines(tmp_path, "pack", [line, good_line("pack")])
    assert (report["records_in"], report["records_kept"], report["errors"]) == (2, 1, 1)
    assert rows["out"][0]["sample_ids"] == ["s"]


def test_line_end_does_not_change_an_error_verdict(tmp_path):
    """A record's JSON error points into its own line, whatever ends it."""
    src, verdicts = tmp_path / "in.jsonl", tmp_path / "v.jsonl"
    found = set()
    for data in (b'{"id": "a",\n', b'{"id": "a",\r\n', b'{"id": "a",'):
        src.write_bytes(data)
        assert main(["clean", "-i", str(src), "-o", "-", "--verdicts", str(verdicts)]) == 0
        found.add(verdicts.read_bytes())
    assert len(found) == 1 and b"line 1 column 12" in found.pop()


@pytest.mark.parametrize("space", ["\u3000", "\x85", "\u2028"])
def test_line_of_non_ascii_whitespace_is_record_error(tmp_path, space):
    report, _ = run_lines(tmp_path, "pack", [space.encode("utf-8"), good_line("pack"), b" \t\r"])
    assert (report["records_in"], report["records_kept"], report["errors"]) == (2, 1, 1)


@pytest.mark.parametrize("flag", ["-o", "--verdicts", "--report"])
@pytest.mark.parametrize("link", ["same", "hard", "symbolic"])
def test_output_naming_the_input_is_config_error(tmp_path, capsys, flag, link):
    src = tmp_path / "in.jsonl"
    write_jsonl(src, clean_corpus())
    before = src.read_bytes()
    target = {"same": src, "hard": tmp_path / "hard.jsonl", "symbolic": tmp_path / "sym.jsonl"}[link]
    if link == "hard":
        target.hardlink_to(src)
    elif link == "symbolic":
        target.symlink_to(src)
    others = {"-o": str(tmp_path / "out.jsonl"), "--verdicts": str(tmp_path / "v.jsonl"),
              "--report": str(tmp_path / "r.json")}
    others[flag] = str(target)
    argv = ["clean", "-i", str(src)] + [arg for item in others.items() for arg in item]
    assert main(argv) == 1
    assert "config error:" in capsys.readouterr().err
    assert src.read_bytes() == before
    assert not (tmp_path / "out.jsonl").exists() and not (tmp_path / "v.jsonl").exists()
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("flag", ["--verdicts", "--report"])
@pytest.mark.parametrize("link, exists", [
    ("same", False), ("same", True), ("hard", True), ("symbolic", False), ("symbolic", True),
])
def test_two_outputs_naming_one_file_is_config_error(tmp_path, capsys, flag, link, exists):
    src, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
    write_jsonl(src, clean_corpus())
    if exists:
        out.write_bytes(b"old output\n")
    other = {"same": out, "hard": tmp_path / "hard.jsonl", "symbolic": tmp_path / "sym.jsonl"}[link]
    if link == "hard":
        other.hardlink_to(out)
    elif link == "symbolic":
        other.symlink_to(out)  # dangling while out does not exist yet
    assert main(["clean", "-i", str(src), "-o", str(out), flag, str(other)]) == 1
    assert capsys.readouterr().err.startswith("config error: outputs ")
    if exists:
        assert out.read_bytes() == b"old output\n"
    else:
        assert not out.exists()


_CONFIG_SECTIONS = {"clean": "filter", "pack": "packer", "stats": "packer"}


@pytest.mark.parametrize("link", ["same", "hard", "symbolic"])
@pytest.mark.parametrize("command, flag", [
    ("clean", "-o"), ("clean", "--verdicts"), ("clean", "--report"),
    ("pack", "-o"), ("pack", "--report"), ("stats", "-o"), ("stats", "--report"),
])
def test_output_naming_the_config_is_config_error(tmp_path, capsys, command, flag, link):
    """The config is a file the command reads, like its input: no output may replace it."""
    src, cfg = tmp_path / "in.jsonl", tmp_path / "cfg.json"
    write_jsonl(src, [GOOD_RECORDS[command]])
    cfg.write_bytes(json.dumps({_CONFIG_SECTIONS[command]: {}}).encode("utf-8"))
    before = cfg.read_bytes()
    target = {"same": cfg, "hard": tmp_path / "hard.json", "symbolic": tmp_path / "sym.json"}[link]
    if link == "hard":
        target.hardlink_to(cfg)
    elif link == "symbolic":
        target.symlink_to(cfg)
    others = {"-o": str(tmp_path / "out.jsonl"), "--report": str(tmp_path / "r.json")}
    if command == "clean":
        others["--verdicts"] = str(tmp_path / "v.jsonl")
    others[flag] = str(target)
    argv = [command, "-i", str(src), "--config", str(cfg)]
    assert main(argv + [arg for item in others.items() for arg in item]) == 1
    assert capsys.readouterr().err == f"config error: output {target} is the config file\n"
    assert cfg.read_bytes() == before
    assert not any((tmp_path / name).exists() for name in ("out.jsonl", "v.jsonl", "r.json"))


def test_config_may_name_the_input(tmp_path):
    """Both are only read; the config's one line is a record clean cannot parse."""
    cfg, out, rpt = tmp_path / "cfg.json", tmp_path / "out.jsonl", tmp_path / "r.json"
    cfg.write_bytes(b'{"filter": {}}\n')
    assert main(["clean", "-i", str(cfg), "-o", str(out), "--report", str(rpt),
                 "--config", str(cfg)]) == 0
    report = run_report(rpt)
    assert (report["records_in"], report["errors"]) == (1, 1)
    assert cfg.read_bytes() == b'{"filter": {}}\n'


def test_stdout_for_output_and_verdicts_is_allowed(tmp_path, capsys):
    src = tmp_path / "in.jsonl"
    write_jsonl(src, clean_corpus())
    assert main(["clean", "-i", str(src), "-o", "-", "--verdicts", "-"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + len(clean_corpus())


@pytest.mark.parametrize("problem, rc", [("workers", 1), ("input", 2), ("config", 2)])
def test_early_errors_leave_an_existing_output_alone(tmp_path, capsys, problem, rc):
    src, out, verdicts = tmp_path / "in.jsonl", tmp_path / "out.jsonl", tmp_path / "v.jsonl"
    write_jsonl(src, clean_corpus())
    out.write_bytes(b"old output\n")
    verdicts.write_bytes(b"old verdicts\n")
    argv = ["clean", "-i", str(tmp_path / "absent.jsonl" if problem == "input" else src),
            "-o", str(out), "--verdicts", str(verdicts),
            "--workers", "0" if problem == "workers" else "1"]
    if problem == "config":
        argv += ["--config", str(tmp_path / "absent.json")]
    assert main(argv) == rc
    assert capsys.readouterr().err.startswith("config error: " if rc == 1 else "io error: ")
    assert (out.read_bytes(), verdicts.read_bytes()) == (b"old output\n", b"old verdicts\n")


@pytest.mark.parametrize("command", ["build-task", "build-chat", "check-markup"])
def test_config_is_a_usage_error_where_no_config_is_read(tmp_path, capsys, command):
    src, cfg, out = tmp_path / "in.jsonl", tmp_path / "cfg.json", tmp_path / "out.jsonl"
    write_jsonl(src, [GOOD_RECORDS[command]])
    cfg.write_bytes(b"{}")
    with pytest.raises(SystemExit) as exc:
        main([command, "-i", str(src), "-o", str(out), "--config", str(cfg)])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert "unrecognized arguments: --config" in err
    assert not out.exists()


_ALL_COMMANDS = DATA_COMMANDS + ["demo-resampler", "grad-check", "lr-curve"]


@pytest.mark.parametrize("command", _ALL_COMMANDS)
def test_config_and_verdicts_are_options_only_where_they_are_read(tmp_path, capsys, command):
    """--config belongs to clean, pack and stats, --verdicts to clean; elsewhere
    either is a usage error (exit 1) and nothing runs."""
    src, cfg, out = tmp_path / "in.jsonl", tmp_path / "cfg.json", tmp_path / "out.jsonl"
    write_jsonl(src, [GOOD_RECORDS.get(command, {})])
    cfg.write_bytes(b"{}")
    io = ["-i", str(src), "-o", str(out)] if command in GOOD_RECORDS else []
    takes = {"--config": command in ("clean", "pack", "stats"), "--verdicts": command == "clean"}
    for flag, value in (("--config", cfg), ("--verdicts", tmp_path / "v.jsonl")):
        argv = [command, *io, flag, str(value)]
        out.unlink(missing_ok=True)
        if takes[flag]:
            assert main(argv) == 0
            continue
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert f"error: unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not out.exists()
    assert sorted(cli._DATA_COMMANDS) == DATA_COMMANDS


@pytest.mark.parametrize("command, own_option", [
    ("clean", "--verdicts"), ("build-task", "--input"), ("build-chat", "--workers"),
    ("check-markup", "--report"), ("pack", "--config"), ("stats", "--output"),
    ("grad-check", "--d-model"),
])
def test_unknown_argument_is_reported_with_the_subcommand_usage(tmp_path, capsys, command,
                                                                own_option):
    out = tmp_path / "out.jsonl"
    argv = [command, "--bogus", "1"]
    if command in GOOD_RECORDS:
        write_jsonl(tmp_path / "in.jsonl", [GOOD_RECORDS[command]])
        argv += ["-i", str(tmp_path / "in.jsonl"), "-o", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage: vlprep {command} ")
    assert own_option in err
    assert f"vlprep {command}: error: unrecognized arguments: --bogus 1" in err
    assert not out.exists()


def test_main_reuses_its_parser_and_no_argument_outlives_its_call(tmp_path, capsys):
    out = tmp_path / "lr.csv"
    with pytest.raises(SystemExit):
        main(["lr-curve", "--every", "5", "--bogus"])
    assert main(["lr-curve", "--total-steps", "10", "--warmup-steps", "2", "--every", "5",
                 "-o", str(out)]) == 0
    assert len(out.read_text(encoding="utf-8").splitlines()) == 1 + 3
    assert main(["lr-curve", "--total-steps", "10", "--warmup-steps", "2", "-o", str(out)]) == 0
    assert len(out.read_text(encoding="utf-8").splitlines()) == 1 + 11  # --every 1 again
    assert cli._parser.cache_info().misses == 1
    assert cli.build_parser() is not cli.build_parser()


def test_config_error_with_lone_surrogate_is_printed_escaped(tmp_path, capsys):
    src, cfg = tmp_path / "in.jsonl", tmp_path / "cfg.json"
    write_jsonl(src, clean_corpus())
    cfg.write_bytes(b'{"filter": {"\\ud800": 1}}')  # an unknown key, a lone surrogate
    assert main(["clean", "-i", str(src), "-o", str(tmp_path / "out.jsonl"),
                 "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: bad filter config:")
    assert "\\ud800" in err


def test_io_error_with_lone_surrogate_is_printed_escaped(tmp_path, capsys):
    # A file name of undecodable bytes reaches main as a surrogate escape.
    absent = str(tmp_path / "absent\udcff.jsonl")
    assert main(["clean", "-i", absent, "-o", str(tmp_path / "out.jsonl")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("io error: cannot read ")
    assert "absent\\udcff.jsonl" in err


@pytest.mark.parametrize("n_lines", [5, 20000])
def test_closed_stdout_is_io_error_without_traceback(tmp_path, n_lines):
    """20k lines overflow the pipe buffer and meet the closed pipe in a write;
    5 lines meet it in the flush that ends the run."""
    src = tmp_path / "in.jsonl"
    write_jsonl(src, [dict(GOOD_RECORDS["check-markup"], id=f"m{i:05d}") for i in range(n_lines)])
    # Block-buffered, as stdout on a pipe is by default, so output is pending at exit.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)  # a reader that has already stopped, as `| head -0` would
    try:
        proc = subprocess.run([sys.executable, "-m", "vlprep.cli", "check-markup", "-i", str(src)],
                              stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
                              env=env)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr.startswith("io error: cannot write -: "), proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr  # no traceback, no "Exception ignored"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("full", ["--output", "--verdicts"])
def test_a_failed_write_names_its_own_file(tmp_path, capsys, full):
    """Each output's write error names that output, with the other one open.

    2,000 kept lines and verdicts overflow each file's buffer, so /dev/full
    fails inside the loop that writes both files, not only when it is closed."""
    src = tmp_path / "in.jsonl"
    write_jsonl(src, [dict(clean_corpus()[0], id=f"r{i:05d}") for i in range(2000)])
    paths = {"--output": str(tmp_path / "out.jsonl"), "--verdicts": str(tmp_path / "v.jsonl")}
    paths[full] = "/dev/full"
    argv = ["clean", "-i", str(src)] + [arg for pair in paths.items() for arg in pair]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("io error: cannot write /dev/full: [Errno 28] "), err
    assert len(err.splitlines()) == 1, err


# A fresh interpreter: pytest and hypothesis have loaded fractions into this one.
_IMPORT_PROBE = """\
import json, sys
from vlprep import cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
loaded = [name for name in ("multiprocessing", "fractions", "numpy") if name in sys.modules]
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_one_worker_imports_neither_the_pool_nor_fractions(tmp_path):
    """At --workers 1 and at --workers 2 no data command loads multiprocessing,
    fractions or numpy, and both write the same bytes."""
    records = {
        "clean": clean_corpus(),
        "build-task": [dict(f["fields"], id=task, task=task) for task, f in TASK_FIXTURES.items()],
        "build-chat": [GOOD_RECORDS["build-chat"]],
        "check-markup": [{"id": f"m{i}", "markup": m} for i, m in enumerate(MIXED_MARKUP)],
        "pack": PACK_RECORDS,
        "stats": [GOOD_RECORDS["stats"]],
    }
    runs = {"1": [], "2": []}
    for command, recs in records.items():
        src = tmp_path / f"{command}.jsonl"
        lines = [json.dumps(r) for r in (recs * 80)[:80]] + ["not json"]
        src.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        for workers in runs:
            out = tmp_path / f"{command}-{workers}"
            out.mkdir()
            argv = [command, "-i", str(src), "-o", str(out / "out.jsonl"),
                    "--report", str(out / "report.json"), "--workers", workers]
            if command == "clean":
                argv += ["--verdicts", str(out / "verdicts.jsonl")]
            runs[workers].append(argv)
    argvs = json.dumps(runs["1"] + runs["2"])
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, argvs],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"codes": [0] * 12, "loaded": []}
    for command in records:
        one = written_files(tmp_path / f"{command}-1")
        assert written_files(tmp_path / f"{command}-2") == one, command
        report = json.loads(one["report.json"])
        assert report["records_in"] == 81 and report["errors"] >= 1, command
        assert report["records_kept"] > 0, command


_NUMPY_PROBE = """\
import json, sys
import vlprep, vlprep.cli
checks = {"import": "numpy" not in sys.modules}
from vlprep import FilterConfig, PackerConfig, ResamplerConfig, ScheduleConfig, demo, resampler
FilterConfig(), PackerConfig(), demo.DemoConfig(), demo.SHAPE
ScheduleConfig(peak_lr=1e-3, min_lr=1e-5, warmup_steps=1, total_steps=10)
ResamplerConfig(d_model=8, grid_h=32, grid_w=32, n_queries=256, n_heads=2)
checks["configs"] = "numpy" not in sys.modules
names = ("grad_check", "resample", "attention_weights", "posenc_2d", "ResamplerConfig")
checks["names"] = all(getattr(vlprep, n) is getattr(resampler, n) for n in names)
checks["cli"] = vlprep.cli.grad_check is resampler.grad_check
print(json.dumps(checks))
sys.stdout.flush()
code = vlprep.cli.main(["grad-check", "--seeds", "5"])
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules}))
"""


def test_numpy_loads_only_when_a_kernel_computes(capsys):
    """Importing vlprep, building every config class and resolving the kernel names
    load no numpy; grad-check then loads it and prints what an eager import prints."""
    proc = subprocess.run([sys.executable, "-c", _NUMPY_PROBE],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    first, *printed, last = proc.stdout.splitlines()
    assert json.loads(first) == {"import": True, "configs": True, "names": True, "cli": True}
    assert json.loads(last) == {"code": 0, "numpy": True}
    assert main(["grad-check", "--seeds", "5"]) == 0
    assert printed == capsys.readouterr().out.splitlines()
    assert printed[-1].startswith("PASS: ")


_MAIN = "import sys\nfrom vlprep.cli import main\nsys.exit(main(sys.argv[1:]))\n"
# numpy made unimportable, as in an install without it.
_NO_NUMPY = 'import sys\nsys.modules["numpy"] = None\n' + _MAIN


@pytest.mark.parametrize("argv", [["grad-check"], ["demo-resampler", "--steps", "10"]])
def test_kernel_command_without_numpy_is_config_error(tmp_path, argv):
    out = tmp_path / "loss.csv"
    if argv[0] == "demo-resampler":
        argv = argv + ["-o", str(out)]
    proc = subprocess.run([sys.executable, "-c", _NO_NUMPY, *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (f"config error: {argv[0]} needs numpy, which could not be imported; "
                           "install vlprep[kernel]\n")
    assert not out.exists()


def test_data_commands_without_numpy_write_the_same_bytes(tmp_path):
    """The six data commands and lr-curve run without numpy, byte for byte as with it."""
    runs = []
    for command, record in GOOD_RECORDS.items():
        src = tmp_path / f"{command}.jsonl"
        write_jsonl(src, [record, record, {"id": 1}])
        runs.append([command, "-i", str(src)])
    runs.append(["lr-curve", "--total-steps", "50", "--warmup-steps", "5"])
    for argv in runs:
        without, with_numpy = (
            subprocess.run([sys.executable, "-c", script, *argv],
                           capture_output=True, text=True, timeout=120)
            for script in (_NO_NUMPY, _MAIN))
        assert without.returncode == 0, without.stderr
        assert (without.stdout, without.stderr) == (with_numpy.stdout, with_numpy.stderr), argv
        assert without.stdout, argv


# pack and stats hold one value per kept record for their final step.
@pytest.mark.parametrize("command", ["clean", "build-task", "build-chat", "check-markup"])
def test_memory_stays_flat_in_corpus_size(tmp_path, command):
    """A streaming command's traced peak over 8k lines is under twice that over 1k."""
    record = dict(GOOD_RECORDS[command], note="x" * 200)
    src, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"

    def peak(n):
        write_jsonl(src, [dict(record, id=f"m{i:05d}") for i in range(n)])
        tracemalloc.start()
        try:
            assert main([command, "-i", str(src), "-o", str(out)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1000)  # warm-up: first-use caches are not per-record memory
    small, large = peak(1000), peak(8000)
    assert large < 2 * small, (small, large)


# ---------------------------------------------------------------------------
# --config values

@pytest.mark.parametrize("command, config", [
    ("pack", b'{"packer": {"max_len": 300.5}}'),
    ("pack", b'{"packer": {"max_len": 0.5}}'),
    ("pack", b'{"packer": {"max_len": 1e400}}'),
    ("pack", b'{"packer": {"max_len": true}}'),
    ("pack", b'{"packer": {"image_cost": 300.5}}'),
    ("pack", b'{"packer": {"image_cost": 0.5}}'),
    ("pack", b'{"packer": {"image_cost": 1e400}}'),
    ("pack", b'{"packer": {"image_cost": true}}'),
    ("clean", b'{"filter": {"clip_thresholds": []}}'),
    ("clean", b'{"filter": {"clip_thresholds": {"laion": "x"}}}'),
    ("clean", b'{"filter": {"banned_patterns": [1]}}'),
    ("clean", b'{"filter": {"banned_patterns": [null]}}'),
    ("clean", b'{"filter": {"special_tags": [1]}}'),
    ("clean", b'{"filter": {"special_tags": [null]}}'),
    ("clean", b'{"filter": {"special_tags": "<PERSON>"}}'),
    ("clean", b'{"filter": {"banned_patterns": {"spam": 1}}}'),
    ("clean", b'{"filter": [["min_chars", 300]]}'),
    # values out of range, a section no command reads, and a config that is no object
    ("clean", b'{"filter": {"min_chars": 10, "max_chars": 10}}'),
    ("clean", b'{"filter": {"min_chars": null}}'),
    ("clean", b'{"filter": {"max_chars": null}}'),
    ("clean", b'{"filter": {"max_aspect_ratio": 1}}'),
    ("clean", b'{"filter": {"allowed_scripts": ["klingon"]}}'),
    ("clean", b'{"filter": {"allowed_scripts": "cjk"}}'),
    ("clean", b'{"filter": {"allowed_scripts": [["cjk"]]}}'),
    ("clean", b'{"filter": {"emoji_ranges": [["12", "20"]]}}'),
    ("clean", b'{"filter": {"emoji_ranges": [[true, 5]]}}'),
    ("clean", b'{"filter": {"emoji_ranges": [[1.9, 5.2]]}}'),
    ("clean", b'{"fitler": {"min_chars": 100}}'),
    ("stats", b'{"packer": {}, "packing": {"max_len": 300}}'),
    ("clean", b'[{"filter": {}}]'),
])
def test_wrongly_typed_config_value_is_config_error(tmp_path, capsys, command, config):
    src, cfg, out = tmp_path / "in.jsonl", tmp_path / "cfg.json", tmp_path / "out.jsonl"
    write_jsonl(src, [GOOD_RECORDS[command]])
    cfg.write_bytes(config)
    assert main([command, "-i", str(src), "-o", str(out), "--config", str(cfg)]) == 1
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field", ["min_chars", "max_chars"])
def test_null_length_limit_is_config_error(tmp_path, capsys, field):
    """No rule can be disabled through the length limits; a null one gets its own message."""
    src, cfg, out = tmp_path / "in.jsonl", tmp_path / "cfg.json", tmp_path / "out.jsonl"
    write_jsonl(src, [GOOD_RECORDS["clean"]])
    cfg.write_text(f'{{"filter": {{"{field}": null}}}}', encoding="utf-8")
    assert main(["clean", "-i", str(src), "-o", str(out), "--config", str(cfg)]) == 1
    assert capsys.readouterr() == (
        "", "config error: bad filter config: min_chars and max_chars must be numbers, not null\n")
    assert not out.exists()


@pytest.mark.parametrize("key", ["banned_patterns", "special_tags"])
def test_empty_pattern_or_tag_is_config_error(tmp_path, capsys, key):
    """Every text holds the empty string: clean used to drop every record as
    ``matches banned pattern ''`` or ``contains special tag ''``."""
    src, cfg, out = tmp_path / "in.jsonl", tmp_path / "cfg.json", tmp_path / "out.jsonl"
    write_jsonl(src, [GOOD_RECORDS["clean"]])
    cfg.write_text(json.dumps({"filter": {key: ["<SPAM>", ""]}}), encoding="utf-8")
    assert main(["clean", "-i", str(src), "-o", str(out), "--config", str(cfg)]) == 1
    assert capsys.readouterr() == (
        "", f"config error: bad filter config: {key} holds an empty string, "
            "which every text contains\n")
    assert not out.exists()


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
@pytest.mark.parametrize("field", ["max_aspect_ratio", "min_side_px", "min_chars", "max_chars",
                                   "clip_thresholds"])
def test_non_finite_filter_number_is_config_error(tmp_path, capsys, field, literal):
    """JSON's NaN and infinities parse as floats, and each would switch its rule
    off: with a NaN min_chars, clean kept a 2-character caption."""
    src, cfg, out = tmp_path / "in.jsonl", tmp_path / "cfg.json", tmp_path / "out.jsonl"
    write_jsonl(src, [GOOD_RECORDS["clean"]])
    value = f'{{"laion": {literal}}}' if field == "clip_thresholds" else literal
    cfg.write_text(f'{{"filter": {{"{field}": {value}}}}}', encoding="utf-8")
    assert main(["clean", "-i", str(src), "-o", str(out), "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("config error: bad filter config: ")
    assert not out.exists()


def test_huge_integer_filter_number_is_accepted(tmp_path):
    src, cfg, out = tmp_path / "in.jsonl", tmp_path / "cfg.json", tmp_path / "out.jsonl"
    write_jsonl(src, [GOOD_RECORDS["clean"]])
    cfg.write_text(f'{{"filter": {{"max_chars": {10**400}}}}}', encoding="utf-8")
    assert main(["clean", "-i", str(src), "-o", str(out), "--config", str(cfg)]) == 0
    assert len(read_jsonl(out)) == 1


_CONFIG_INPUTS = {
    "clean": clean_corpus() + [dict(clean_corpus()[0], id="d", dataset="laion", clip_score=0.2)],
    "pack": [{"id": "a", "task": "caption", "token_len": 300},
             {"id": "b", "task": "caption", "token_len": 40, "n_images": 1},
             {"id": "c", "task": "vqa", "token_len": 2000},
             {"id": "d", "task": "caption", "token_len": 1}],
    "stats": [{"task": "caption", "sample_ids": ["a"], "total_len": 300},
              {"task": "vqa", "sample_ids": ["b", "c"], "total_len": 2048}],
}
_CONFIG_KEYS = {
    "filter": [f.name for f in dataclasses.fields(FilterConfig)],
    "packer": [f.name for f in dataclasses.fields(PackerConfig)],
}
# Values a config may plausibly hold, so that many generated configs are valid.
_config_value = _hostile_value | st.sampled_from([
    0, 1, 8, 300, 2048, 0.3, None, [], {}, ["cjk"], ["latin_basic"], [[0, 10]],
    {"laion": 0.3}, ["<PERSON>"], ["small dog"],
])


@pytest.mark.parametrize("command", ["clean", "pack", "stats"])
def test_arbitrary_config_values_are_config_errors_or_valid_runs(tmp_path, capfd, command):
    """Arbitrary JSON as a config section or under its fields: exit 0 or 1
    and never an exception; exit 1 says ``config error:``; exit 0 balances
    its counts, and stats with the same config accepts every line pack
    wrote."""
    section = "filter" if command == "clean" else "packer"
    src, cfg = tmp_path / "in.jsonl", tmp_path / "cfg.json"
    out, rpt = tmp_path / "out.jsonl", tmp_path / "report.json"
    write_jsonl(src, _CONFIG_INPUTS[command])

    @settings(max_examples=100, deadline=None, database=None)
    @given(values=st.dictionaries(st.sampled_from(_CONFIG_KEYS[section]), _config_value,
                                  max_size=3) | _config_value)
    def check(values):
        cfg.write_text(json.dumps({section: values}), encoding="utf-8")
        capfd.readouterr()
        rc = main([command, "-i", str(src), "-o", str(out), "--report", str(rpt),
                   "--config", str(cfg)])
        assert rc in (0, 1)
        if rc == 1:
            assert "config error:" in capfd.readouterr().err
            return
        run_report(rpt)
        if command == "pack":
            n_lines = len(out.read_bytes().splitlines())
            assert main(["stats", "-i", str(out), "-o", str(tmp_path / "stats.json"),
                         "--report", str(rpt), "--config", str(cfg)]) == 0
            report = run_report(rpt)
            assert (report["records_in"], report["errors"]) == (n_lines, 0)

    check()


# ---------------------------------------------------------------------------
# lr-curve / grad-check / demo-resampler

class TestNumericCommands:
    def test_lr_curve_stage_values(self, tmp_path):
        out = tmp_path / "curve.csv"
        rc = main(["lr-curve", "--stage", "pretrain", "--every", "250", "-o", str(out)])
        assert rc == 0
        with out.open(encoding="utf-8") as f:
            rows = {int(r["step"]): float(r["lr"]) for r in csv.DictReader(f)}
        assert rows[0] == 0.0
        assert rows[500] == 2e-4
        assert rows[50_000] == 1e-6
        # Cosine midpoint sits halfway through the decay span, step 25250.
        assert abs(rows[25_250] - (2e-4 + 1e-6) / 2) < 1e-15

    def test_lr_curve_stride_keeps_final_step(self, tmp_path):
        out = tmp_path / "curve.csv"
        main([
            "lr-curve", "--peak-lr", "1e-3", "--min-lr", "1e-5",
            "--warmup-steps", "10", "--total-steps", "105", "--every", "50",
            "-o", str(out),
        ])
        with out.open(encoding="utf-8") as f:
            steps = [int(r["step"]) for r in csv.DictReader(f)]
        assert steps == [0, 50, 100, 105]

    @pytest.mark.parametrize("total, every", [(105, 50), (100, 50), (100, 1), (100, 99),
                                              (100, 100), (100, 101), (100, 1000)])
    def test_lr_curve_rows_and_their_count(self, tmp_path, capsys, total, every):
        out = tmp_path / "curve.csv"
        assert main(["lr-curve", "--warmup-steps", "10", "--total-steps", str(total),
                     "--every", str(every), "-o", str(out)]) == 0
        steps = list(range(0, total + 1, every))
        if steps[-1] != total:
            steps.append(total)
        schedule = ScheduleConfig(peak_lr=2e-4, min_lr=1e-6, warmup_steps=10, total_steps=total)
        with out.open(encoding="utf-8", newline="") as f:
            rows = list(csv.reader(f))
        assert rows == [["step", "lr"]] + [[str(s), repr(lr_at(schedule, s))] for s in steps]
        assert capsys.readouterr().err == f"lr-curve: {len(steps)} rows\n"

    def test_lr_curve_memory_stays_flat_in_step_count(self, tmp_path, capsys):
        """lr-curve streams its rows: the traced peak over 400k steps is under
        twice that over 40k."""
        out = tmp_path / "curve.csv"

        def peak(steps):
            tracemalloc.start()
            try:
                assert main(["lr-curve", "--warmup-steps", "10", "--total-steps", str(steps),
                             "--every", "1", "-o", str(out)]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(100)  # warm-up: first-use caches are not per-row memory
        small, large = peak(40_000), peak(400_000)
        assert large < 2 * small, (small, large)
        assert capsys.readouterr().err.splitlines()[-1] == "lr-curve: 400001 rows"

    @pytest.mark.parametrize("argv", [
        ["lr-curve", "--every", "0"],
        ["lr-curve", "--every", "-1"],
        ["lr-curve", "--peak-lr", "inf", "--min-lr", "1"],
        ["lr-curve", "--peak-lr", "nan"],
        ["lr-curve", "--peak-lr", "inf", "--min-lr", "inf"],
        ["grad-check", "--d-model", "0"],
        ["grad-check", "--d-model", "-4"],
        ["grad-check", "--n-queries", "0"],
        ["grad-check", "--n-heads", "0"],
        ["grad-check", "--tolerance", "nan"],
        ["grad-check", "--tolerance", "inf"],
        ["grad-check", "--tolerance", "0"],
        ["grad-check", "--tolerance", "-1"],
    ])
    def test_bad_numeric_argument_is_config_error(self, tmp_path, capsys, argv):
        out = tmp_path / "curve.csv"
        if argv[0] == "lr-curve":
            argv = argv + ["-o", str(out)]
        assert main(argv) == 1
        stdout, err = capsys.readouterr()
        assert err.startswith("config error: ")
        assert stdout == ""
        assert not out.exists()

    def test_lr_curve_rejects_bad_schedule(self):
        rc = main([
            "lr-curve", "--peak-lr", "1e-5", "--min-lr", "1e-3",
            "--warmup-steps", "10", "--total-steps", "100",
        ])
        assert rc == 1

    def test_grad_check_passes(self, capsys):
        rc = main(["grad-check", "--seeds", "2"])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_grad_check_impossible_tolerance_fails(self, capsys):
        rc = main(["grad-check", "--seeds", "1", "--tolerance", "1e-30"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_grad_check_rejects_bad_width(self):
        assert main(["grad-check", "--d-model", "6", "--seeds", "1"]) == 1

    @pytest.mark.parametrize("seeds", ["0", "-1"])
    def test_grad_check_without_seeds_is_config_error(self, capsys, seeds):
        assert main(["grad-check", "--seeds", seeds]) == 1
        out, err = capsys.readouterr()
        assert "PASS" not in out
        assert err.startswith("config error: seeds must be >= 1")

    def test_demo_converges_and_writes_curve(self, tmp_path):
        out = tmp_path / "loss.csv"
        rc = main(["demo-resampler", "--steps", "300", "-o", str(out)])
        assert rc == 0
        with out.open(encoding="utf-8") as f:
            losses = [float(r["loss"]) for r in csv.DictReader(f)]
        assert len(losses) == 301
        assert losses[-1] <= 0.01 * losses[0]

    def test_demo_seeds_report_one_ratio_per_seed(self, tmp_path, capsys):
        one, many = tmp_path / "one.csv", tmp_path / "many.csv"
        assert main(["demo-resampler", "--steps", "200", "--seed", "3", "-o", str(one)]) == 0
        single_err = capsys.readouterr().err
        assert single_err.startswith("demo: initial=")
        rc = main(["demo-resampler", "--steps", "200", "--seed", "3", "--seeds", "3",
                   "-o", str(many)])
        assert rc == 0
        lines = capsys.readouterr().err.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "demo seed 3", "demo seed 4", "demo seed 5"
        ]
        assert lines[0].split(":", 1)[1] == single_err.rstrip("\n").split(":", 1)[1]
        assert many.read_bytes() == one.read_bytes()

    def test_demo_fails_if_any_seed_misses_the_ratio(self, capsys):
        rc = main(["demo-resampler", "--steps", "2", "--warmup-steps", "1",
                   "--seeds", "2", "-o", "-"])
        assert rc == 1
        assert len(capsys.readouterr().err.splitlines()) == 2

    def test_demo_divergence_fails_and_runs_the_later_seeds(self, tmp_path, capsys,
                                                            monkeypatch):
        monkeypatch.setattr(demo, "PEAK_LR", 1e80)
        monkeypatch.setattr(demo, "MIN_LR", 1.0)
        out = tmp_path / "loss.csv"
        rc = main(["demo-resampler", "--steps", "10", "--warmup-steps", "1",
                   "--seeds", "2", "-o", str(out)])
        assert rc == 1
        assert [line.split(":")[0] for line in capsys.readouterr().err.splitlines()] == [
            "demo seed 0 diverged", "demo seed 1 diverged"
        ]
        assert not out.exists()

    def test_demo_rejects_zero_seeds(self):
        assert main(["demo-resampler", "--steps", "50", "--seeds", "0"]) == 1

    def test_demo_negative_seed_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "loss.csv"
        assert main(["demo-resampler", "--seed", "-1", "-o", str(out)]) == 1
        stdout, err = capsys.readouterr()
        assert (stdout, err) == ("", "config error: seed must be >= 0, got -1\n")
        assert not out.exists()

    def test_demo_rejects_warmup_past_total(self):
        assert main(["demo-resampler", "--steps", "50", "--warmup-steps", "100"]) == 1


# ---------------------------------------------------------------------------
# report invariant

class TestRunReport:
    def test_validate_accepts_balanced_counts(self):
        report = RunReport("clean", records_in=5, records_kept=3, errors=1)
        report.count_drop("R5_emoji")
        report.validate()

    def test_validate_rejects_imbalance(self):
        report = RunReport("clean", records_in=5, records_kept=3)
        with pytest.raises(RuntimeError):
            report.validate()

    def test_drops_serialized_sorted(self):
        report = RunReport("clean", records_in=2)
        report.count_drop("z_rule")
        report.count_drop("a_rule")
        written = json.loads(_dump(dataclasses.asdict(report)))
        assert list(written["drops"]) == ["a_rule", "z_rule"]
