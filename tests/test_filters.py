import dataclasses
import itertools
import json
import re
import sys
import time

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

import vlprep.filters as filters
from vlprep.chat import RESERVED_LITERALS, build_task_sample
from vlprep.cli import _clean_one
from vlprep.cli import main as cli_main
from vlprep.errors import EmptyGroup, IncompleteRecord
from vlprep.filters import (
    DEFAULT_EMOJI_RANGES,
    DROP,
    KEEP,
    LATIN_EXT_A,
    LATIN_EXT_B,
    PUA,
    SCRIPT_BLOCKS,
    CorpusRecord,
    FilterConfig,
    FilterVerdict,
    RefSpan,
    check_special_tags,
    clean_html_text,
    denest_grit,
    filter_document_text,
    filter_pair,
    select_longest_caption,
)
from vlprep.grounding import GridBox, Ref, Text


def make_record(**overrides):
    base = dict(
        id="r0",
        text="a cat sitting on a sofa",
        dataset="laion-en",
        image_width=512,
        image_height=512,
        language="en",
        clip_score=0.35,
        image_key="img/0.jpg",
    )
    base.update(overrides)
    return CorpusRecord(**base)


def make_config(**overrides):
    base = dict(clip_thresholds={"laion-en": 0.28})
    base.update(overrides)
    return FilterConfig(**base)


# Captions whose cleanup decodes to a tag, which a second cleanup would strip.
_ENCODED_CAPTIONS = (
    "a photo of &lt;PERSON&gt; standing in the rain",
    "the &lt;ref&gt;green park&lt;/ref&gt; at noon",
    "an icon &amp;lt;img&amp;gt; on a page",
)


class TestFilterPair:
    def test_clean_record_is_kept(self):
        v = filter_pair(make_record(), make_config())
        assert v.decision == KEEP and v.rule_id is None

    def test_extreme_aspect_ratio(self):
        v = filter_pair(make_record(image_width=2000, image_height=100), make_config())
        assert (v.decision, v.rule_id) == (DROP, "R1_aspect")

    @pytest.mark.parametrize(
        "overrides, cfg_overrides, rule",
        [
            (dict(image_width=2000, image_height=600), {}, "R1_aspect"),
            (dict(image_width=200, image_height=200), {}, "R2_small"),
            (dict(clip_score=0.10), {}, "R3_clip"),
            (dict(text="привет world"), {}, "R4_script"),
            (dict(text="\U0001f642 nice day"), {}, "R5_emoji"),
            (dict(text="hi"), {}, "R6_length"),
            (dict(text="<div><br/></div>"), {}, "R7_html"),
            (
                dict(text="best price buy now and save"),
                dict(banned_patterns=("*buy now*",)),
                "R8_pattern",
            ),
            *((dict(text=t), {}, "R7_html") for t in _ENCODED_CAPTIONS),
        ],
    )
    def test_each_rule_fires_alone(self, overrides, cfg_overrides, rule):
        v = filter_pair(make_record(**overrides), make_config(**cfg_overrides))
        assert (v.decision, v.rule_id) == (DROP, rule)

    def test_first_failing_rule_wins(self):
        # fails script, emoji, and length; script is listed first
        r = make_record(text="п\U0001f642")
        v = filter_pair(r, make_config())
        assert v.rule_id == "R4_script"

    def test_emoji_not_attributed_to_script_rule(self):
        v = filter_pair(make_record(text="\U0001f43b in the woods"), make_config())
        assert v.rule_id == "R5_emoji"

    def test_length_measured_after_html_cleanup(self):
        # raw text is long enough, cleaned text is not
        r = make_record(text="<p><b><i>hey</i></b></p>")
        v = filter_pair(r, make_config())
        assert v.rule_id == "R6_length"

    def test_pattern_checked_on_cleaned_text(self):
        r = make_record(text="visit &lt;SITE&gt; for more cats")
        cfg = make_config(banned_patterns=("<SITE>",))
        assert filter_pair(r, cfg).rule_id == "R8_pattern"

    def test_question_mark_wildcard(self):
        cfg = make_config(banned_patterns=("c?t speaks",))
        assert filter_pair(make_record(text="the cat speaks loudly"), cfg).rule_id == "R8_pattern"

    def test_missing_dims_raises_when_size_rules_enabled(self):
        r = make_record(image_width=None, image_height=None)
        with pytest.raises(IncompleteRecord):
            filter_pair(r, make_config())

    def test_missing_dims_ok_when_size_rules_disabled(self):
        r = make_record(image_width=None, image_height=None)
        cfg = make_config(max_aspect_ratio=None, min_side_px=None)
        assert filter_pair(r, cfg).decision == KEEP

    def test_chinese_text_is_allowed_by_default(self):
        r = make_record(text="一只猫坐在沙发上", language="zh")
        assert filter_pair(r, make_config()).decision == KEEP

    def test_deterministic(self):
        r = make_record(text="\U0001f642 nice day")
        cfg = make_config()
        assert filter_pair(r, cfg) == filter_pair(r, cfg)


# Tag and entity fragments, whole and broken, and the text around them.
_HTML_PIECES = ("<", ">", "&", ";", "<b>", "</b>", "<br/>", "a", " ", "\u00e9", "lt", "gt",
                "amp", "&lt;", "&gt;", "&quot;", "&apos;", "&amp;", "&amp;lt;", "&#60;")


class TestCleanHtmlText:
    def test_strips_tags_and_decodes_entities(self):
        assert clean_html_text("<b>fish &amp; chips</b>  ") == "fish & chips"

    def test_amp_decoded_last(self):
        assert clean_html_text("&amp;lt;") == "&lt;"

    def test_every_entity_starts_with_an_ampersand(self):
        # clean_html_text decodes entities only in text holding a "&".
        assert all(entity.startswith("&") for entity, _ in filters._HTML_ENTITIES)

    @given(text=st.lists(st.sampled_from(_HTML_PIECES), max_size=12).map("".join))
    @settings(max_examples=500)
    def test_matches_the_unguarded_expression(self, text):
        out = filters._HTML_TAG_RE.sub("", text)
        for entity, ch in filters._HTML_ENTITIES:
            out = out.replace(entity, ch)
        assert clean_html_text(text) == out.strip()


def _encode(text):
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


_TAGS = RESERVED_LITERALS + FilterConfig().special_tags
# Each reserved literal and special tag, entity-encoded once and twice.
_ENCODED_TAGS = tuple(_encode(t) for t in _TAGS) + tuple(_encode(_encode(t)) for t in _TAGS)
_CLEAN_PIECES = _HTML_PIECES + _TAGS + _ENCODED_TAGS
clean_texts = st.lists(st.sampled_from(_CLEAN_PIECES), max_size=12).map("".join)
# No bare "<" or ">", so no tag can span the pieces around an encoded one.
bracketless_texts = st.lists(st.sampled_from(
    [p for p in _CLEAN_PIECES if p not in ("<", ">")]), max_size=6).map("".join)


class TestCleanIsItsOwnFixedPoint:
    @given(text=clean_texts)
    @example(text=_ENCODED_CAPTIONS[0])
    @example(text=_ENCODED_CAPTIONS[1])
    @example(text=_ENCODED_CAPTIONS[2])
    @settings(max_examples=500)
    def test_a_kept_record_is_kept_again_and_builds_its_caption_task(self, text):
        cfg = make_config()
        first = _clean_one(cfg, make_record(text=text))
        if first.status == "kept":
            again = _clean_one(cfg, CorpusRecord.from_json(json.loads(first.line)))
            assert (again.status, again.line) == ("kept", first.line)
            caption = json.loads(first.line)["text"]
            build_task_sample("caption", {"image": "img/0.jpg", "caption": caption})

    @given(prefix=bracketless_texts, tag=st.sampled_from(_ENCODED_TAGS), suffix=bracketless_texts)
    @example(prefix="a photo of ", tag="&lt;PERSON&gt;", suffix=" standing in the rain")
    @example(prefix="the ", tag="&lt;ref&gt;", suffix="green park&lt;/ref&gt; at noon")
    @example(prefix="an icon ", tag="&amp;lt;img&amp;gt;", suffix=" on a page")
    @settings(max_examples=500)
    def test_a_text_holding_an_encoded_tag_is_never_kept(self, prefix, tag, suffix):
        outcome = _clean_one(make_config(), make_record(text=prefix + tag + suffix))
        assert outcome.status == "dropped"


class TestSpecialTags:
    def test_tag_hit(self):
        v = check_special_tags(make_record(text="a photo of <PERSON>"), make_config())
        assert (v.decision, v.rule_id) == (DROP, "T_special_tag")

    def test_plain_text_kept(self):
        v = check_special_tags(make_record(text="a photo of a person"), make_config())
        assert v.decision == KEEP

    def test_empty_tag_list_keeps_everything(self):
        cfg = make_config(special_tags=())
        v = check_special_tags(make_record(text="a photo of <PERSON>"), cfg)
        assert v.decision == KEEP


class TestSelectLongestCaption:
    def test_longest_wins(self):
        group = [
            make_record(id="a", text="a cat", group_key="g"),
            make_record(id="b", text="a cat on a mat", group_key="g"),
        ]
        assert select_longest_caption(group).id == "b"

    def test_single_record(self):
        r = make_record(group_key="g")
        assert select_longest_caption([r]) is r

    def test_tie_breaks_to_smallest_id(self):
        group = [
            make_record(id="2", text="abc", group_key="g"),
            make_record(id="1", text="xyz", group_key="g"),
        ]
        assert select_longest_caption(group).id == "1"

    def test_empty_group(self):
        with pytest.raises(EmptyGroup):
            select_longest_caption([])


class TestDocumentText:
    def test_pdf_drops_latin_extended(self):
        r = make_record(text="naāve extraction")
        v = filter_document_text(r, "pdf", make_config())
        assert (v.decision, v.rule_id) == (DROP, "P_latin_ext")

    def test_html_keeps_latin_extended(self):
        r = make_record(text="naāve extraction")
        assert filter_document_text(r, "html", make_config()).decision == KEEP

    @pytest.mark.parametrize("kind", ["pdf", "html"])
    def test_pua_dropped_for_both_kinds(self, kind):
        r = make_record(text="report  follows")
        v = filter_document_text(r, kind, make_config())
        assert (v.decision, v.rule_id) == (DROP, "P_pua")

    @pytest.mark.parametrize("kind", ["pdf", "html"])
    def test_char_count_bounds(self, kind):
        v = filter_document_text(make_record(text="hi"), kind, make_config())
        assert (v.decision, v.rule_id) == (DROP, "P_charcount")
        v = filter_document_text(make_record(text="x" * 2000), kind, make_config())
        assert (v.decision, v.rule_id) == (DROP, "P_charcount")

    def test_clean_document_kept(self):
        r = make_record(text="an ordinary page of extracted text")
        assert filter_document_text(r, "pdf", make_config()).decision == KEEP

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            filter_document_text(make_record(), "docx", make_config())


@pytest.mark.parametrize("decision, rule_id", [(DROP, None), (KEEP, "R1_min_side")])
def test_verdict_names_a_rule_exactly_when_it_drops(decision, rule_id):
    with pytest.raises(ValueError):
        FilterVerdict(decision, rule_id)


@pytest.mark.parametrize("field, value, message", [
    ("emoji_ranges", (("12", "20"),), "pairs of integers"),
    ("emoji_ranges", ((True, 5),), "pairs of integers"),
    ("emoji_ranges", ((1.9, 5.2),), "pairs of integers"),
    ("emoji_ranges", ((1, 2, 3),), "pairs of integers"),
    ("emoji_ranges", [[0, 10, 20]], "pairs of integers"),  # a list is taken, its pairs checked
    ("allowed_scripts", "cjk", "list of strings"),
    ("allowed_scripts", {"cjk": 1}, "list of strings"),
    ("allowed_scripts", frozenset({1}), "list of strings"),
])
def test_wrongly_typed_config_is_refused_when_built(field, value, message):
    # Not coerced, and not left to fail in every later filter_pair call.
    with pytest.raises(TypeError, match=message):
        make_config(**{field: value})


def test_config_built_from_lists_is_frozen_into_the_config_built_from_tuples():
    # JSON gives lists. The caller's lists changing later, before the rules
    # compile, must change neither the config nor a verdict.
    patterns, tags, ranges = ["*stock photo*"], ["<PERSON>"], [[0x1F300, 0x1F5FF]]
    cfg = make_config(banned_patterns=patterns, special_tags=tags, emoji_ranges=ranges)
    patterns.append("*cat*")
    tags.append("sofa")
    ranges[0][0] = 0x61  # "a" onwards would be emoji
    ranges.append([0x20, 0x7E])
    assert cfg == make_config(banned_patterns=("*stock photo*",), special_tags=("<PERSON>",),
                              emoji_ranges=((0x1F300, 0x1F5FF),))
    record = make_record()
    assert filter_pair(record, cfg).kept and check_special_tags(record, cfg).kept
    assert filter_pair(make_record(text="a sofa \U0001F305"), cfg).rule_id == "R5_emoji"


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field", ["max_aspect_ratio", "min_side_px", "min_chars", "max_chars",
                                   "clip_thresholds"])
def test_non_finite_threshold_is_refused_when_built(field, value):
    with pytest.raises(ValueError):
        make_config(**{field: {"laion-en": value} if field == "clip_thresholds" else value})


@pytest.mark.parametrize("field", ["min_chars", "max_chars"])
def test_null_length_limit_is_refused_when_built(field):
    # None disables other rules; R6 has no off switch, and a None bound
    # failed later with a comparison error.
    with pytest.raises(TypeError) as e:
        make_config(**{field: None})
    assert str(e.value) == "min_chars and max_chars must be numbers, not null"


@pytest.mark.parametrize("field", ["banned_patterns", "special_tags"])
def test_empty_pattern_or_tag_is_refused_when_built(field):
    # Every text contains "": such a config used to drop every record.
    with pytest.raises(ValueError) as e:
        FilterConfig(**{field: ("<SPAM>", "")})
    assert str(e.value) == f"{field} holds an empty string, which every text contains"


def test_huge_integer_threshold_is_accepted():
    # math.isfinite(10**400) would raise OverflowError
    cfg = make_config(max_chars=10**400)
    assert filter_pair(make_record(), cfg).decision == KEEP


def box(seed: int) -> GridBox:
    return GridBox(seed % 400, seed % 300, seed % 400 + 100, seed % 300 + 100)


def span(start, end, n_regions, seed=0):
    return RefSpan(start, end, tuple(box(seed + i) for i in range(n_regions)))


class TestDenestGrit:
    def test_inner_span_with_more_regions_wins(self):
        caption = "x" * 21
        a = span(0, 20, 1, seed=1)
        b = span(5, 9, 2, seed=7)
        nodes = denest_grit(caption, [a, b])
        assert nodes == [
            Text(caption[0:5]),
            Ref(caption[5:9], b.regions),
            Text(caption[9:]),
        ]

    def test_disjoint_spans_unchanged(self):
        caption = "the cat and the dog"
        a = span(4, 7, 1, seed=1)
        b = span(16, 19, 1, seed=2)
        nodes = denest_grit(caption, [a, b])
        refs = [n for n in nodes if isinstance(n, Ref)]
        assert [r.content for r in refs] == ["cat", "dog"]

    def test_nested_equal_counts_keep_outermost_longest(self):
        caption = "abcdefghij"
        outer, mid, inner = span(0, 10, 1), span(2, 8, 1), span(4, 6, 1)
        nodes = denest_grit(caption, [inner, outer, mid])
        assert nodes == [Ref(caption, outer.regions)]

    def test_no_spans_gives_plain_text(self):
        assert denest_grit("hello", []) == [Text("hello")]

    def test_span_past_caption_rejected(self):
        with pytest.raises(ValueError):
            denest_grit("abc", [span(0, 10, 1)])

    @pytest.mark.parametrize("start, end, n_regions", [(3, 3, 1), (-1, 2, 1), (0, 2, 0)])
    def test_invalid_span_rejected(self, start, end, n_regions):
        with pytest.raises(ValueError):
            span(start, end, n_regions)

    @given(data=st.data())
    @settings(max_examples=300)
    def test_output_spans_never_overlap_and_text_is_preserved(self, data):
        caption_len = data.draw(st.integers(1, 30))
        caption = "abcdefghijklmnopqrstuvwxyz1234"[:caption_len]
        n = data.draw(st.integers(0, 6))
        spans = []
        for _ in range(n):
            start = data.draw(st.integers(0, caption_len - 1))
            end = data.draw(st.integers(start + 1, caption_len))
            k = data.draw(st.integers(1, 3))
            spans.append(span(start, end, k, seed=data.draw(st.integers(0, 50))))
        nodes = denest_grit(caption, spans)

        # all input text survives, in order
        assert "".join(n_.content for n_ in nodes) == caption

        # kept refs never overlap: rebuild their intervals by walking the AST
        pos, intervals = 0, []
        for node in nodes:
            if isinstance(node, Ref):
                intervals.append((pos, pos + len(node.content)))
            pos += len(node.content)
        for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
            assert e1 <= s2

        # no invented regions
        input_regions = {r for s in spans for r in s.regions}
        for node in nodes:
            if isinstance(node, Ref):
                assert set(node.regions) <= input_regions


class TestRecordJson:
    def test_round_trip(self):
        r = make_record(group_key="g7")
        assert CorpusRecord.from_json(r.to_json()) == r

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            CorpusRecord.from_json({"id": "x", "text": "t", "bogus": 1})

    @pytest.mark.parametrize(
        "field,value",
        [
            ("id", 7), ("text", 12345), ("text", None), ("dataset", ["laion"]),
            ("language", {"en": 1}), ("image_key", 3.5),
            ("image_width", "512"), ("image_height", 512.0), ("image_width", True),
            ("clip_score", "0.3"), ("clip_score", False), ("group_key", 9),
        ],
    )
    def test_wrongly_typed_field_rejected(self, field, value):
        d = make_record().to_json()
        d[field] = value
        with pytest.raises(ValueError):
            CorpusRecord.from_json(d)

    def test_null_optionals_and_integer_clip_score_accepted(self):
        d = dict(make_record().to_json(), image_width=None, image_height=None,
                 clip_score=1, group_key=None)
        assert CorpusRecord.from_json(d).clip_score == 1

    def test_bad_language_rejected(self):
        with pytest.raises(ValueError):
            make_record(language="fr")

    def test_nonpositive_dims_rejected(self):
        with pytest.raises(ValueError):
            make_record(image_width=0)

    def test_unknown_field_message_lists_every_unknown_field_sorted(self):
        with pytest.raises(ValueError) as e:
            CorpusRecord.from_json({"id": "x", "zeta": 1, "text": "t", "bogus": 2})
        assert str(e.value) == "unknown record fields: ['bogus', 'zeta']"

    @pytest.mark.parametrize("dims, message", [
        ({"image_width": 0}, "image_width must be positive when present, got 0"),
        ({"image_width": -3}, "image_width must be positive when present, got -3"),
        ({"image_height": 0}, "image_height must be positive when present, got 0"),
        ({"image_height": -3}, "image_height must be positive when present, got -3"),
        ({"image_width": 0, "image_height": -1}, "image_width must be positive when present, got 0"),
    ])
    def test_nonpositive_dim_message(self, dims, message):
        with pytest.raises(ValueError) as e:
            CorpusRecord.from_json(dict(make_record().to_json(), **dims))
        assert str(e.value) == message


class TestRecordJsonClipScore:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_clip_score_rejected(self, value):
        d = dict(make_record().to_json(), clip_score=value)
        with pytest.raises(ValueError, match="finite"):
            CorpusRecord.from_json(d)

    def test_huge_integer_clip_score_accepted(self):
        d = dict(make_record().to_json(), clip_score=10**400)
        assert CorpusRecord.from_json(d).clip_score == 10**400


# ---------------------------------------------------------------------------
# Per-character reference implementations of filter_pair and
# filter_document_text, rule for rule: the compiled character classes and
# cached patterns must give the same verdicts.

def _ref_in_ranges(cp, ranges):
    return any(lo <= cp <= hi for lo, hi in ranges)


def _ref_pattern(pattern):
    parts = re.split(r"([*?])", pattern)
    return re.compile(
        "".join(".*" if p == "*" else "." if p == "?" else re.escape(p) for p in parts),
        re.DOTALL,
    )


def reference_filter_pair(r, cfg):
    if cfg.max_aspect_ratio is not None:
        w, h = r.image_width, r.image_height
        ratio = max(w, h) / min(w, h)
        if ratio > cfg.max_aspect_ratio:
            return (DROP, "R1_aspect", f"aspect ratio {ratio:.2f} > {cfg.max_aspect_ratio}")
    if cfg.min_side_px is not None:
        w, h = r.image_width, r.image_height
        if min(w, h) < cfg.min_side_px:
            return (DROP, "R2_small", f"min side {min(w, h)}px < {cfg.min_side_px}px")
    threshold = cfg.clip_thresholds.get(r.dataset)
    if threshold is not None and r.clip_score is not None and r.clip_score < threshold:
        return (DROP, "R3_clip", f"clip score {r.clip_score} < {threshold} ({r.dataset})")
    for ch in r.text:
        cp = ord(ch)
        if not _ref_in_ranges(cp, cfg.allowed_ranges) and not _ref_in_ranges(cp, cfg.emoji_ranges):
            return (DROP, "R4_script", f"character U+{cp:04X} outside allowed scripts")
    for ch in r.text:
        if _ref_in_ranges(ord(ch), cfg.emoji_ranges):
            return (DROP, "R5_emoji", f"emoji character U+{ord(ch):04X}")
    cleaned = clean_html_text(r.text)
    if not cleaned and r.text.strip():
        return (DROP, "R7_html", "nothing left after HTML cleanup")
    n = len(cleaned)
    if n < cfg.min_chars or n > cfg.max_chars:
        return (DROP, "R6_length", f"{n} chars outside [{cfg.min_chars}, {cfg.max_chars}]")
    for pattern in cfg.banned_patterns:
        if _ref_pattern(pattern).search(cleaned):
            return (DROP, "R8_pattern", f"matches banned pattern {pattern!r}")
    if clean_html_text(cleaned) != cleaned:
        return (DROP, "R7_html", "markup left after HTML cleanup")
    return (KEEP, None, "")


def reference_filter_document_text(r, kind, cfg):
    n = len(r.text)
    if n < cfg.min_chars or n > cfg.max_chars:
        return (DROP, "P_charcount", f"{n} chars outside [{cfg.min_chars}, {cfg.max_chars}]")
    if kind == "pdf":
        for ch in r.text:
            if _ref_in_ranges(ord(ch), (LATIN_EXT_A, LATIN_EXT_B)):
                return (DROP, "P_latin_ext", f"Latin Extended character U+{ord(ch):04X}")
    for ch in r.text:
        if _ref_in_ranges(ord(ch), (PUA,)):
            return (DROP, "P_pua", f"Private Use Area character U+{ord(ch):04X}")
    return (KEEP, None, "")


def as_tuple(v):
    return (v.decision, v.rule_id, v.detail)


# Code points on and next to every range boundary the rules use, plus
# surrogates, the top of the code space, newlines and markup.
EDGE_CHARS = (
    "\x00\x7f\x80\xff\u0100\u017f\u0180\u024f\u0250"  # Latin blocks
    "\u25ff\u2600\u27bf\u27c0\ufe00\ufe0f\ufe10"  # BMP emoji ranges
    "\u2fff\u3000\u303f\u4e00\u9fff\uff00\uffef"  # CJK blocks
    "\ud800\udfff\ue000\uf8ff\uf900"  # surrogates, Private Use Area
    "\U0001f300\U0001f642\U0001faff\U0010fff0\U0010ffff"  # astral
    " a\n<>&;"
)
texts = st.text(
    alphabet=st.one_of(st.characters(exclude_categories=()), st.sampled_from(EDGE_CHARS)),
    max_size=40,
)
range_bounds = st.one_of(
    st.integers(-0x20, sys.maxunicode + 0x20),
    st.sampled_from([-1, 0, 0x7F, 0x80, 0xD800, 0xDFFF, 0x1F642, sys.maxunicode,
                     sys.maxunicode + 1, 2_000_000]),
)
emoji_ranges = st.one_of(
    st.just(DEFAULT_EMOJI_RANGES),
    st.lists(st.tuples(range_bounds, range_bounds), max_size=4).map(tuple),
)
filter_configs = st.builds(
    FilterConfig,
    max_aspect_ratio=st.sampled_from([None, 3.0]),
    min_side_px=st.sampled_from([None, 224]),
    allowed_scripts=st.frozensets(st.sampled_from(sorted(SCRIPT_BLOCKS))),
    emoji_ranges=emoji_ranges,
    min_chars=st.integers(0, 6),
    # Never "", which FilterConfig refuses (test_empty_pattern_or_tag_is_refused_when_built).
    banned_patterns=st.lists(st.text(alphabet="ab*?<&", min_size=1, max_size=4),
                             max_size=3).map(tuple),
)


class TestCompiledRulesMatchReference:
    @given(text=texts, cfg=filter_configs)
    @settings(max_examples=300, deadline=None)
    def test_verdicts_equal_per_character_reference(self, text, cfg):
        r = make_record(text=text)
        assert as_tuple(filter_pair(r, cfg)) == reference_filter_pair(r, cfg)
        for kind in ("pdf", "html"):
            got = as_tuple(filter_document_text(r, kind, cfg))
            assert got == reference_filter_document_text(r, kind, cfg)

    def test_ranges_changed_through_replace_take_effect(self):
        cfg = make_config()
        r = make_record(text="\U0001f642 nice day")
        assert filter_pair(r, cfg).rule_id == "R5_emoji"
        cfg = dataclasses.replace(cfg, emoji_ranges=())
        assert as_tuple(filter_pair(r, cfg)) == (
            DROP, "R4_script", "character U+1F642 outside allowed scripts"
        )
        cfg = dataclasses.replace(cfg, allowed_scripts=frozenset())
        assert filter_pair(r, cfg).detail == "character U+1F642 outside allowed scripts"
        cfg = dataclasses.replace(cfg, emoji_ranges=((0, sys.maxunicode),))
        assert filter_pair(r, cfg).detail == "emoji character U+1F642"

    @pytest.mark.parametrize("field, value", [
        ("emoji_ranges", ()), ("allowed_scripts", frozenset()), ("banned_patterns", ("cat",)),
        ("min_chars", 0),
    ])
    def test_assigning_to_a_config_field_raises(self, field, value):
        cfg = make_config()
        assert filter_pair(make_record(), cfg).decision == KEEP  # its rules are compiled
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, field, value)
        assert cfg == make_config()
        assert filter_pair(make_record(), cfg).decision == KEEP

    def test_rules_compile_once_per_config(self, monkeypatch):
        compiled = []
        glob_pieces = filters._glob_pieces
        monkeypatch.setattr(filters, "_glob_pieces",
                            lambda pattern: compiled.append(pattern) or glob_pieces(pattern))
        patterns = tuple(f"spam {i}*eggs" for i in range(300))
        cfg = make_config(banned_patterns=patterns)
        r = make_record()
        assert all(filter_pair(r, cfg).decision == KEEP for _ in range(1000))
        assert compiled == list(patterns)

        # A replaced config compiles its own rules; the original keeps its own.
        other = dataclasses.replace(cfg, banned_patterns=patterns[:-1] + ("a cat*sofa",))
        assert as_tuple(filter_pair(r, other)) == (
            DROP, "R8_pattern", "matches banned pattern 'a cat*sofa'"
        )
        assert len(compiled) == 600
        assert filter_pair(r, cfg).decision == KEEP
        assert len(compiled) == 600

    def test_allowed_scripts_are_held_as_a_frozenset(self):
        # A list or set given by the caller could change after the rules compile.
        scripts = {"latin_basic"}
        cfg = make_config(allowed_scripts=scripts)
        assert filter_pair(make_record(), cfg).decision == KEEP
        scripts.clear()
        assert cfg.allowed_scripts == frozenset({"latin_basic"})
        assert make_config(allowed_scripts=["cjk", "cjk"]).allowed_scripts == frozenset({"cjk"})
        assert filter_pair(make_record(), cfg).decision == KEEP

    def test_clean_with_degenerate_ranges_matches_reference(self, tmp_path):
        # Inverted, negative and past-the-code-space emoji ranges, no scripts:
        # U+0000..U+0030 and U+10FFF0..U+10FFFF count as emoji, all else is foreign.
        captions = ["!!! ((( ///", "a cat", "\U0010fff5 ok", "\U0010fff5\U0010ffff 0000", ""]
        records = [
            {"id": f"t{i}", "text": t, "image_width": 512, "image_height": 512}
            for i, t in enumerate(captions)
        ]
        src = tmp_path / "in.jsonl"
        src.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        filt = {"emoji_ranges": [[5, 2], [-10, 48], [1114096, 2000000]], "allowed_scripts": []}
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"filter": filt}), encoding="utf-8")
        out, verdicts = tmp_path / "out.jsonl", tmp_path / "v.jsonl"
        rc = cli_main(["clean", "-i", str(src), "-o", str(out), "--config", str(config),
                       "--verdicts", str(verdicts)])
        assert rc == 0
        assert out.read_bytes() == b""

        got = [json.loads(line) for line in verdicts.read_text(encoding="utf-8").splitlines()]
        cfg = FilterConfig(allowed_scripts=frozenset(),
                           emoji_ranges=((5, 2), (-10, 48), (1114096, 2000000)))
        expected = [reference_filter_pair(CorpusRecord.from_json(r), cfg) for r in records]
        assert [(v["decision"], v["rule_id"], v["detail"]) for v in got] == expected
        assert expected == [
            (DROP, "R5_emoji", "emoji character U+0021"),
            (DROP, "R4_script", "character U+0061 outside allowed scripts"),
            (DROP, "R4_script", "character U+006F outside allowed scripts"),
            (DROP, "R5_emoji", "emoji character U+10FFF5"),
            (DROP, "R6_length", "0 chars outside [5, 1024]"),
        ]


class TestSharedKeepVerdict:
    """Kept records share one keep verdict; it is frozen, so none can change it."""

    @given(text=texts, cfg=filter_configs,
           tags=st.lists(st.text(alphabet="<>ab", min_size=1, max_size=3), max_size=2).map(tuple))
    @settings(max_examples=200, deadline=None)
    def test_every_keep_verdict_is_the_plain_keep_verdict(self, text, cfg, tags):
        r = make_record(text=text)
        cfg = dataclasses.replace(cfg, special_tags=tags)
        for verdict in (filter_pair(r, cfg), check_special_tags(r, cfg)):
            if verdict.kept:
                assert verdict == FilterVerdict(KEEP)
                assert (verdict.decision, verdict.rule_id, verdict.detail) == (KEEP, None, "")

    def test_assigning_to_a_keep_verdict_raises(self):
        verdict = filter_pair(make_record(), make_config())
        with pytest.raises(dataclasses.FrozenInstanceError):
            verdict.decision = DROP
        with pytest.raises(dataclasses.FrozenInstanceError):
            check_special_tags(make_record(), make_config()).rule_id = "R1_aspect"
        assert check_special_tags(make_record(), make_config()) == FilterVerdict(KEEP)

    def test_drop_verdicts_are_separate_and_carry_their_own_detail(self):
        cfg = make_config(special_tags=("<PERSON>", "<ORG>"), banned_patterns=("buy*now",))
        tagged = [check_special_tags(make_record(text=t), cfg)
                  for t in ("a <PERSON> here", "an <ORG> there", "a <PERSON> here")]
        assert [v.detail for v in tagged] == ["contains special tag '<PERSON>'",
                                              "contains special tag '<ORG>'",
                                              "contains special tag '<PERSON>'"]
        short, banned = (filter_pair(make_record(text=t), cfg)
                         for t in ("a", "buy a cat now"))
        assert (short.rule_id, short.detail) == ("R6_length", "1 chars outside [5, 1024]")
        assert (banned.rule_id, banned.detail) == ("R8_pattern", "matches banned pattern 'buy*now'")
        drops = [*tagged, short, banned]
        assert len({id(v) for v in drops}) == len(drops)


# Globs drawn from a small alphabet so that they often match, newlines and
# literal regex metacharacters included; never "", which FilterConfig refuses.
glob_texts = st.text(alphabet="ab\n?*.", max_size=30)
globs = st.lists(st.text(alphabet="ab*?\n.", min_size=1, max_size=6), max_size=3).map(tuple)


class TestLinearTimeRules:
    @given(text=glob_texts, patterns=globs)
    @settings(max_examples=300, deadline=None)
    def test_glob_verdicts_equal_backtracking_regex(self, text, patterns):
        r = make_record(text=text)
        cfg = make_config(min_chars=0, banned_patterns=patterns)
        got = as_tuple(filter_pair(r, cfg))
        assert got == reference_filter_pair(r, cfg)
        cleaned = clean_html_text(text)
        first = next((p for p in patterns if _ref_pattern(p).search(cleaned)), None)
        assert got[1] == (None if first is None else "R8_pattern")

    def test_every_small_glob_on_every_small_text(self):
        # Exhaustive over a small scope: overlapping pieces ("ab*b" on "ab")
        # and "?" on a newline are rare under random draws.
        def words(alphabet, n):
            return ["".join(w) for k in range(n + 1) for w in itertools.product(alphabet, repeat=k)]
        records = [make_record(text=t) for t in words("ab\n", 5)]
        wrong = []
        for pattern in words("ab*?", 4):
            if not pattern:  # in every text, so refused
                with pytest.raises(ValueError):
                    make_config(min_chars=0, banned_patterns=(pattern,))
                continue
            cfg = make_config(min_chars=0, banned_patterns=(pattern,))
            regex = _ref_pattern(pattern)
            for r in records:
                expected = "R8_pattern" if regex.search(clean_html_text(r.text)) else None
                if filter_pair(r, cfg).rule_id != expected:
                    wrong.append((pattern, r.text))
        assert wrong == []

    @pytest.mark.parametrize("pattern, text", [
        ("a*b*c", "ab" * 512),
        ("*stock photo*", ("a stock phot " * 79)[:1024]),
    ], ids=["a*b*c", "stock-photo"])
    def test_worst_case_globs_are_linear(self, pattern, text):
        r = make_record(text=text)
        cfg = make_config(banned_patterns=(pattern,))
        assert as_tuple(filter_pair(r, cfg)) == reference_filter_pair(r, cfg)
        start = time.perf_counter()
        for _ in range(50):
            filter_pair(r, cfg)
        assert time.perf_counter() - start < 1.0

    def test_emoji_range_inside_an_allowed_block_is_emoji(self):
        # The one-scan shortcut must not pass "a" because latin_basic allows it.
        r = make_record(text="a cat")
        cfg = make_config(allowed_scripts=frozenset({"latin_basic"}), emoji_ranges=((0x61, 0x61),))
        assert as_tuple(filter_pair(r, cfg)) == (DROP, "R5_emoji", "emoji character U+0061")
        assert as_tuple(filter_pair(r, cfg)) == reference_filter_pair(r, cfg)

    def test_allowed_scripts_given_as_a_set(self):
        cfg = make_config(allowed_scripts={"latin_basic"})
        assert filter_pair(make_record(), cfg).decision == KEEP
        assert filter_pair(make_record(text="一只猫坐在沙发上"), cfg).rule_id == "R4_script"
