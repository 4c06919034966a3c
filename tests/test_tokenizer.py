import base64
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import dialogues, mask_from_spans, task_samples
from golden import CHATML_TURNS, TASK_FIXTURES
from vlprep.chat import AnnotatedText, build_chatml, build_task_sample, make_turn
from vlprep.errors import SpanAlignmentError
from vlprep.tokenizer import (
    N_BYTE_TOKENS,
    RESERVED_LITERALS,
    MockTokenizer,
    decode_token_ids,
    encode_token_ids,
    project_mask,
)


@pytest.fixture(scope="module")
def tok():
    return MockTokenizer()


def reference_decode(ids):
    """Reference decode, one id at a time: bytes gather in a run, and each
    literal id, or the end, decodes the run before it."""
    lit_of = {N_BYTE_TOKENS + k: lit for k, lit in enumerate(RESERVED_LITERALS)}
    parts = []
    buf = bytearray()
    for i in ids:
        if 0 <= i < N_BYTE_TOKENS:
            buf.append(i)
            continue
        if i not in lit_of:
            raise ValueError(f"token id {i} out of range")
        if buf:
            parts.append(buf.decode("utf-8"))
            buf.clear()
        parts.append(lit_of[i])
    if buf:
        parts.append(buf.decode("utf-8"))
    return "".join(parts)


def outcome(f, arg):
    """What ``f(arg)`` returns, or the class of what it raised."""
    try:
        return f(arg)
    except Exception as e:  # noqa: BLE001 - the class is the outcome
        return type(e)


_ID_OF = {lit: N_BYTE_TOKENS + k for k, lit in enumerate(RESERVED_LITERALS)}
_RESERVED_RE = re.compile("|".join(
    re.escape(lit) for lit in sorted(RESERVED_LITERALS, key=len, reverse=True)))


def reference_encode(text):
    """Reference MockTokenizer.encode: a greedy left-to-right regex scan for
    literals, with the UTF-8 bytes of the text between them."""
    ids = []
    pos = 0
    for m in _RESERVED_RE.finditer(text):
        ids.extend(text[pos : m.start()].encode("utf-8"))
        ids.append(_ID_OF[m.group()])
        pos = m.end()
    ids.extend(text[pos:].encode("utf-8"))
    return ids


def reference_project_mask(annotated):
    """Reference project_mask with MockTokenizer: encode span by span, extend
    the last loss span or open one, then check the decode of all the ids."""
    ids = []
    loss_spans = []
    for start, end, supervised in annotated.spans:
        span_ids = reference_encode(annotated.text[start:end])
        if supervised and span_ids:
            if loss_spans and loss_spans[-1][1] == len(ids):
                loss_spans[-1][1] += len(span_ids)
            else:
                loss_spans.append([len(ids), len(ids) + len(span_ids)])
        ids.extend(span_ids)
    if reference_decode(ids) != annotated.text:
        raise SpanAlignmentError("span-wise encoding does not reproduce the original text")
    return ids, loss_spans


# Pieces of text that literal matching can trip on: the literals, parts and
# near misses of them, multi-byte characters, and U+0100..U+010A, the code
# points MockTokenizer gives its literal ids internally.
_FRAGMENTS = RESERVED_LITERALS + (
    "<", ">", "/", "|", "<<", ">>", "</", "box", "img", "im_end", "eos",
    "é", "猫", "\U0001F305", "\u0100", "\u0105", "\u010a", "\x00",
)


# ASCII pieces for _code_points' ASCII branch: the ASCII fragments plus every
# proper prefix and suffix of each literal, near misses such as "<re" and "</bo".
_ASCII_FRAGMENTS = tuple(f for f in _FRAGMENTS if f.isascii()) + tuple(sorted({
    piece for lit in RESERVED_LITERALS for k in range(1, len(lit))
    for piece in (lit[:k], lit[k:])}))


def annotated(text, cuts=(), flags=None):
    """``text`` cut into spans at ``cuts``; spans are supervised by ``flags``,
    else every other one."""
    bounds = [0, *sorted(cuts), len(text)] if text else [0]
    pairs = list(zip(bounds, bounds[1:]))
    flags = flags or [k % 2 == 1 for k in range(len(pairs))]
    return AnnotatedText(text, tuple((a, b, f) for (a, b), f in zip(pairs, flags)))


@st.composite
def cut_texts(draw):
    """Texts of literal-like fragments, cut into spans at any characters."""
    text = "".join(draw(st.lists(
        st.one_of(st.sampled_from(_FRAGMENTS), st.text(max_size=3)), max_size=12)))
    cuts = draw(st.sets(st.integers(1, len(text) - 1), max_size=6)) if len(text) > 1 else ()
    n_spans = len(cuts) + 1 if text else 0
    flags = draw(st.lists(st.booleans(), min_size=n_spans, max_size=n_spans))
    return annotated(text, cuts, flags)


_VOCAB_SIZE = N_BYTE_TOKENS + len(RESERVED_LITERALS)
# Byte runs that are not UTF-8: a stray continuation byte, bytes never valid,
# sequences cut short, an encoded surrogate, a code point past U+10FFFF.
_INVALID_UTF8 = ([0x80], [0xff], [0xc0, 0x80], [0xc3], [0xe7, 0x8c],
                 [0xed, 0xa0, 0x80], [0xf4, 0x90, 0x80, 0x80])
token_id_lists = st.lists(
    st.one_of(
        st.integers(-3, _VOCAB_SIZE + 3).map(lambda i: [i]),
        st.integers(N_BYTE_TOKENS, _VOCAB_SIZE - 1).map(lambda i: [i]),
        st.booleans().map(lambda b: [b]),
        st.sampled_from(_INVALID_UTF8).map(list),
        st.text(max_size=4).map(lambda t: list(t.encode("utf-8"))),
    ),
    max_size=12,
).map(lambda runs: [i for run in runs for i in run])


class TestMockTokenizer:
    def test_vocab_size(self, tok):
        assert tok.vocab_size == 256 + 11

    def test_plain_ascii_is_bytes(self, tok):
        assert tok.encode("ab") == [97, 98]

    def test_reserved_literals_are_atomic(self, tok):
        for i, lit in enumerate(RESERVED_LITERALS):
            assert tok.encode(lit) == [N_BYTE_TOKENS + i]

    def test_no_literal_is_substring_of_another(self):
        for a in RESERVED_LITERALS:
            for b in RESERVED_LITERALS:
                if a != b:
                    assert a not in b

    def test_no_two_literal_occurrences_can_overlap(self):
        # MockTokenizer replaces one literal after another: that equals a
        # greedy left-to-right scan only while occurrences cannot overlap.
        for lit in RESERVED_LITERALS:
            assert lit.isascii()
            assert lit[0] == "<" and lit[-1] == ">"
            assert "<" not in lit[1:] and ">" not in lit[:-1]

    def test_mixed_text(self, tok):
        ids = tok.encode("a<box>b")
        assert ids == [97, tok.token_id("<box>"), 98]

    def test_multibyte_utf8(self, tok):
        text = "猫"
        ids = tok.encode(text)
        assert ids == list(text.encode("utf-8"))
        assert tok.decode(ids) == text

    def test_near_miss_is_not_reserved(self, tok):
        ids = tok.encode("<boxx>")
        assert all(i < N_BYTE_TOKENS for i in ids)

    def test_decode_rejects_out_of_range(self, tok):
        with pytest.raises(ValueError):
            tok.decode([9999])
        with pytest.raises(ValueError):
            tok.decode([-1])

    @given(ids=token_id_lists)
    @settings(max_examples=1000, deadline=None)
    def test_decode_matches_reference(self, tok, ids):
        assert outcome(tok.decode, ids) == outcome(reference_decode, ids)

    @pytest.mark.parametrize("ids, raised", [
        ([0xFF, 9999], ValueError),           # the id comes before any decode
        ([0xFF, 256, 9999], UnicodeDecodeError),  # <img> closes a bad run first
        ([0xFF, -1, 256], ValueError),
        ([97, 256, 0xC3, 267], ValueError),   # the open run is never decoded
        ([97, 0xC3], UnicodeDecodeError),
    ])
    def test_decode_raises_as_reference(self, tok, ids, raised):
        assert outcome(tok.decode, ids) is raised
        assert outcome(reference_decode, ids) is raised

    @pytest.mark.parametrize("bad", [1.0, "a", None])
    def test_decode_rejects_non_int_ids(self, tok, bad):
        with pytest.raises(TypeError):
            tok.decode([97, bad])
        assert outcome(reference_decode, [97, bad]) is TypeError

    def test_token_id_rejects_unknown(self, tok):
        with pytest.raises(KeyError):
            tok.token_id("<unk>")

    @given(
        st.text(
            alphabet=st.characters(codec="utf-8"),
            max_size=60,
        )
    )
    def test_round_trip(self, text):
        tok = MockTokenizer()
        assert tok.decode(tok.encode(text)) == text

    def test_round_trip_with_embedded_literals(self, tok):
        text = "x<ref>bees</ref><box>(1,2),(3,4)</box>y<|im_end|>"
        assert tok.decode(tok.encode(text)) == text

    @given(st.lists(st.one_of(st.sampled_from(_ASCII_FRAGMENTS),
                              st.characters(max_codepoint=127))).map("".join))
    @settings(max_examples=500)
    @example("<re<ref>f></bo</box>x>")
    @example("<<box>>")
    def test_ascii_text_encodes_as_the_reference(self, tok, text):
        ids = reference_encode(text)
        assert tok.encode(text) == ids
        assert tok._code_points(text) == "".join(map(chr, ids))

    @pytest.mark.parametrize("bad", [None, 7, b"ab", b"<box>", ["a"], ("a",)])
    def test_code_points_refuse_a_non_string(self, tok, bad):
        with pytest.raises(TypeError):
            tok._code_points(bad)

    @pytest.mark.parametrize("text", ["\ud800", "a\udfffb", "<box>\ud83d</box>"])
    def test_code_points_refuse_a_lone_surrogate(self, tok, text):
        with pytest.raises(UnicodeEncodeError):
            tok._code_points(text)


class TestProjectMask:
    def test_two_byte_example(self, tok):
        a = AnnotatedText("ab", ((0, 1, False), (1, 2, True)))
        ids, spans = project_mask(a, tok)
        mask = mask_from_spans(spans, len(ids))
        assert spans == [[1, 2]]
        assert ids == [97, 98]
        assert mask == [False, True]

    def test_lengths_match(self, tok):
        fx = TASK_FIXTURES["vqa"]
        sample = build_task_sample("vqa", fx["fields"])
        ids, spans = project_mask(sample, tok)
        mask = mask_from_spans(spans, len(ids))
        assert len(ids) == len(mask)

    def test_caption_mask_matches_character_membership(self, tok):
        fx = TASK_FIXTURES["caption"]
        sample = build_task_sample("caption", fx["fields"])
        ids, spans = project_mask(sample, tok)
        mask = mask_from_spans(spans, len(ids))
        # Independent recomputation: walk spans, expand each to its own ids.
        expected = []
        for start, end, supervised in sample.spans:
            expected.extend([supervised] * len(tok.encode(sample.text[start:end])))
        assert mask == expected
        supervised_chars = "the beautiful flowers for design."
        n_true = len(tok.encode(supervised_chars)) + 1  # plus the <eos> token
        assert sum(mask) == n_true

    def test_all_false_when_nothing_supervised(self, tok):
        a = AnnotatedText("hello", ((0, 5, False),))
        ids, spans = project_mask(a, tok)
        mask = mask_from_spans(spans, len(ids))
        assert spans == []
        assert mask == [False] * 5

    def test_decode_restores_text(self, tok):
        fx = TASK_FIXTURES["ocr"]
        sample = build_task_sample("ocr", fx["fields"])
        ids, _ = project_mask(sample, tok)
        assert tok.decode(ids) == sample.text

    def test_span_misalignment_detected(self):
        class LossyTokenizer:
            def encode(self, text):
                return [1] if text else []

            def decode(self, ids):
                return "?" * len(ids)

        a = AnnotatedText("ab", ((0, 1, False), (1, 2, True)))
        with pytest.raises(SpanAlignmentError):
            project_mask(a, LossyTokenizer())

    def test_mock_encoding_is_round_trip_checked(self):
        # A subclass keeps the check: a faulty encoding is caught.
        class UpperTokenizer(MockTokenizer):
            def _code_points(self, text):
                return text.upper()

        a = AnnotatedText("ab", ((0, 1, False), (1, 2, True)))
        with pytest.raises(SpanAlignmentError):
            project_mask(a, UpperTokenizer())

    @given(st.lists(st.one_of(st.sampled_from(_FRAGMENTS),
                              st.text(alphabet=st.characters(codec="utf-8")))))
    @settings(max_examples=300)
    @example(["\u0100", "<box>", "\u010a", "<eos>", "é猫"])
    @example(["<bo", "x>", "</", "img>"])
    def test_mock_span_encodings_decode_to_their_text(self, tok, parts):
        # The guarantee that lets the exact mock's projection skip its decode.
        joined = "".join(map(tok._code_points, parts))
        assert tok._text(joined) == "".join(parts)

    def test_exact_mock_projection_does_not_decode(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the exact mock's projection decoded")

        samples = [
            build_task_sample("grounded_caption", TASK_FIXTURES["grounded_caption"]["fields"]),
            build_chatml([make_turn(role, content, images)
                          for role, content, images in CHATML_TURNS]),
        ]
        monkeypatch.setattr(MockTokenizer, "_text", refuse)
        monkeypatch.setattr(MockTokenizer, "decode", refuse)
        for sample in samples:
            assert project_mask(sample, MockTokenizer()) == reference_project_mask(sample)

    def test_span_boundaries_are_token_boundaries(self):
        class MergingTokenizer:  # "ab" is one token
            def encode(self, text):
                return [1000 if t == "ab" else ord(t) for t in re.findall("ab|.", text)]

            def decode(self, ids):
                return "".join("ab" if i == 1000 else chr(i) for i in ids)

        a = AnnotatedText("xab", ((0, 2, False), (2, 3, True)))
        assert MergingTokenizer().encode(a.text) == [120, 1000]
        assert project_mask(a, MergingTokenizer()) == ([120, 97, 98], [[2, 3]])

    def test_reserved_literal_spanning_boundary_detected(self, tok):
        # A span boundary cutting through <eos> makes the pieces encode as
        # plain bytes; decode then differs from an atomic-literal encoding
        # only in ids, not text, so this stays legal. The error case needs a
        # genuinely lossy tokenizer, covered above; here we pin the legal
        # behaviour: byte-split literals still round-trip as text.
        a = AnnotatedText("<eos>", ((0, 2, False), (2, 5, True)))
        ids, spans = project_mask(a, tok)
        mask = mask_from_spans(spans, len(ids))
        assert tok.decode(ids) == "<eos>"
        assert len(ids) == 5
        assert mask == [False, False, True, True, True]

    @given(st.one_of(task_samples(),
                     dialogues().map(lambda case: build_chatml(case[0])),
                     cut_texts()))
    @settings(max_examples=300)
    @example(annotated("<boxx>"))
    @example(annotated("<<box>>", [1, 6]))
    @example(annotated("<<box>>", [3]))
    @example(annotated("</img", [2]))
    @example(annotated("<eos>", [2]))
    @example(annotated("\u0100<box>\u0105\u010a<eos>", [1, 6]))
    @example(annotated("a<eos>\ud800", [1]))
    @example(annotated("\ud800<eos>", [1]))
    def test_matches_the_reference_projection(self, sample):
        assert (outcome(lambda a: project_mask(a, MockTokenizer()), sample)
                == outcome(reference_project_mask, sample))

    def test_adjacent_supervised_spans_make_one_range(self, tok):
        a = AnnotatedText("abcd", ((0, 1, True), (1, 2, True), (2, 3, False), (3, 4, True)))
        assert project_mask(a, tok)[1] == [[0, 2], [3, 4]]

    @given(st.one_of(task_samples(), dialogues().map(lambda case: build_chatml(case[0]))))
    def test_loss_spans_are_the_maximal_runs_of_the_per_span_mask(self, sample):
        tok = MockTokenizer()
        ids, spans = project_mask(sample, tok)
        # Independent recomputation, as in the caption test above.
        expected = []
        for start, end, supervised in sample.spans:
            expected.extend([supervised] * len(tok.encode(sample.text[start:end])))
        assert mask_from_spans(spans, len(ids)) == expected
        for start, end in spans:
            assert type(start) is int and type(end) is int
            assert 0 <= start < end <= len(ids)  # non-empty, in range
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert end < start  # sorted, never adjacent


class TestTokenIdCodec:
    @given(st.lists(st.integers(0, 65535), max_size=600))
    @example([])
    @example([0])
    @example([65535])
    @example([0, 65535, 1, 256, 266])
    def test_round_trip_and_wire_form(self, ids):
        text = encode_token_ids(ids)
        # Standard padded base64 of little-endian uint16, whatever the host.
        wire = b"".join(i.to_bytes(2, "little") for i in ids)
        assert text == base64.b64encode(wire).decode("ascii")
        assert decode_token_ids(text) == ids

    @pytest.mark.parametrize("ids", [[-1], [65536], [3, 2**70], [1.5]])
    def test_encode_rejects_ids_outside_uint16(self, ids):
        with pytest.raises(ValueError, match=r"\[0, 65535\]"):
            encode_token_ids(ids)

    @pytest.mark.parametrize("text", [
        "AQA",            # missing padding
        "AQ",             # missing padding, one byte
        "A",              # one character past a quantum
        "=", "==",        # padding only
        "AQA=AQA=",       # data after padding
        "AQA=\n",         # trailing newline
        " AQA=",          # space
        "AQ-_",           # URL-safe alphabet
        "AQé=",           # non-ASCII
        "AQB=",           # unused bits set
        "AQ==",           # one byte: an odd count
        "AQAC",           # three bytes
    ])
    def test_decode_rejects(self, text):
        with pytest.raises(ValueError):
            decode_token_ids(text)

    @pytest.mark.parametrize("value", [[1, 2], b"AQA=", None])
    def test_decode_rejects_non_strings(self, value):
        with pytest.raises(TypeError):
            decode_token_ids(value)
