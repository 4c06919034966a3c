"""Deterministic record-level cleaning for web-crawled and document corpora.

Image-text pairs pass through eight ordered rules (aspect ratio, image size,
CLIP score, script, emoji, length, HTML residue, banned patterns); the first
violated rule is the one reported. HTML stripping and whitespace trimming are
transformations applied before the length/pattern checks, so those rules see
the cleaned text. Document text (pdf/html extractions) gets its own smaller
rule list keyed on character count and Unicode blocks.

Every function here is a pure function of (record, config): records can be
split across processes in any order and the verdicts are reproducible.

A banned pattern is a glob: ``*`` matches any run of characters, newlines
included, and ``?`` exactly one character. It matches anywhere in the
HTML-cleaned text, case-sensitively, and the first listed pattern that
matches is the one reported. The script, emoji and banned-pattern rules
(R4, R5, R8) take time linear in the caption length; no glob backtracks.

``FilterConfig`` is frozen, so it compiles the R4, R5 and R8 rules once, on
first use, and every later record reuses them: a record's cost grows
linearly with the number of banned patterns. ``dataclasses.replace`` makes a
changed config, which compiles its own rules. ``CorpusRecord`` is a dataclass
too; ``FilterVerdict`` and ``RefSpan`` are frozen value classes
(:mod:`vlprep.values`).
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Optional

from .errors import EmptyGroup, IncompleteRecord
from .grounding import MarkupNode, Ref, Region, Text
from .values import Value, set_field

KEEP = "keep"
DROP = "drop"

RULE_ASPECT = "R1_aspect"
RULE_SMALL = "R2_small"
RULE_CLIP = "R3_clip"
RULE_SCRIPT = "R4_script"
RULE_EMOJI = "R5_emoji"
RULE_LENGTH = "R6_length"
RULE_HTML = "R7_html"
RULE_PATTERN = "R8_pattern"
RULE_CHARCOUNT = "P_charcount"
RULE_LATIN_EXT = "P_latin_ext"
RULE_PUA = "P_pua"
RULE_SPECIAL_TAG = "T_special_tag"

LANGUAGES = ("en", "zh", "other")

# Named script blocks selectable in FilterConfig.allowed_scripts.
SCRIPT_BLOCKS: dict[str, tuple[tuple[int, int], ...]] = {
    "latin_basic": ((0x0000, 0x007F),),
    "latin_supplement": ((0x0080, 0x00FF),),
    "cjk": ((0x3000, 0x303F), (0x4E00, 0x9FFF), (0xFF00, 0xFFEF)),
}

# Emoji code points are attributed to the emoji rule, never the script rule.
DEFAULT_EMOJI_RANGES: tuple[tuple[int, int], ...] = (
    (0x2600, 0x26FF),  # miscellaneous symbols
    (0x2700, 0x27BF),  # dingbats
    (0xFE00, 0xFE0F),  # variation selectors
    (0x1F300, 0x1F5FF),  # symbols and pictographs
    (0x1F600, 0x1F64F),  # emoticons
    (0x1F680, 0x1F6FF),  # transport and map
    (0x1F900, 0x1F9FF),  # supplemental symbols
    (0x1FA70, 0x1FAFF),  # symbols and pictographs extended-A
)

LATIN_EXT_A = (0x0100, 0x017F)
LATIN_EXT_B = (0x0180, 0x024F)
PUA = (0xE000, 0xF8FF)

_HTML_TAG_RE = re.compile(r"<[^<>]*>")
# &amp; decoded last so "&amp;lt;" comes out as "&lt;", not "<".
_HTML_ENTITIES = (
    ("&lt;", "<"),
    ("&gt;", ">"),
    ("&quot;", '"'),
    ("&apos;", "'"),
    ("&amp;", "&"),
)


# JSON types accepted per CorpusRecord field; bool is never accepted.
_OPT_INT = (int, type(None))
_FIELD_TYPES = {
    "id": str, "text": str, "dataset": str, "language": str, "image_key": str,
    "image_width": _OPT_INT, "image_height": _OPT_INT,
    "clip_score": (int, float, type(None)), "group_key": (str, type(None)),
}


@dataclass
class CorpusRecord:
    """One image-text (or document-text) pair from a corpus stream."""

    id: str
    text: str
    dataset: str = ""
    image_width: Optional[int] = None
    image_height: Optional[int] = None
    language: str = "other"
    clip_score: Optional[float] = None
    image_key: str = ""
    group_key: Optional[str] = None

    def __post_init__(self) -> None:
        if self.language not in LANGUAGES:
            raise ValueError(f"language must be one of {LANGUAGES}, got {self.language!r}")
        if self.image_width is not None and self.image_width <= 0:
            raise ValueError(f"image_width must be positive when present, got {self.image_width}")
        if self.image_height is not None and self.image_height <= 0:
            raise ValueError(f"image_height must be positive when present, got {self.image_height}")

    def to_json(self) -> dict:
        """The record as a JSON object, without the fields that are ``None`` or ``""``.

        These are the fields ``clean`` writes for a kept record (with the
        cleaned text); ``cli._corpus_line`` writes them without json.dumps, and
        the property tests in ``tests/test_cli.py`` tie the two together.
        """
        d = {"id": self.id, "text": self.text}
        for k in ("dataset", "image_width", "image_height", "language", "clip_score",
                  "image_key", "group_key"):
            v = getattr(self, k)
            if v not in (None, ""):
                d[k] = v
        return d

    @classmethod
    def from_json(cls, d: dict) -> "CorpusRecord":
        """The record a JSON object holds; ValueError for an unknown field, a
        wrongly typed value or a non-finite ``clip_score``.

        Nearly every record has only known fields, so the set of unknown ones
        is built only for the error message.
        """
        if not d.keys() <= _RECORD_FIELDS:
            raise ValueError(f"unknown record fields: {sorted(d.keys() - _RECORD_FIELDS)}")
        for name, value in d.items():
            if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[name]):
                raise ValueError(f"field {name!r} has the wrong type {type(value).__name__}")
        score = d.get("clip_score")
        if isinstance(score, float) and not math.isfinite(score):
            raise ValueError(f"field 'clip_score' must be finite, got {score}")
        return cls(**d)


_RECORD_FIELDS = frozenset(CorpusRecord.__dataclass_fields__)


class FilterVerdict(Value):
    """Keep/drop decision with the first violated rule, if any."""

    __slots__ = ("decision", "rule_id", "detail")

    def __init__(self, decision: str, rule_id: Optional[str] = None, detail: str = "") -> None:
        if decision == DROP and rule_id is None:
            raise ValueError("a drop verdict must name the violated rule")
        if decision == KEEP and rule_id is not None:
            raise ValueError("a keep verdict must not name a rule")
        set_field(self, "decision", decision)
        set_field(self, "rule_id", rule_id)
        set_field(self, "detail", detail)

    @property
    def kept(self) -> bool:
        return self.decision == KEEP

    def to_json(self, record_id: str) -> dict:
        """The verdict line ``clean --verdicts`` writes for ``record_id``.

        ``cli._verdict_line`` writes these fields without json.dumps; the
        property tests in ``tests/test_cli.py`` tie the two together.
        """
        return {"id": record_id, "decision": self.decision,
                "rule_id": self.rule_id, "detail": self.detail}


_KEPT = FilterVerdict(KEEP)


def _keep() -> FilterVerdict:
    """The keep verdict. ``FilterVerdict`` is frozen, so every kept record
    shares this one instance instead of building its own."""
    return _KEPT


def _drop(rule_id: str, detail: str) -> FilterVerdict:
    return FilterVerdict(DROP, rule_id, detail)


@dataclass(frozen=True)
class FilterConfig:
    """Thresholds for the cleaning rules; None disables a rule, but not the
    length limits ``min_chars`` and ``max_chars``.

    A float threshold must be finite: a NaN or infinite one (JSON's ``NaN``,
    ``Infinity``, ``1e400``) would switch its rule off without a word.
    Integers of any size are accepted. An empty banned pattern or special
    tag is in every text and would drop every record, so it is a
    ``ValueError``.
    """

    max_aspect_ratio: Optional[float] = 3.0
    min_side_px: Optional[int] = 224
    clip_thresholds: dict[str, float] = field(default_factory=dict)
    allowed_scripts: frozenset[str] = frozenset({"latin_basic", "cjk"})
    emoji_ranges: tuple[tuple[int, int], ...] = DEFAULT_EMOJI_RANGES
    min_chars: int = 5
    max_chars: int = 1024
    banned_patterns: tuple[str, ...] = ()
    special_tags: tuple[str, ...] = ("<PERSON>",)

    def __post_init__(self) -> None:
        if not isinstance(self.clip_thresholds, dict):
            raise TypeError("clip_thresholds must map dataset names to numbers")
        # Numbers, or None for a disabled rule; True is not 1.
        numbers = (self.max_aspect_ratio, self.min_side_px, self.min_chars, self.max_chars,
                   *self.clip_thresholds.values())
        for value in numbers:
            if isinstance(value, bool) or not isinstance(value, (int, float, type(None))):
                raise TypeError(f"expected a number or null, got {type(value).__name__}")
        for key in ("banned_patterns", "special_tags"):
            strings = getattr(self, key)
            if not (isinstance(strings, tuple) and all(isinstance(s, str) for s in strings)):
                raise TypeError("banned_patterns and special_tags must be tuples of strings")
            if "" in strings:
                raise ValueError(f"{key} holds an empty string, which every text contains")
        if not (isinstance(self.allowed_scripts, (frozenset, set, list, tuple))
                and all(isinstance(s, str) for s in self.allowed_scripts)):
            raise TypeError("allowed_scripts must be a list of strings")
        # A set or list could change after the rules are compiled from it.
        object.__setattr__(self, "allowed_scripts", frozenset(self.allowed_scripts))
        if not (isinstance(self.emoji_ranges, tuple) and all(
                isinstance(pair, tuple) and len(pair) == 2 and all(type(v) is int for v in pair)
                for pair in self.emoji_ranges)):
            raise TypeError("emoji_ranges must be pairs of integers")
        if None in (self.min_chars, self.max_chars):  # the length rule cannot be disabled
            raise TypeError("min_chars and max_chars must be numbers, not null")
        if self.min_chars >= self.max_chars:
            raise ValueError("min_chars must be smaller than max_chars")
        if self.max_aspect_ratio is not None and self.max_aspect_ratio <= 1:
            raise ValueError("max_aspect_ratio must exceed 1")
        unknown = self.allowed_scripts - SCRIPT_BLOCKS.keys()
        if unknown:
            raise ValueError(f"unknown script blocks: {sorted(unknown)}")
        for value in numbers:  # math.isfinite would overflow on a huge int
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"thresholds must be finite, got {value}")

    @property
    def allowed_ranges(self) -> tuple[tuple[int, int], ...]:
        return tuple(r for name in sorted(self.allowed_scripts) for r in SCRIPT_BLOCKS[name])

    @cached_property
    def _rules(self) -> tuple[re.Pattern, re.Pattern, re.Pattern, tuple[tuple[str, tuple], ...]]:
        """The compiled R4/R5/R8 rules: (suspect, foreign, emoji, globs).

        ``suspect`` matches every character that is not both allowed and
        non-emoji, so a caption it does not match passes R4 and R5 in one scan.
        ``foreign`` (neither allowed nor emoji) and ``emoji`` are the two ordered
        searches that name the rule and the code point. ``globs`` pairs each
        banned pattern with its ``_glob_pieces``.
        """
        allowed = self.allowed_ranges
        plain = _clamped(allowed)  # the allowed ranges, minus every emoji range
        for cut_lo, cut_hi in _clamped(self.emoji_ranges):
            plain = [(lo2, hi2)
                     for lo, hi in plain
                     for lo2, hi2 in ((lo, min(hi, cut_lo - 1)), (max(lo, cut_hi + 1), hi))
                     if lo2 <= hi2]
        return (_char_class(tuple(plain), negate=True),
                _char_class(allowed + self.emoji_ranges, negate=True),
                _char_class(self.emoji_ranges),
                tuple((p, _glob_pieces(p)) for p in self.banned_patterns))


def _clamped(ranges: tuple[tuple[int, int], ...]) -> list[tuple[int, int]]:
    """Code-point ranges (inclusive) clipped to the code-point space; empty or
    inverted ones are dropped."""
    out = []
    for lo, hi in ranges:
        lo, hi = max(lo, 0), min(hi, sys.maxunicode)
        if lo <= hi:
            out.append((lo, hi))
    return out


@lru_cache(maxsize=64)
def _char_class(ranges: tuple[tuple[int, int], ...], negate: bool = False) -> re.Pattern:
    """Compile code-point ranges (inclusive) into one character-class regex.

    Ranges are clamped to the code-point space; empty or inverted ones match
    nothing, so an empty class never matches and its negation matches every
    character.
    """
    parts = [f"\\U{lo:08X}-\\U{hi:08X}" for lo, hi in _clamped(ranges)]
    if not parts:
        return re.compile(r"[\s\S]" if negate else "(?!)")
    return re.compile(f"[{'^' if negate else ''}{''.join(parts)}]")


def clean_html_text(text: str) -> str:
    """Strip angle-bracket tags, decode the five standard entities, trim."""
    out = _HTML_TAG_RE.sub("", text) if "<" in text else text
    if "&" in out:  # every entity starts with one
        for entity, ch in _HTML_ENTITIES:
            out = out.replace(entity, ch)
    return out.strip()


def _glob_pieces(pattern: str) -> tuple[str | re.Pattern, ...]:
    """A banned-pattern glob split at ``*`` into its non-empty pieces: a
    literal piece stays a string, one with ``?`` becomes a regex with one
    ``.`` (DOTALL) per ``?``."""
    pieces: list[str | re.Pattern] = []
    for piece in pattern.split("*"):
        if "?" in piece:
            pieces.append(re.compile(".".join(map(re.escape, piece.split("?"))), re.DOTALL))
        elif piece:
            pieces.append(piece)
    return tuple(pieces)


def _glob_search(pieces: tuple[str | re.Pattern, ...], text: str) -> bool:
    """Whether the glob split into ``pieces`` matches somewhere in ``text``.

    Every piece has a fixed length, so placing each at its leftmost position
    after the previous one finds a match whenever one exists: this decides
    what ``re.search`` of the glob as a ``.*`` regex decides, in one
    left-to-right pass.
    """
    pos = 0
    for piece in pieces:
        if type(piece) is str:
            start = text.find(piece, pos)
            if start < 0:
                return False
            pos = start + len(piece)
        else:
            m = piece.search(text, pos)
            if m is None:
                return False
            pos = m.end()
    return True


def _require_dims(r: CorpusRecord, rule: str) -> tuple[int, int]:
    if r.image_width is None or r.image_height is None:
        raise IncompleteRecord(f"record {r.id!r} lacks image dimensions needed by {rule}")
    return r.image_width, r.image_height


def filter_pair(r: CorpusRecord, cfg: FilterConfig) -> FilterVerdict:
    """Apply the eight pair-cleaning rules in order; report the first failure.

    HTML stripping and trimming run as transformations before the length and
    pattern rules. A record whose text is pure markup (nothing survives the
    cleanup) is attributed to the HTML rule rather than the length rule.
    """
    if cfg.max_aspect_ratio is not None:
        w, h = _require_dims(r, RULE_ASPECT)
        ratio = max(w, h) / min(w, h)
        if ratio > cfg.max_aspect_ratio:
            return _drop(RULE_ASPECT, f"aspect ratio {ratio:.2f} > {cfg.max_aspect_ratio}")

    if cfg.min_side_px is not None:
        w, h = _require_dims(r, RULE_SMALL)
        if min(w, h) < cfg.min_side_px:
            return _drop(RULE_SMALL, f"min side {min(w, h)}px < {cfg.min_side_px}px")

    threshold = cfg.clip_thresholds.get(r.dataset)
    if threshold is not None and r.clip_score is not None and r.clip_score < threshold:
        return _drop(RULE_CLIP, f"clip score {r.clip_score} < {threshold} ({r.dataset})")

    suspect, foreign, emoji, globs = cfg._rules
    if suspect.search(r.text):
        m = foreign.search(r.text)
        if m:
            return _drop(RULE_SCRIPT, f"character U+{ord(m.group()):04X} outside allowed scripts")
        m = emoji.search(r.text)  # nothing is foreign, so the suspect is an emoji
        return _drop(RULE_EMOJI, f"emoji character U+{ord(m.group()):04X}")

    cleaned = clean_html_text(r.text)
    if not cleaned and r.text.strip():
        return _drop(RULE_HTML, "nothing left after HTML cleanup")

    n = len(cleaned)
    if n < cfg.min_chars or n > cfg.max_chars:
        return _drop(RULE_LENGTH, f"{n} chars outside [{cfg.min_chars}, {cfg.max_chars}]")

    for pattern, pieces in globs:
        if _glob_search(pieces, cleaned):
            return _drop(RULE_PATTERN, f"matches banned pattern {pattern!r}")

    return _keep()


def check_special_tags(r: CorpusRecord, cfg: FilterConfig) -> FilterVerdict:
    """Drop academic-caption records whose text contains a configured tag."""
    for tag in cfg.special_tags:
        if tag in r.text:
            return _drop(RULE_SPECIAL_TAG, f"contains special tag {tag!r}")
    return _keep()


def select_longest_caption(group: list[CorpusRecord]) -> CorpusRecord:
    """Pick the longest caption among records sharing one image.

    Ties break toward the smallest record id so the choice is deterministic.
    """
    if not group:
        raise EmptyGroup("cannot select a caption from an empty group")
    return min(group, key=lambda r: (-len(r.text), r.id))


def filter_document_text(r: CorpusRecord, kind: str, cfg: FilterConfig) -> FilterVerdict:
    """Cleaning rules for pdf/html document extractions.

    Both kinds drop on character count and Private Use Area code points; the
    Latin Extended-A/B rule applies to pdf extractions only.
    """
    if kind not in ("pdf", "html"):
        raise ValueError(f"kind must be 'pdf' or 'html', got {kind!r}")

    n = len(r.text)
    if n < cfg.min_chars or n > cfg.max_chars:
        return _drop(RULE_CHARCOUNT, f"{n} chars outside [{cfg.min_chars}, {cfg.max_chars}]")

    if kind == "pdf":
        m = _char_class((LATIN_EXT_A, LATIN_EXT_B)).search(r.text)
        if m:
            return _drop(RULE_LATIN_EXT, f"Latin Extended character U+{ord(m.group()):04X}")

    m = _char_class((PUA,)).search(r.text)
    if m:
        return _drop(RULE_PUA, f"Private Use Area character U+{ord(m.group()):04X}")

    return _keep()


class RefSpan(Value):
    """A candidate grounded span: character offsets plus its regions."""

    __slots__ = ("start", "end", "regions")

    def __init__(self, start: int, end: int, regions: tuple[Region, ...]) -> None:
        if not (0 <= start < end):
            raise ValueError(f"span must satisfy 0 <= start < end, got [{start}, {end})")
        if not regions:
            raise ValueError("a candidate span must carry at least one region")
        set_field(self, "start", start)
        set_field(self, "end", end)
        set_field(self, "regions", regions)

    def overlaps(self, other: "RefSpan") -> bool:
        return self.start < other.end and other.start < self.end


def denest_grit(caption: str, spans: list[RefSpan]) -> list[MarkupNode]:
    """Resolve nested/overlapping grounded spans into a flat markup AST.

    Greedy selection: candidates ordered by (region count descending, span
    length descending, start offset ascending); a candidate survives only if
    it overlaps no already-kept span. Dropped candidates are demoted to plain
    caption text, their regions discarded.
    """
    for s in spans:
        if s.end > len(caption):
            raise ValueError(f"span [{s.start}, {s.end}) exceeds caption length {len(caption)}")

    order = sorted(spans, key=lambda s: (-len(s.regions), -(s.end - s.start), s.start))
    kept: list[RefSpan] = []
    for cand in order:
        if not any(cand.overlaps(k) for k in kept):
            kept.append(cand)
    kept.sort(key=lambda s: s.start)

    nodes: list[MarkupNode] = []
    pos = 0
    for s in kept:
        if s.start > pos:
            nodes.append(Text(caption[pos : s.start]))
        nodes.append(Ref(caption[s.start : s.end], s.regions))
        pos = s.end
    if pos < len(caption):
        nodes.append(Text(caption[pos:]))
    return nodes
