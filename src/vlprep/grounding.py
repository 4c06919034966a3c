"""Serialization, parsing, and normalization of grounding annotations.

Region coordinates live on an integer grid: every coordinate is in
``[0, 999]``, obtained from pixel space by ``floor(coord / extent * 1000)``
with the top clamp handling the right/bottom image edge. The wire format is
bit-exact:

    <ref>two bees</ref><box>(661,612),(833,812)</box>
    <quad>(568,121), (625,131), (624,182), (567,172)</quad>

Boxes carry no internal spaces; quads carry a single space after the commas
that separate points. The parser tolerates optional whitespace after any
comma; the emitter always produces the canonical form, so corpora built with
it are reproducible byte-for-byte.

A string is canonical when it is in the emitter's image:
``emit_markup(parse_markup(s)) == s``. :func:`canonical_prefix` finds, with
one regular-expression match and without building nodes, how much of a
string is whole canonical nodes, and :func:`is_canonical_markup` is whether
that is all of it. ``check-markup`` and ``build-task`` accept canonical
markup as it stands and parse the rest only from the last ``<ref>`` that
match reached. :func:`is_canonical_region_list` does the same for the bare
region lists (``regions`` of ``ref_grounding`` and ``grounded_caption``)
that ``build-task`` passes as they stand.

The boxes, quads and markup nodes are frozen value classes
(:mod:`vlprep.values`) that check their fields when built.
"""

from __future__ import annotations

import math
import re
from typing import NoReturn, Union

from .errors import (
    CoordinateOutOfRange,
    InvalidImageExtent,
    MalformedRegion,
    OrphanRegion,
    UnbalancedTags,
    UnboundRef,
)
from .values import Value, set_field

GRID_SIZE = 1000  # coordinates are integers in [0, GRID_SIZE - 1]

TAG_IMG_OPEN = "<img>"
TAG_IMG_CLOSE = "</img>"
TAG_BOX_OPEN = "<box>"
TAG_BOX_CLOSE = "</box>"
TAG_REF_OPEN = "<ref>"
TAG_REF_CLOSE = "</ref>"
TAG_QUAD_OPEN = "<quad>"
TAG_QUAD_CLOSE = "</quad>"

# Tags that delimit grounding markup. <img>/</img> delimit image features at
# the dialogue level and never appear inside grounded text.
GROUNDING_TAGS = (
    TAG_REF_OPEN,
    TAG_REF_CLOSE,
    TAG_BOX_OPEN,
    TAG_BOX_CLOSE,
    TAG_QUAD_OPEN,
    TAG_QUAD_CLOSE,
)

_TAG_RE = re.compile("|".join(re.escape(t) for t in GROUNDING_TAGS))
_POINT = r"\((-?\d+),\s*(-?\d+)\)"
_POINT_RE = re.compile(_POINT)
# The longest prefix of a region body that is (point, separator)* point?;
# group 1 is set when it ends on a point.
_POINT_LIST_RE = re.compile(r"(?:\(-?\d+,\s*-?\d+\),\s*)*(\(-?\d+,\s*-?\d+\))?")
# A well-formed body: the points of one region, in the grammar above.
_BODY_RE = {TAG_BOX_OPEN: re.compile(r",\s*".join([_POINT] * 2)),
            TAG_QUAD_OPEN: re.compile(r",\s*".join([_POINT] * 4))}
_CLOSE_TAG = {TAG_REF_OPEN: TAG_REF_CLOSE, TAG_BOX_OPEN: TAG_BOX_CLOSE,
              TAG_QUAD_OPEN: TAG_QUAD_CLOSE}

# The emitter's image, as one regular expression. Text holds no grounding
# tag; it is written unrolled (each repetition starts at a "<") so that a
# failed match backtracks in linear time. A grid coordinate is 0..999 in
# ASCII digits without a leading zero or sign ([0-9], since \d also takes
# other scripts' digits). Box corner order is checked after the match.
_TEXT = r"[^<]*(?:<(?!/?(?:ref|box|quad)>)[^<]*)*"
_COORD = r"(?:0|[1-9][0-9]{0,2})"
_CANON_POINT = rf"\({_COORD},{_COORD}\)"
_CANON_BOX = rf"<box>{_CANON_POINT},{_CANON_POINT}</box>"
_CANON_QUAD = rf"<quad>{_CANON_POINT}(?:, {_CANON_POINT}){{3}}</quad>"
_CANON_REGIONS = rf"(?:{_CANON_BOX})+|(?:{_CANON_QUAD})+"
_CANONICAL_RE = re.compile(rf"{_TEXT}(?:<ref>{_TEXT}</ref>(?:{_CANON_REGIONS}){_TEXT})*")
_CANONICAL_REGIONS_RE = re.compile(_CANON_REGIONS)
_BOX_CORNERS_RE = re.compile(r"<box>\(([0-9]+),([0-9]+)\),\(([0-9]+),([0-9]+)\)</box>")


class PixelBox(Value):
    """Axis-aligned box in pixel space, with its image extent for context.

    Coordinates are non-negative reals with ``0 <= x1 <= x2 <= width`` and
    ``0 <= y1 <= y2 <= height`` (the bottom-right corner may sit on the
    image edge).
    """

    __slots__ = ("x1", "y1", "x2", "y2", "width", "height")

    def __init__(self, x1: float, y1: float, x2: float, y2: float,
                 width: int, height: int) -> None:
        if width <= 0 or height <= 0:
            raise InvalidImageExtent(f"image extent must be positive, got {width}x{height}")
        if not (0 <= x1 <= x2 <= width):
            raise CoordinateOutOfRange(
                f"x coordinates ({x1}, {x2}) outside [0, {width}] or unordered"
            )
        if not (0 <= y1 <= y2 <= height):
            raise CoordinateOutOfRange(
                f"y coordinates ({y1}, {y2}) outside [0, {height}] or unordered"
            )
        set_field(self, "x1", x1)
        set_field(self, "y1", y1)
        set_field(self, "x2", x2)
        set_field(self, "y2", y2)
        set_field(self, "width", width)
        set_field(self, "height", height)


class GridBox(Value):
    """Axis-aligned box on the normalized integer grid."""

    __slots__ = ("x1", "y1", "x2", "y2")

    def __init__(self, x1: int, y1: int, x2: int, y2: int) -> None:
        for c in (x1, y1, x2, y2):
            _check_grid_coord(c)
        if x1 > x2 or y1 > y2:
            raise CoordinateOutOfRange(f"grid box corners unordered: ({x1},{y1}),({x2},{y2})")
        set_field(self, "x1", x1)
        set_field(self, "y1", y1)
        set_field(self, "x2", x2)
        set_field(self, "y2", y2)


class QuadGrid(Value):
    """Quadrilateral on the normalized grid, clockwise from top-left."""

    __slots__ = ("p1", "p2", "p3", "p4")

    def __init__(self, p1: tuple[int, int], p2: tuple[int, int], p3: tuple[int, int],
                 p4: tuple[int, int]) -> None:
        for x, y in (p1, p2, p3, p4):
            _check_grid_coord(x)
            _check_grid_coord(y)
        set_field(self, "p1", p1)
        set_field(self, "p2", p2)
        set_field(self, "p3", p3)
        set_field(self, "p4", p4)

    @property
    def points(self) -> tuple[tuple[int, int], ...]:
        return (self.p1, self.p2, self.p3, self.p4)


Region = Union[GridBox, QuadGrid]


def _refuse_tags(content: str, what: str) -> None:
    """Raise ``ValueError`` naming the first of ``GROUNDING_TAGS`` in ``content``."""
    if "<" in content:  # every tag starts with one
        for tag in GROUNDING_TAGS:
            if tag in content:
                raise ValueError(f"{what} may not contain the tag literal {tag!r}")


class Text(Value):
    """Plain text segment; must not contain any grounding tag literal."""

    __slots__ = ("content",)

    def __init__(self, content: str) -> None:
        _refuse_tags(content, "plain text")
        set_field(self, "content", content)


class Ref(Value):
    """A referenced span with its attached regions (all boxes or all quads)."""

    __slots__ = ("content", "regions")

    def __init__(self, content: str, regions: tuple[Region, ...]) -> None:
        if not regions:
            raise ValueError("a ref must carry at least one region")
        kinds = {type(r) for r in regions}
        if len(kinds) > 1:
            raise ValueError("a ref may not mix boxes and quads")
        _refuse_tags(content, "ref content")
        set_field(self, "content", content)
        set_field(self, "regions", regions)


MarkupNode = Union[Text, Ref]


def _check_grid_coord(c: int) -> None:
    if not isinstance(c, int):
        raise CoordinateOutOfRange(f"grid coordinate must be an integer, got {c!r}")
    if not (0 <= c < GRID_SIZE):
        raise CoordinateOutOfRange(f"grid coordinate {c} outside [0, {GRID_SIZE - 1}]")


def normalize_box(b: PixelBox) -> GridBox:
    """Map a pixel-space box onto the integer grid.

    Each coordinate becomes ``floor(coord / extent * 1000)``, clamped to 999
    so a coordinate sitting exactly on the right/bottom edge stays on the
    grid. Done in exact rational arithmetic, so the result never depends on
    float rounding. The first call imports ``fractions``.
    """

    from fractions import Fraction  # ~0.4 MB with decimal, and no CLI command normalizes boxes

    def norm(coord: float, extent: int) -> int:
        v = math.floor(Fraction(coord) * GRID_SIZE / extent)
        return min(v, GRID_SIZE - 1)

    return GridBox(
        x1=norm(b.x1, b.width),
        y1=norm(b.y1, b.height),
        x2=norm(b.x2, b.width),
        y2=norm(b.y2, b.height),
    )


def denormalize_box(g: GridBox, width: int, height: int) -> PixelBox:
    """Map a grid box back to pixel space using the cell-center convention.

    ``coord_pixel = (g + 0.5) / 1000 * extent``, so ``normalize_box`` is an
    exact left inverse for every valid grid box. ``PixelBox`` refuses a
    non-positive extent before it checks the coordinates.
    """
    return PixelBox(
        x1=(g.x1 + 0.5) / GRID_SIZE * width,
        y1=(g.y1 + 0.5) / GRID_SIZE * height,
        x2=(g.x2 + 0.5) / GRID_SIZE * width,
        y2=(g.y2 + 0.5) / GRID_SIZE * height,
        width=width,
        height=height,
    )


def format_region(r: Region) -> str:
    """Serialize one region to its canonical tag form."""
    if isinstance(r, GridBox):
        return f"<box>({r.x1},{r.y1}),({r.x2},{r.y2})</box>"
    pts = ", ".join(f"({x},{y})" for x, y in r.points)
    return f"<quad>{pts}</quad>"


def emit_markup(nodes: list[MarkupNode]) -> str:
    """Serialize an AST to its canonical wire form.

    A ref emits ``<ref>content</ref>`` immediately followed by its regions in
    order; plain text passes through unchanged.
    """
    out: list[str] = []
    for node in nodes:
        if isinstance(node, Text):
            out.append(node.content)
        else:
            out.append(f"<ref>{node.content}</ref>")
            out.extend(format_region(r) for r in node.regions)
    return "".join(out)


def _parse_region_body(body: str, open_tag: str) -> Region:
    m = _BODY_RE[open_tag].fullmatch(body)
    if m is not None:
        try:
            c = list(map(int, m.groups()))
        except ValueError:  # past int()'s digit limit: diagnosed below
            pass
        else:
            if open_tag == TAG_BOX_OPEN:
                return GridBox(*c)
            return QuadGrid((c[0], c[1]), (c[2], c[3]), (c[4], c[5]), (c[6], c[7]))
    _raise_region_error(body, open_tag)


def _raise_region_error(body: str, open_tag: str) -> NoReturn:
    """Raise what is wrong with a body that is not one region's points."""
    m = _POINT_LIST_RE.match(body)
    try:
        points = [(int(x), int(y)) for x, y in _POINT_RE.findall(body, 0, m.end())]
    except ValueError as e:  # past int()'s digit limit
        raise MalformedRegion(f"unparseable coordinate in {open_tag}...: {e}") from e
    if m.end() < len(body) or m.group(1) is None:
        # Stopped after a point, or after a separator that ends the body: the
        # separator is bad. Stopped anywhere else: the point is.
        if m.group(1) is not None or 0 < m.end() == len(body):
            raise MalformedRegion(f"bad point separator in {open_tag}...: {body!r}")
        raise MalformedRegion(f"cannot parse point list in {open_tag}...: {body!r}")
    n_expected = 2 if open_tag == TAG_BOX_OPEN else 4
    raise MalformedRegion(
        f"{open_tag} needs {n_expected} points, got {len(points)}: {body!r}"
    )


def _scan_tokens(s: str, start: int = 0) -> list[tuple[str, object]]:
    """Lex ``s[start:]`` into ('text', str) / ('ref', str) / ('region', Region)
    tokens; error offsets count from the start of ``s``."""
    tokens: list[tuple[str, object]] = []
    pos = start
    tags = _TAG_RE.finditer(s, start)
    for m in tags:  # each opening tag, with the next tag as its closer
        tag = m.group()
        if m.start() > pos:
            tokens.append(("text", s[pos : m.start()]))
        if tag not in _CLOSE_TAG:
            raise UnbalancedTags(f"unexpected closing tag {tag} at offset {m.start()}")
        close = next(tags, None)
        if close is None:
            raise UnbalancedTags(f"{tag} at offset {m.start()} is never closed")
        if close.group() != _CLOSE_TAG[tag]:
            raise UnbalancedTags(f"{tag} at offset {m.start()} closed by "
                                 f"{close.group()} instead of {_CLOSE_TAG[tag]}")
        body = s[m.end() : close.start()]
        if tag == TAG_REF_OPEN:
            tokens.append(("ref", body))
        else:
            tokens.append(("region", _parse_region_body(body, tag)))
        pos = close.end()
    if pos < len(s):
        tokens.append(("text", s[pos:]))
    return tokens


def _region_run(tokens: list[tuple[str, object]], i: int) -> tuple[Region, ...]:
    """The regions of one kind that start at token ``i``."""
    run: list = []
    while i < len(tokens) and tokens[i][0] == "region":
        if run and type(tokens[i][1]) is not type(run[0]):
            break
        run.append(tokens[i][1])
        i += 1
    return tuple(run)


def parse_markup(s: str, start: int = 0) -> list[MarkupNode]:
    """Parse a serialized grounding string, from offset ``start`` on, into its AST.

    Inverse of :func:`emit_markup` on its image. Region tags immediately
    following a closed ref attach to that ref; a region that cannot attach
    (no preceding ref, intervening text, or a kind mismatch) is an orphan and
    raises :class:`OrphanRegion`.

    The nodes are those of ``s[start:]``, and so are the errors, but an
    offset in an error message counts from the start of ``s``, not from
    ``start``. With ``p = canonical_prefix(s)``, ``s[:p]`` is whole canonical
    nodes, so ``s[:p] + emit_markup(parse_markup(s, p))`` is
    ``emit_markup(parse_markup(s))`` and the errors are the same.
    """
    tokens = _scan_tokens(s, start)
    nodes: list[MarkupNode] = []
    i = 0
    while i < len(tokens):
        kind, value = tokens[i]
        if kind == "text":
            nodes.append(Text(value))  # type: ignore[arg-type]
        elif kind == "ref":
            regions = _region_run(tokens, i + 1)
            if not regions:
                raise UnboundRef(f"<ref>{value}</ref> has no region tag")
            nodes.append(Ref(value, regions))  # type: ignore[arg-type]
            i += len(regions)
        else:
            raise OrphanRegion("region tag has no preceding </ref> it can attach to")
        i += 1
    return nodes


def canonical_prefix(s: str) -> int:
    """The offset ``p`` from which ``s`` must be parsed to canonicalize it.

    ``s[:p]`` is whole canonical nodes, so
    ``emit_markup(parse_markup(s)) == s[:p] + emit_markup(parse_markup(s, p))``,
    and parsing from ``p`` raises what parsing all of ``s`` raises, offsets
    included. ``p`` is ``len(s)`` exactly when ``s`` is canonical. Otherwise
    it is the last ``<ref>`` that one match against the emitter's image
    reaches, since a region past the match may continue that ref's run; or
    0, when there is no such ref or a box before the match's end has its
    corners out of order (the whole parse raises that box first).
    """
    end = _CANONICAL_RE.match(s).end()
    if not _box_corners_ordered(s, end):
        return 0
    if end == len(s):
        return end
    return max(s.rfind(TAG_REF_OPEN, 0, end), 0)


def is_canonical_markup(s: str) -> bool:
    """Whether ``s`` is canonical: ``emit_markup(parse_markup(s)) == s``.

    A string that does not parse is not canonical. Decided by
    :func:`canonical_prefix`, without building nodes.
    """
    return canonical_prefix(s) == len(s)


def is_canonical_region_list(s: str) -> bool:
    """Whether ``"".join(map(format_region, parse_region_list(s))) == s``.

    A string that does not parse is not canonical. Decided like
    :func:`is_canonical_markup`, by one match, without building regions.
    """
    return _CANONICAL_REGIONS_RE.fullmatch(s) is not None and _box_corners_ordered(s, len(s))


def _box_corners_ordered(s: str, end: int) -> bool:
    """Whether every box of ``s[:end]``, a string in the emitter's image but
    for box corner order, has ``x1 <= x2`` and ``y1 <= y2``.

    Its coordinates are canonical, digits without a leading zero, so
    comparing lengths first and then digits orders them as ``int(a)`` does,
    without the conversion.
    """
    for x1, y1, x2, y2 in _BOX_CORNERS_RE.findall(s, 0, end):
        if (len(x1) > len(x2) or len(x1) == len(x2) and x1 > x2
                or len(y1) > len(y2) or len(y1) == len(y2) and y1 > y2):
            return False
    return True


def parse_region_list(s: str) -> tuple[Region, ...]:
    """Parse a bare region list, such as ``<box>(1,2),(3,4)</box><box>...</box>``.

    The string must hold one or more regions of one kind and nothing else;
    anything else raises ``ValueError``.
    """
    tokens = _scan_tokens(s)
    regions = _region_run(tokens, 0)
    if not regions or len(regions) < len(tokens):
        raise ValueError(f"expected a bare region list, got {s!r}")
    return regions
