import math
import re
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from vlprep.errors import (
    CoordinateOutOfRange,
    InvalidImageExtent,
    MalformedRegion,
    OrphanRegion,
    UnbalancedTags,
    UnboundRef,
)
from vlprep.grounding import (
    GROUNDING_TAGS,
    TAG_BOX_CLOSE,
    TAG_BOX_OPEN,
    TAG_QUAD_CLOSE,
    TAG_QUAD_OPEN,
    TAG_REF_CLOSE,
    TAG_REF_OPEN,
    GridBox,
    PixelBox,
    QuadGrid,
    Ref,
    Text,
    canonical_prefix,
    denormalize_box,
    emit_markup,
    format_region,
    is_canonical_markup,
    is_canonical_region_list,
    normalize_box,
    parse_markup,
    parse_region_list,
)

from conftest import MIXED_MARKUP, grid_boxes, markup_asts, outcome, regions


class TestNormalizeBox:
    def test_full_image_box_clamps_upper_edge(self):
        b = PixelBox(0, 0, 1000, 1000, width=1000, height=1000)
        assert normalize_box(b) == GridBox(0, 0, 999, 999)

    def test_exact_rational_values(self):
        # frozen from the Fraction oracle: floor(64/640*1000) = 100, etc.
        b = PixelBox(64, 48, 320, 240, width=640, height=480)
        assert normalize_box(b) == GridBox(100, 100, 500, 500)

    def test_zero_area_box_is_valid(self):
        b = PixelBox(10, 10, 10, 10, width=100, height=100)
        assert normalize_box(b) == GridBox(100, 100, 100, 100)

    def test_nonpositive_extent_rejected(self):
        with pytest.raises(InvalidImageExtent):
            PixelBox(0, 0, 1, 1, width=0, height=10)
        with pytest.raises(InvalidImageExtent):
            PixelBox(0, 0, 1, 1, width=10, height=-4)

    def test_coordinate_outside_image_rejected(self):
        with pytest.raises(CoordinateOutOfRange):
            PixelBox(0, 0, 101, 50, width=100, height=100)
        with pytest.raises(CoordinateOutOfRange):
            PixelBox(-1, 0, 10, 10, width=100, height=100)
        with pytest.raises(CoordinateOutOfRange):
            PixelBox(20, 0, 10, 10, width=100, height=100)  # x1 > x2
        with pytest.raises(CoordinateOutOfRange):
            PixelBox(0, 0, 10, 101, width=100, height=100)

    @given(
        f=st.floats(0, 1, allow_nan=False),
        w=st.integers(1, 4000),
    )
    def test_matches_exact_rational_oracle(self, f, w):
        x = f * w
        b = PixelBox(x, 0, w, 1, width=w, height=1)
        expected = min(math.floor(Fraction(x) * 1000 / w), 999)
        assert normalize_box(b).x1 == expected

    @given(data=st.data(), w=st.integers(1, 2000), h=st.integers(1, 2000))
    def test_containment_is_preserved(self, data, w, h):
        ox1 = data.draw(st.floats(0, w, allow_nan=False))
        ox2 = data.draw(st.floats(ox1, w, allow_nan=False))
        oy1 = data.draw(st.floats(0, h, allow_nan=False))
        oy2 = data.draw(st.floats(oy1, h, allow_nan=False))
        ix1 = data.draw(st.floats(ox1, ox2, allow_nan=False))
        ix2 = data.draw(st.floats(ix1, ox2, allow_nan=False))
        iy1 = data.draw(st.floats(oy1, oy2, allow_nan=False))
        iy2 = data.draw(st.floats(iy1, oy2, allow_nan=False))
        outer = normalize_box(PixelBox(ox1, oy1, ox2, oy2, w, h))
        inner = normalize_box(PixelBox(ix1, iy1, ix2, iy2, w, h))
        assert outer.x1 <= inner.x1 <= inner.x2 <= outer.x2
        assert outer.y1 <= inner.y1 <= inner.y2 <= outer.y2


class TestDenormalizeBox:
    def test_cell_center_formula(self):
        p = denormalize_box(GridBox(0, 0, 999, 999), 1000, 1000)
        assert (p.x1, p.y1, p.x2, p.y2) == (0.5, 0.5, 999.5, 999.5)

    def test_derived_values(self):
        p = denormalize_box(GridBox(100, 100, 500, 500), 640, 480)
        assert p.x1 == pytest.approx(64.32)
        assert p.y1 == pytest.approx(48.24)
        assert p.x2 == pytest.approx(320.32)
        assert p.y2 == pytest.approx(240.24)

    def test_nonpositive_extent_rejected(self):
        with pytest.raises(InvalidImageExtent):
            denormalize_box(GridBox(0, 0, 1, 1), 0, 100)

    @given(g=grid_boxes(), w=st.integers(1, 5000), h=st.integers(1, 5000))
    @settings(max_examples=300)
    def test_normalize_is_left_inverse(self, g, w, h):
        assert normalize_box(denormalize_box(g, w, h)) == g


class TestNodeInvariants:
    def test_grid_coords_must_be_in_range(self):
        with pytest.raises(CoordinateOutOfRange):
            GridBox(0, 0, 1000, 10)
        with pytest.raises(CoordinateOutOfRange):
            QuadGrid((0, 0), (10, -1), (10, 10), (0, 10))
        with pytest.raises(CoordinateOutOfRange):
            GridBox(0, 0, 10.0, 10)  # a float, even a whole one, is no grid coordinate

    def test_grid_box_corners_must_be_ordered(self):
        with pytest.raises(CoordinateOutOfRange):
            GridBox(50, 0, 40, 10)

    def test_ref_requires_regions(self):
        with pytest.raises(ValueError):
            Ref("cat", ())

    def test_ref_regions_must_be_homogeneous(self):
        box = GridBox(1, 2, 3, 4)
        quad = QuadGrid((0, 0), (1, 0), (1, 1), (0, 1))
        with pytest.raises(ValueError):
            Ref("cat", (box, quad))

    def test_ref_content_rejects_tag_literals(self):
        with pytest.raises(ValueError):
            Ref("a <box> cat", (GridBox(1, 2, 3, 4),))

    def test_text_rejects_tag_literals(self):
        with pytest.raises(ValueError):
            Text("hello <box> world")


class TestEmitMarkup:
    def test_ref_with_two_boxes(self):
        node = Ref("bees", (GridBox(661, 612, 833, 812), GridBox(120, 555, 265, 770)))
        assert emit_markup([node]) == (
            "<ref>bees</ref><box>(661,612),(833,812)</box>"
            "<box>(120,555),(265,770)</box>"
        )

    def test_quad_format_has_space_between_points(self):
        node = Ref(
            "It is managed",
            (QuadGrid((568, 121), (625, 131), (624, 182), (567, 172)),),
        )
        assert emit_markup([node]) == (
            "<ref>It is managed</ref>"
            "<quad>(568,121), (625,131), (624,182), (567,172)</quad>"
        )

    def test_plain_text_is_identity(self):
        assert emit_markup([Text("hello")]) == "hello"

    @given(ast=markup_asts())
    @settings(max_examples=300, deadline=None)
    def test_never_emits_out_of_grid_coordinate(self, ast):
        import re

        for m in re.finditer(r"\((-?\d+),(-?\d+)\)", emit_markup(ast)):
            assert 0 <= int(m.group(1)) <= 999
            assert 0 <= int(m.group(2)) <= 999


class TestParseMarkup:
    def test_referring_grounding_fixture(self):
        s = "<ref>the ear on a giraffe</ref><box>(176,106),(232,160)</box>"
        assert parse_markup(s) == [
            Ref("the ear on a giraffe", (GridBox(176, 106, 232, 160),))
        ]

    def test_plain_text(self):
        assert parse_markup("no tags here") == [Text("no tags here")]

    def test_empty_string(self):
        assert parse_markup("") == []

    def test_whitespace_after_commas_tolerated(self):
        s = "<ref>a</ref><box>(176, 106),  (232,160)</box>"
        assert parse_markup(s) == [Ref("a", (GridBox(176, 106, 232, 160),))]

    def test_adjacent_regions_attach_to_ref(self):
        s = "<ref>bees</ref><box>(1,2),(3,4)</box><box>(5,6),(7,8)</box> fly"
        nodes = parse_markup(s)
        assert nodes == [
            Ref("bees", (GridBox(1, 2, 3, 4), GridBox(5, 6, 7, 8))),
            Text(" fly"),
        ]

    def test_region_after_text_does_not_attach(self):
        s = "<ref>a</ref><box>(1,2),(3,4)</box>gap<box>(5,6),(7,8)</box>"
        with pytest.raises(OrphanRegion):
            parse_markup(s)

    def test_unbound_ref(self):
        with pytest.raises(UnboundRef):
            parse_markup("<ref>lonely</ref> and some text")
        with pytest.raises(UnboundRef):
            parse_markup("<ref>lonely</ref>")

    def test_orphan_region_strict_vs_lenient(self):
        s = "<box>(1,2),(3,4)</box>"
        with pytest.raises(OrphanRegion):
            parse_markup(s)
        assert parse_region_list(s) == (GridBox(1, 2, 3, 4),)
        assert parse_region_list(s + "<box>(5,6),(7,8)</box>") == (
            GridBox(1, 2, 3, 4), GridBox(5, 6, 7, 8))
        for not_a_list in ("", "plain text", " " + s, "<ref>a</ref>" + s):
            with pytest.raises(ValueError):
                parse_region_list(not_a_list)

    def test_mixed_kinds_split_in_lenient_mode(self):
        s = (
            "<ref>a</ref><box>(1,2),(3,4)</box>"
            "<quad>(0,0), (1,0), (1,1), (0,1)</quad>"
        )
        with pytest.raises(OrphanRegion):
            parse_markup(s)
        with pytest.raises(ValueError):
            parse_region_list(s)
        regions = s[len("<ref>a</ref>"):]
        with pytest.raises(ValueError):  # one box, one quad
            parse_region_list(regions)
        assert parse_region_list(regions[regions.index("<quad>"):]) == (
            QuadGrid((0, 0), (1, 0), (1, 1), (0, 1)),)

    @pytest.mark.parametrize(
        "bad",
        [
            "<ref>a</ref><box>(1,2)</box>",  # one point, need two
            "<ref>a</ref><box>(1,2),(3,4),(5,6)</box>",  # three points
            "<ref>a</ref><quad>(1,2),(3,4)</quad>",  # two points, need four
            "<ref>a</ref><box>(1,x),(3,4)</box>",
            "<ref>a</ref><box>(1,2),(3,4),</box>",
            "<ref>a</ref><box>junk</box>",
        ],
    )
    def test_malformed_regions(self, bad):
        with pytest.raises(MalformedRegion):
            parse_markup(bad)

    def test_coordinate_past_int_digit_limit_is_malformed(self):
        huge = "9" * 5000
        with pytest.raises(MalformedRegion):
            parse_markup(f"<ref>a</ref><box>({huge},2),(3,4)</box>")
        with pytest.raises(MalformedRegion):
            parse_markup(f"<ref>a</ref><quad>(1,2),(3,4),(5,{huge}),(7,8)</quad>")

    @pytest.mark.parametrize(
        "bad",
        [
            "<ref>a</ref><box>(1000,2),(1001,4)</box>",
            "<ref>a</ref><box>(-1,2),(3,4)</box>",
        ],
    )
    def test_out_of_range_coordinates(self, bad):
        with pytest.raises(CoordinateOutOfRange):
            parse_markup(bad)

    @pytest.mark.parametrize(
        "bad",
        [
            "<ref>never closed",
            "text </ref> more",
            "</box>",
            "<ref>a<box>(1,2),(3,4)</box></ref>",
            "<box>(1,2),(3,4)",
            "<ref>a</ref><box>(1,2),(3,4)</quad>",
        ],
    )
    def test_unbalanced_tags(self, bad):
        with pytest.raises(UnbalancedTags):
            parse_markup(bad)


class TestRoundTrip:
    @given(ast=markup_asts())
    @settings(max_examples=500, deadline=None)
    def test_parse_inverts_emit(self, ast):
        assert parse_markup(emit_markup(ast)) == ast


# ---------------------------------------------------------------------------
# Reference parser: a search per tag and its closer, a match per point and
# separator, and a state machine for the open ref. The one-iterator lexer and
# the point-list match must give the same AST, or the same exception class
# and message, on every string.

_REF_TAG_RE = re.compile("|".join(re.escape(t) for t in GROUNDING_TAGS))
_REF_POINT_RE = re.compile(r"\((-?\d+),\s*(-?\d+)\)")
_REF_POINT_SEP_RE = re.compile(r",\s*")


def reference_parse_region_body(body, open_tag):
    n_expected = 2 if open_tag == TAG_BOX_OPEN else 4
    points = []
    pos = 0
    while True:
        m = _REF_POINT_RE.match(body, pos)
        if m is None:
            raise MalformedRegion(f"cannot parse point list in {open_tag}...: {body!r}")
        try:
            points.append((int(m.group(1)), int(m.group(2))))
        except ValueError as e:
            raise MalformedRegion(f"unparseable coordinate in {open_tag}...: {e}") from e
        pos = m.end()
        if pos == len(body):
            break
        sep = _REF_POINT_SEP_RE.match(body, pos)
        if sep is None or sep.end() == len(body):
            raise MalformedRegion(f"bad point separator in {open_tag}...: {body!r}")
        pos = sep.end()
    if len(points) != n_expected:
        raise MalformedRegion(
            f"{open_tag} needs {n_expected} points, got {len(points)}: {body!r}"
        )
    if open_tag == TAG_BOX_OPEN:
        (x1, y1), (x2, y2) = points
        return GridBox(x1, y1, x2, y2)
    return QuadGrid(*points)


def reference_scan_tokens(s):
    tokens = []
    i = 0
    while i < len(s):
        m = _REF_TAG_RE.search(s, i)
        if m is None:
            tokens.append(("text", s[i:]))
            break
        if m.start() > i:
            tokens.append(("text", s[i : m.start()]))
        tag = m.group()
        if tag in (TAG_REF_CLOSE, TAG_BOX_CLOSE, TAG_QUAD_CLOSE):
            raise UnbalancedTags(f"unexpected closing tag {tag} at offset {m.start()}")
        close_tag = {
            TAG_REF_OPEN: TAG_REF_CLOSE,
            TAG_BOX_OPEN: TAG_BOX_CLOSE,
            TAG_QUAD_OPEN: TAG_QUAD_CLOSE,
        }[tag]
        nxt = _REF_TAG_RE.search(s, m.end())
        if nxt is None:
            raise UnbalancedTags(f"{tag} at offset {m.start()} is never closed")
        if nxt.group() != close_tag:
            raise UnbalancedTags(
                f"{tag} at offset {m.start()} closed by {nxt.group()} instead of {close_tag}"
            )
        body = s[m.end() : nxt.start()]
        if tag == TAG_REF_OPEN:
            tokens.append(("ref", body))
        else:
            tokens.append(("region", reference_parse_region_body(body, tag)))
        i = nxt.end()
    return tokens


def reference_parse_markup(s):
    nodes = []
    open_content = None
    open_regions = []

    def close_open():
        nonlocal open_content
        if open_content is None:
            return
        if not open_regions:
            raise UnboundRef(f"<ref>{open_content}</ref> has no region tag")
        nodes.append(Ref(open_content, tuple(open_regions)))
        open_content = None
        open_regions.clear()

    for kind, value in reference_scan_tokens(s):
        if kind == "text":
            close_open()
            nodes.append(Text(value))
        elif kind == "ref":
            close_open()
            open_content = value
            open_regions.clear()
        else:
            attachable = open_content is not None and (
                not open_regions or isinstance(value, type(open_regions[-1]))
            )
            if not attachable:
                raise OrphanRegion("region tag has no preceding </ref> it can attach to")
            open_regions.append(value)
    close_open()
    return nodes


def reference_parse_region_list(s):
    tokens = reference_scan_tokens(s)
    regions = tuple(value for kind, value in tokens if kind == "region")
    if not regions or len(regions) < len(tokens) or len({type(r) for r in regions}) > 1:
        raise ValueError(f"expected a bare region list, got {s!r}")
    return regions


# Tag literals, point syntax, separators (any whitespace after a comma),
# numbers in and out of the grid, with leading zeros, in other scripts'
# decimal digits and past int()'s digit limit, plain text, and whole refs and
# regions of both kinds in canonical and accepted forms, so that well-formed
# bodies, runs of mixed regions and every failure come up.
_DIGIT_LIMIT = "1" * 4301  # one digit past int()'s default limit
_MARKUP_PIECES = GROUNDING_TAGS + (
    "(", ")", ",", ", ", ",  ", ",\t", ",\n", ",\u3000", " ", "-", "0", "7", "42", "007",
    "999", "1000", "\u0661", "\uff15", "(1,2)", "(3, 4)", "(-0,5)", "(\u0661,\uff15)",
    "(1,2),", "(5,6),\t(7,8)", "9" * 5000, _DIGIT_LIMIT, "a", "x y",
    "<ref>a</ref>", "<box>(1,2),(3,4)</box>", "<quad>(1,2), (3,4), (5,6), (7,8)</quad>",
    "<box>(01,\u30002),\n(3,4)</box>", "<quad>(1,2),(3,4),(5,6),(7,8)</quad>",
    "<box>(1,2),(3,4),(5,6)</box>", "<quad>(1,2),(3,4),(5,6),(7,8),(9,9)</quad>",
)
markup_soup = st.lists(st.sampled_from(_MARKUP_PIECES), max_size=24).map("".join)


def whole_canonical(s):
    return emit_markup(parse_markup(s))


def split_canonical(s):
    """``whole_canonical(s)``, parsing only past ``canonical_prefix(s)``."""
    p = canonical_prefix(s)
    return s[:p] + emit_markup(parse_markup(s, p))


def round_trips(s):
    """Whether ``emit_markup(parse_markup(s)) == s``; a raise counts as False."""
    nodes = outcome(parse_markup, s)
    return isinstance(nodes, list) and emit_markup(nodes) == s


class TestParserMatchesReference:
    # One property for both parsers and the canonical check: drawing the
    # examples, not checking them, is nearly all of its time.
    @given(s=st.one_of(markup_soup, markup_asts().map(emit_markup)))
    @settings(max_examples=2000, deadline=None)
    def test_same_ast_or_same_error(self, s):
        assert outcome(parse_markup, s) == outcome(reference_parse_markup, s)
        assert outcome(parse_region_list, s) == outcome(reference_parse_region_list, s)
        assert is_canonical_markup(s) == round_trips(s)
        assert outcome(split_canonical, s) == outcome(whole_canonical, s)

    @pytest.mark.parametrize("body", [
        "", "x", "(1,2)", "(1,2)x", "(1,2),", "(1,2), ", "(1,2),x", "(1,2),(3,4)",
        "(1,2),(3,4),(5,6)", "(1, 2),  (3,4)", " (1,2),(3,4)", "(1,2) ,(3,4)",
        "(1,2),(3,4)x", "(1,2),(x,4)", "(" + "9" * 5000 + ",2)x",
        "(1,2)x(" + "9" * 5000 + ",2)", "(1,2),(3," + "9" * 5000 + "),",
        # Well-formed for one kind or the other, in accepted forms, past the
        # grid or past the digit limit; then 1, 3 and 5 points.
        "(1,2),(3,4),(5,6),(7,8)", "(1,\t2),\t(3,4)", "(1,2),\n(3,\n4)",
        "(1,\u30002),\u3000(3,4)", "(\u0661,2),(3,4)", "(\uff15,6),(7,8)",
        "(007,08),(0,0)", "(-0,1),(2,3)", "(-0,-0),(-0,-0),(-0,-0),(-0,-0)",
        "(-1,2),(3,4)", "(1,2),(3,1000)", "(1,2),(3,4),(5,6),(7,1000)",
        "(" + _DIGIT_LIMIT + ",2),(3,4)", "(1,2),(3,4),(5,6),(7," + _DIGIT_LIMIT + ")",
        "(1,2),(" + _DIGIT_LIMIT + ",4),(5,6),(7,8)", "(1, 2)",
        "(1,2),(3,4),(5,6),(7,8),(9,9)",
    ])
    @pytest.mark.parametrize("tag", ["box", "quad"])
    def test_every_point_list_outcome(self, body, tag):
        s = f"<ref>a</ref><{tag}>{body}</{tag}>"
        assert outcome(parse_markup, s) == outcome(reference_parse_markup, s)

    @pytest.mark.parametrize("tag, body", [
        ("box", "(" + _DIGIT_LIMIT + ",2),(3,4)"),
        ("quad", "(1,2),(3,4),(5,6),(7," + _DIGIT_LIMIT + ")"),
    ])
    def test_digit_limit_in_well_formed_body(self, tag, body):
        with pytest.raises(MalformedRegion, match=r"unparseable coordinate.* 4301 digits"):
            parse_markup(f"<ref>a</ref><{tag}>{body}</{tag}>")

    @pytest.mark.parametrize("markup, ast", [
        ("<ref>a</ref><box>(١,５),(3,\t06)</box>", [Ref("a", (GridBox(1, 5, 3, 6),))]),
        ("<ref>a</ref><quad>(-0,1),\n(2,3),　(4,5), (6,7)</quad>",
         [Ref("a", (QuadGrid((0, 1), (2, 3), (4, 5), (6, 7)),))]),
    ])
    def test_accepted_forms(self, markup, ast):
        assert parse_markup(markup) == ast
        assert emit_markup(ast) != markup


_BOX = "<box>(1,2),(3,4)</box>"
_QUAD = "<quad>(1,2), (3,4), (5,6), (7,8)</quad>"
_LONG = 10**5  # characters in each adversarial input


class TestIsCanonicalMarkup:
    # The random property against the round trip is TestParserMatchesReference's;
    # this is the same relation on the fixed corpus the chat and CLI tests use.
    def test_matches_the_round_trip(self):
        for s in (value for value in MIXED_MARKUP if isinstance(value, str)):
            assert is_canonical_markup(s) == round_trips(s), s

    @pytest.mark.parametrize("s, canonical", [
        ("<ref>a</ref><box>(5,2),(3,4)</box>", False),  # x1 > x2
        ("<ref>a</ref><box>(1,5),(3,4)</box>", False),  # y1 > y2
        ("<ref>a</ref><box>(3,4),(3,4)</box>", True),
        ("<ref>a</ref>" + _BOX + _BOX + " b", True),
        ("<ref>a</ref>" + _BOX + _QUAD, False),  # the quad is an orphan
        ("<ref>a</ref>" + _QUAD + _QUAD + "<ref>b</ref>" + _BOX, True),
        ("<ref></ref>" + _BOX, True),
        ("<ref>a</ref>", False),
        (_BOX, False),
        ("<ref>a</ref> " + _BOX, False),
        ("<ref>a</ref><box>(0,0),(999,999)</box>", True),
        ("<ref>a</ref><box>(0,0),(1000,999)</box>", False),
        ("<ref>a</ref><box>(00,0),(1,1)</box>", False),
        ("<ref>a</ref><box>(-0,0),(1,1)</box>", False),
        ("<ref>a</ref><box>(\u0661,2),(3,4)</box>", False),
        ("<ref>a</ref><box>(\uff15,6),(7,8)</box>", False),
        ("<ref>a</ref><box>(1,2), (3,4)</box>", False),
        ("<ref>a</ref><quad>(1,2),(3,4),(5,6),(7,8)</quad>", False),
        ("", True),
        ("<", True),
        ("<re", True),
        ("a <img>b.jpg</img> c", True),
        ("<ref>x <img></ref>" + _BOX, True),
    ])
    def test_row(self, s, canonical):
        assert round_trips(s) is canonical
        assert is_canonical_markup(s) is canonical

    @pytest.mark.parametrize("s", [
        "<" * _LONG,
        "<re" * (_LONG // 3),
        "<ref>a</ref>" + _BOX * (_LONG // len(_BOX)) + "<quad>",
        "<ref>a</ref><box>" + "(1," * (_LONG // 3) + "</box>",
    ], ids=["lt", "re", "box-run-then-quad", "open-points"])
    def test_long_adversarial_input(self, s):
        assert is_canonical_markup(s) == round_trips(s)


class TestCanonicalPrefix:
    def test_backs_off_to_the_last_ref(self):
        # The match ends at the spaced box, which continues the run of the
        # ref before it: parsed from the match's end, it would be an orphan.
        head = "x <ref>a</ref>" + _BOX + " y "
        s = head + "<ref>b</ref>" + _BOX + "<box>(5, 6),(7,8)</box>"
        assert canonical_prefix(s) == len(head)
        with pytest.raises(OrphanRegion):
            parse_markup(s, s.index("<box>(5, 6)"))
        assert split_canonical(s) == whole_canonical(s) == (
            head + "<ref>b</ref>" + _BOX + "<box>(5,6),(7,8)</box>")

    def test_unordered_box_in_the_prefix_means_a_whole_parse(self):
        # Parsed from the last ref, the unordered box before it would go unseen.
        s = ("<ref>a</ref><box>(5,2),(3,4)</box> <ref>b</ref>" + _BOX
             + " <ref>c</ref><box>(1, 2),(3,4)</box>")
        assert canonical_prefix(s) == 0
        assert emit_markup(parse_markup(s, s.index("<ref>b"))) == (
            "<ref>b</ref>" + _BOX + " <ref>c</ref>" + _BOX)
        with pytest.raises(CoordinateOutOfRange, match=r"unordered: \(5,2\),\(3,4\)"):
            whole_canonical(s)

    def test_error_offsets_count_from_the_start_of_the_string(self):
        s = "<ref>a</ref>" + _BOX + " <ref>b</ref>" + _BOX + " <ref>c</ref><box>(1,2)"
        assert canonical_prefix(s) == s.index("<ref>b")
        assert outcome(split_canonical, s) == outcome(whole_canonical, s) == (
            UnbalancedTags, f"<box> at offset {s.rindex('<box>')} is never closed")

    # One, two and three digits alike, so that corners of equal and of
    # unequal length are both compared.
    @given(st.lists(st.integers(0, 9) | st.integers(10, 99) | st.integers(100, 999),
                    min_size=4, max_size=4))
    @settings(max_examples=500, deadline=None)
    def test_box_corner_order_is_numeric_order(self, coords):
        x1, y1, x2, y2 = coords
        box = f"<box>({x1},{y1}),({x2},{y2})</box>"
        s = "<ref>a</ref>" + box
        ordered = x1 <= x2 and y1 <= y2
        assert canonical_prefix(s) == (len(s) if ordered else 0)
        assert is_canonical_region_list(box) is ordered


# Whole regions, canonical and not (spaced commas, leading zeros, -0, other
# scripts' digits, unordered corners, past the grid, wrong point counts), and
# the fragments they are made of, so that runs of one kind, mixed kinds, stray
# text and every parse failure come up; the empty draw is the empty string.
_REGION_PIECES = (
    _BOX, _QUAD, "<box>(0,0),(999,999)</box>", "<box>(3,4),(3,4)</box>",
    "<box>(1, 2),(3,4)</box>", "<box>(1,2), (3,4)</box>", "<box>(01,2),(3,4)</box>",
    "<box>(-0,0),(1,1)</box>", "<box>(\u0661,2),(3,\uff15)</box>", "<box>(5,2),(3,4)</box>",
    "<box>(1,5),(3,4)</box>", "<box>(1,2),(3,1000)</box>", "<box>(1,2)</box>",
    "<box>(1,2),(3,4),(5,6)</box>", "<quad>(1,2),(3,4),(5,6),(7,8)</quad>",
    "<quad>(9,8), (7,6), (5,4), (3,2)</quad>", "<quad>(1,2),  (3,4), (5,6), (7,8)</quad>",
    "<quad>(1,2), (3,4), (5,6), (007,8)</quad>", "<quad>(1,2), (3,4), (5,6)</quad>",
    "<box>", "</box>", "<quad>", "</quad>", "<ref>a</ref>", "(1,2)", ",", ", ", " ", "x",
)
region_soup = st.lists(st.sampled_from(_REGION_PIECES), max_size=6).map("".join)
emitted_region_lists = regions.map(lambda rs: "".join(map(format_region, rs)))


# Emitted lists alone, and joined with others, of the same kind or not.
@given(s=st.one_of(region_soup, st.lists(emitted_region_lists, max_size=3).map("".join)))
@settings(max_examples=500, deadline=None)
def test_is_canonical_region_list_is_the_round_trip(s):
    try:
        round_trip = "".join(map(format_region, parse_region_list(s))) == s
    except Exception:  # noqa: BLE001 - a string that does not parse is not canonical
        round_trip = False
    assert is_canonical_region_list(s) is round_trip
