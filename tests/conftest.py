"""Shared hypothesis strategies and helpers, plus the acceptance-criteria
summary hook."""

import re

import hypothesis.strategies as st

from vlprep.chat import TASKS, build_task_sample, make_turn
from vlprep.grounding import (
    GROUNDING_TAGS,
    GridBox,
    QuadGrid,
    Ref,
    Text,
    emit_markup,
    format_region,
)

# One line per acceptance criterion, echoed after the run so the verdicts
# survive pytest's output capture.
ACCEPTANCE_LINES: list[str] = []


def record_criterion(number: int, ok: bool, detail: str) -> None:
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)

grid_coords = st.integers(0, 999)
grid_points = st.tuples(grid_coords, grid_coords)


@st.composite
def grid_boxes(draw):
    x1 = draw(grid_coords)
    x2 = draw(st.integers(x1, 999))
    y1 = draw(grid_coords)
    y2 = draw(st.integers(y1, 999))
    return GridBox(x1, y1, x2, y2)


quad_grids = st.builds(QuadGrid, grid_points, grid_points, grid_points, grid_points)

regions = st.one_of(
    st.lists(grid_boxes(), min_size=1, max_size=3).map(tuple),
    st.lists(quad_grids, min_size=1, max_size=3).map(tuple),
)


def _tag_free(s: str) -> bool:
    return all(tag not in s for tag in GROUNDING_TAGS)


tag_free_text = st.text().filter(_tag_free)
nonempty_tag_free_text = st.text(min_size=1).filter(_tag_free)

refs = st.builds(Ref, tag_free_text, regions)


@st.composite
def markup_asts(draw):
    """Canonical ASTs: no empty text nodes, no two adjacent text nodes."""
    n_refs = draw(st.integers(0, 4))
    nodes = []
    for k in range(n_refs + 1):
        if draw(st.booleans()):
            nodes.append(Text(draw(nonempty_tag_free_text)))
        if k < n_refs:
            nodes.append(draw(refs))
    return nodes


@st.composite
def dialogues(draw):
    """Alternating user/assistant turns; returns (turns, assistant answers)."""
    n_rounds = draw(st.integers(min_value=1, max_value=4))
    content = st.text(
        alphabet=st.characters(
            codec="utf-8", exclude_characters="<>|", categories=("L", "N", "P", "Zs")
        ),
        min_size=1,
        max_size=30,
    )
    turns = []
    answers = []
    for i in range(n_rounds):
        n_images = draw(st.integers(min_value=0, max_value=2))
        images = [f"img/{draw(st.integers(0, 5))}.jpg" for _ in range(n_images)]
        turns.append(make_turn("user", draw(content), images))
        answer = draw(content)
        answers.append(answer)
        turns.append(make_turn("assistant", answer))
    return turns, answers


def outcome(fn, value):
    """What ``fn(value)`` returns, or the exception's class and message."""
    try:
        return fn(value)
    except Exception as e:  # noqa: BLE001 - the class is part of the outcome
        return type(e), str(e)


# One defect each: a region continuing a run, spaced or canonical, of its kind
# or the other; a ref with an unordered box; unclosed and mis-closed tags; a
# ref with no region; off-grid, zero-padded and signed points.
MARKUP_DEFECTS = (
    "<box>(5, 6),(7,8)</box>", "<box>(5,6),(7,8)</box>",
    "<quad>(1,2),(3,4),(5,6),(7,8)</quad>", "<quad>(1,2), (3,4), (5,6), (7,8)</quad>",
    "<ref>u</ref><box>(5,2),(3,4)</box>", "<ref>u</ref><box>(1,5),(3,4)</box>",
    "<ref>x", "<box>(1,2),(3,4)", "<box>(1,2),(3,4)</quad>", "</ref>", "<ref>x</box>",
    "<ref>loose</ref>", "<box>(1,2),(3,1000)</box>", "<box>(007,2),(3,4)</box>",
    "<quad>(1,2), (3,4), (5,6), (-0,8)</quad>",
)
_GROUNDING_TAG_RE = re.compile(r"</?(?:ref|box|quad)>")


@st.composite
def defective_markup(draw):
    """Several canonical documents run together, with one of ``MARKUP_DEFECTS``
    spliced in at a tag boundary or at any offset."""
    doc = "".join(map(emit_markup, draw(st.lists(markup_asts(), min_size=1, max_size=4))))
    boundaries = [0, len(doc)] + [m.end() for m in _GROUNDING_TAG_RE.finditer(doc)]
    at = draw(st.sampled_from(boundaries) | st.integers(0, len(doc)))
    return doc[:at] + draw(st.sampled_from(MARKUP_DEFECTS)) + doc[at:]


# Markup field values of every kind, as JSON can carry them: canonical, with
# and without regions (one holds a delimiter the task check refuses); accepted
# but not canonical; unparseable; and values that are not strings.
MIXED_MARKUP = [
    "", "a plain caption", "<ref>a cat</ref><box>(1,2),(3,4)</box> on a mat",
    "<ref></ref><box>(0,0),(999,999)</box><box>(5,5),(5,5)</box>",
    "<ref>STOP</ref><quad>(1,2), (3,4), (5,6), (7,8)</quad> sign"
    "<ref>b</ref><box>(0,0),(0,0)</box>",
    "<ref>a <eos></ref><box>(1,2),(3,4)</box>",
    "<ref>a</ref><box>(1,2), (3,4)</box>",
    "<ref>a</ref><quad>(1,2),(3,4),(5,6),(7,8)</quad>",
    "<ref>a</ref><box>(\u0661,2),(3,4)</box>",
    "<ref>a</ref><box>(-0,02),(3,4)</box>",
    "<ref>a</ref><box>(5,2),(3,4)</box>", "<ref>a</ref><box>(1,5),(3,4)</box>",
    "<ref>a</ref><box>(1,2),(3,1000)</box>",
    "<ref>a</ref><box>(1,2)</box>",
    "<ref>a</ref><box>(1,2),(3,4)</box><quad>(1,2), (3,4), (5,6), (7,8)</quad>",
    "<ref>a</ref>",
    "<box>(1,2),(3,4)</box>",
    [], ["a"], [{"content": "a"}], 7, None,
]


# Plain task fields: no "<" or ">", so no reserved literal; may be empty.
_plain_fields = st.text(alphabet=st.characters(codec="utf-8", exclude_characters="<>"),
                        max_size=20)


@st.composite
def task_samples(draw):
    """``build_task_sample`` output for any task, from random fields and markup."""
    task = draw(st.sampled_from(TASKS))
    fields = {key: draw(_plain_fields)
              for key in ("image", "caption", "question", "answer", "phrase", "description")}
    fields["regions"] = "".join(map(format_region, draw(regions)))
    if task == "caption_grounded":
        fields["caption"] = draw(markup_asts().filter(bool).map(emit_markup))
    elif task == "ocr":
        fields["text"] = draw(markup_asts().filter(bool).map(emit_markup))
    return build_task_sample(task, fields)


def mask_from_spans(loss_spans, n_tokens):
    """Expand a token record's half-open loss spans to one bool per token."""
    mask = [False] * n_tokens
    for start, end in loss_spans:
        mask[start:end] = [True] * (end - start)
    return mask
