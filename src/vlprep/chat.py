"""Assembly of training text with per-character supervision spans.

Two layers live here. ``build_task_sample`` renders one of the fixed
single-turn task formats (captioning, VQA, grounding, OCR) into an
:class:`AnnotatedText` whose spans say which characters contribute to the
loss. ``build_chatml`` renders a multi-turn dialogue in the chat transcript
format::

    <|im_start|>user
    Picture 1: <img>path.jpg</img>What is this?<|im_end|>
    <|im_start|>assistant
    A cat.<|im_end|>

Only assistant content and the assistant turn's ``<|im_end|>`` terminator are
supervised; role headers, user turns, image placeholders, and the injected
``Picture k:`` prefixes are context. Supervision is tracked on characters so
it survives any tokenizer; projection onto token ids happens in
:mod:`vlprep.tokenizer`. ``Segment``, ``ChatTurn`` and ``AnnotatedText`` are
frozen value classes (:mod:`vlprep.values`) that check their fields when built.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import EmptyDialogue, MissingField, RoleOrderViolation
from .grounding import (
    TAG_BOX_CLOSE,
    TAG_BOX_OPEN,
    TAG_IMG_CLOSE,
    TAG_IMG_OPEN,
    TAG_QUAD_CLOSE,
    TAG_QUAD_OPEN,
    TAG_REF_CLOSE,
    TAG_REF_OPEN,
    canonical_prefix,
    emit_markup,
    format_region,
    is_canonical_region_list,
    parse_markup,
    parse_region_list,
)
from .values import Value, set_field

IM_START = "<|im_start|>"
IM_END = "<|im_end|>"
EOS = "<eos>"

# Every reserved literal; vlprep.tokenizer encodes each as one token, and
# this order fixes their ids. Strings that are neither markup nor chat
# content (image refs, plain task fields) may hold none of them.
RESERVED_LITERALS = (TAG_IMG_OPEN, TAG_IMG_CLOSE, TAG_BOX_OPEN, TAG_BOX_CLOSE,
                     TAG_REF_OPEN, TAG_REF_CLOSE, TAG_QUAD_OPEN, TAG_QUAD_CLOSE,
                     IM_START, IM_END, EOS)
# Literals that delimit images, turns and samples. No caller-supplied string
# may hold one, or the tokenizer would read it as that delimiter.
_DELIMITERS = (TAG_IMG_OPEN, TAG_IMG_CLOSE, IM_START, IM_END, EOS)

ROLE_USER = "user"
ROLE_ASSISTANT = "assistant"
ROLES = (ROLE_USER, ROLE_ASSISTANT)

TASKS = (
    "caption",
    "caption_grounded",
    "vqa",
    "ocr_vqa",
    "ref_grounding",
    "grounded_caption",
    "ocr",
)


def _image_text(ref: str) -> str:
    return f"{TAG_IMG_OPEN}{ref}{TAG_IMG_CLOSE}"


def _plain(value, what: str, banned: tuple[str, ...] = _DELIMITERS) -> str:
    """Return ``value`` if it is a string holding none of the ``banned`` literals."""
    if not isinstance(value, str):
        raise TypeError(f"{what} must be a string, got {type(value).__name__}")
    if "<" in value:  # every reserved literal starts with one
        for literal in banned:
            if literal in value:
                raise ValueError(f"{what} must not contain {literal!r}")
    return value


class Segment(Value):
    """A contiguous piece of turn content with a single supervision flag.

    ``image_ref`` marks the segment as an image placeholder; its text is then
    exactly ``<img>ref</img>`` and it is never supervised. The text of a
    text segment may hold no delimiter literal, and an image ref no reserved
    literal at all (delimiter or grounding tag).
    """

    __slots__ = ("text", "supervised", "image_ref")

    def __init__(self, text: str, supervised: bool, image_ref: Optional[str] = None) -> None:
        is_image = image_ref is not None
        _plain(text, "segment text", () if is_image else _DELIMITERS)
        if not text:
            raise ValueError("segment text must be non-empty")
        if is_image:
            _plain(image_ref, "image ref", RESERVED_LITERALS)
            if supervised:
                raise ValueError("image segments are never supervised")
            if text != _image_text(image_ref):
                raise ValueError(f"image segment text must be {_image_text(image_ref)!r}")
        set_field(self, "text", text)
        set_field(self, "supervised", supervised)
        set_field(self, "image_ref", image_ref)


def image_segment(ref: str) -> Segment:
    # Segment checks the literals; None, its "no image" value, is refused here.
    return Segment(_image_text(_plain(ref, "image ref", ())), supervised=False, image_ref=ref)


class ChatTurn(Value):
    """One dialogue turn. Text segments inherit supervision from the role."""

    __slots__ = ("role", "segments")

    def __init__(self, role: str, segments: tuple[Segment, ...]) -> None:
        if role not in ROLES:
            raise ValueError(f"role must be one of {ROLES}, got {role!r}")
        if not segments:
            raise ValueError("turn must have at least one segment")
        want = role == ROLE_ASSISTANT
        for seg in segments:
            if seg.image_ref is None and seg.supervised != want:
                raise ValueError(f"text segment supervision must be {want} in a {role} turn")
        set_field(self, "role", role)
        set_field(self, "segments", segments)


def make_turn(role: str, content: str = "", images: Sequence[str] = ()) -> ChatTurn:
    """Convenience constructor: image placeholders first, then the content.

    ``images`` is a list or tuple of image refs and ``content`` a string.
    """
    if not isinstance(images, (list, tuple)):
        raise TypeError(f"images must be a list of strings, got {type(images).__name__}")
    segs = [image_segment(ref) for ref in images]
    if _plain(content, "turn content", ()):  # Segment checks the literals
        segs.append(Segment(content, supervised=role == ROLE_ASSISTANT))
    return ChatTurn(role, tuple(segs))


class AnnotatedText(Value):
    """Flat text plus a partition into supervised / unsupervised spans.

    ``spans`` is a tuple of ``(start, end, supervised)`` half-open character
    intervals that tile ``[0, len(text))`` in order with no gaps and no empty
    pieces. ``images`` records ``(offset, ref)`` for every ``<img>`` segment,
    offset pointing at its ``<`` character.
    """

    __slots__ = ("text", "spans", "images")

    def __init__(self, text: str, spans: tuple[tuple[int, int, bool], ...],
                 images: tuple[tuple[int, str], ...] = ()) -> None:
        pos = 0
        for start, end, _ in spans:
            if start != pos or end <= start:
                raise ValueError(f"spans must tile the text, bad span ({start},{end})")
            pos = end
        if pos != len(text):
            raise ValueError(f"spans cover [0,{pos}) but text has {len(text)} chars")
        for offset, ref in images:
            placeholder = _image_text(ref)
            if text[offset : offset + len(placeholder)] != placeholder:
                raise ValueError(f"no image placeholder for {ref!r} at offset {offset}")
        set_field(self, "text", text)
        set_field(self, "spans", spans)
        set_field(self, "images", images)

    @property
    def supervised_substrings(self) -> list[str]:
        return [self.text[s:e] for s, e, flag in self.spans if flag]

    @property
    def supervised_char_count(self) -> int:
        return sum(e - s for s, e, flag in self.spans if flag)


_RawSegment = tuple[str, bool, Optional[str]]


def _assemble(raw: Sequence[_RawSegment]) -> AnnotatedText:
    parts: list[str] = []
    spans: list[tuple[int, int, bool]] = []
    images: list[tuple[int, str]] = []
    pos = 0
    for text, supervised, image_ref in raw:
        if not text:
            continue
        parts.append(text)
        spans.append((pos, pos + len(text), supervised))
        if image_ref is not None:
            images.append((pos, image_ref))
        pos += len(text)
    return AnnotatedText("".join(parts), tuple(spans), tuple(images))


def _require(fields: dict, task: str, key: str):
    if key not in fields or fields[key] is None:
        raise MissingField(f"task {task!r} requires field {key!r}")
    return fields[key]


def _field(fields: dict, task: str, key: str) -> str:
    """A required string field holding no reserved literal."""
    return _plain(_require(fields, task, key), f"field {key!r} of task {task!r}",
                  RESERVED_LITERALS)


def _markup(task: str, value) -> str:
    """A markup string as canonical text; canonical markup passes as it stands,
    and other markup is parsed only past its canonical prefix."""
    what = f"markup of task {task!r}"
    _plain(value, what, ())
    p = canonical_prefix(value)  # value[:p] is whole canonical nodes
    if p < len(value):
        value = value[:p] + emit_markup(parse_markup(value, p))
    return _plain(value, what)


def _grounding(fields: dict, task: str) -> tuple[str, str]:
    """``<ref>phrase</ref>`` and the canonical region list of a grounding task.

    ``_field`` refuses grounding tags in the phrase, and ``parse_region_list``
    a region string that is not a non-empty run of one region kind. A
    canonical region list passes as it stands.
    """
    phrase = _field(fields, task, "phrase")
    regions = _plain(_require(fields, task, "regions"), f"regions of task {task!r}", ())
    if not is_canonical_region_list(regions):
        regions = "".join(map(format_region, parse_region_list(regions)))
    return f"<ref>{phrase}</ref>", regions


def build_task_sample(task: str, fields: dict) -> AnnotatedText:
    """Render one single-turn training sample in its fixed wire format.

    Every format starts with an unsupervised ``<img>`` placeholder and ends
    with a supervised ``<eos>``. The prompt part is context; the target part
    (caption text, answer, emitted markup, region list, description) is
    supervised. Missing fields raise :class:`MissingField`. Every plain field
    must be a string (``TypeError`` otherwise) holding no delimiter literal
    (``ValueError``); a field that is not markup, the image ref included,
    holds no grounding tag either. The markup fields (``caption`` of
    ``caption_grounded``, ``text`` of ``ocr``, ``regions``) are strings of
    grounding markup too; a caller holding nodes passes ``emit_markup(nodes)``.
    Canonical markup and the canonical ``regions`` of ``ref_grounding`` and
    ``grounded_caption`` pass as they stand; the rest is parsed and rendered
    in canonical form.
    """
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}, expected one of {TASKS}")
    img = _field(fields, task, "image")
    raw: list[_RawSegment] = [(_image_text(img), False, img)]

    if task == "caption":
        caption = _field(fields, task, "caption")
        raw.append(("Generate the caption in English: ", False, None))
        raw.append((caption, True, None))
    elif task == "caption_grounded":
        caption = _markup(task, _require(fields, task, "caption"))
        raw.append(("Generate the caption in English with grounding: ", False, None))
        raw.append((caption, True, None))
    elif task in ("vqa", "ocr_vqa"):
        question = _field(fields, task, "question")
        answer = _field(fields, task, "answer")
        raw.append((f" {question} Answer: ", False, None))
        raw.append((answer, True, None))
    elif task == "ref_grounding":
        ref, regions = _grounding(fields, task)
        raw.append((ref, False, None))
        raw.append((regions, True, None))
    elif task == "grounded_caption":
        ref, regions = _grounding(fields, task)
        description = _field(fields, task, "description")
        raw.append((ref + regions + " is ", False, None))
        raw.append((description, True, None))
    else:  # ocr
        text = _markup(task, _require(fields, task, "text"))
        raw.append(("OCR with grounding: ", False, None))
        raw.append((text, True, None))

    raw.append((EOS, True, None))
    return _assemble(raw)


def build_chatml(turns: Sequence[ChatTurn]) -> AnnotatedText:
    """Render a dialogue as a ChatML transcript with supervision spans.

    Turns must alternate user / assistant starting with user. Each image
    placeholder gets a ``Picture k:`` prefix; k counts distinct image refs by
    first appearance across the whole dialogue, so a re-shown image keeps its
    original number. Supervised spans are exactly each assistant turn's text
    content and its ``<|im_end|>``.
    """
    if not turns:
        raise EmptyDialogue("dialogue must contain at least one turn")
    for i, turn in enumerate(turns):
        want = ROLE_USER if i % 2 == 0 else ROLE_ASSISTANT
        if turn.role != want:
            raise RoleOrderViolation(
                f"turn {i} must have role {want!r}, got {turn.role!r}"
            )

    picture_no: dict[str, int] = {}
    raw: list[_RawSegment] = []
    for turn in turns:
        raw.append((f"{IM_START}{turn.role}\n", False, None))
        for seg in turn.segments:
            if seg.image_ref is not None:
                k = picture_no.setdefault(seg.image_ref, len(picture_no) + 1)
                raw.append((f"Picture {k}: ", False, None))
            raw.append((seg.text, seg.supervised, seg.image_ref))
        raw.append((IM_END, turn.role == ROLE_ASSISTANT, None))
        raw.append(("\n", False, None))
    return _assemble(raw)
