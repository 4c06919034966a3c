import pytest
from hypothesis import given, settings

import vlprep.chat as chat
from conftest import MIXED_MARKUP, defective_markup, dialogues, outcome
from golden import (
    CHATML_SUPERVISED,
    CHATML_TEXT,
    CHATML_TURNS,
    TASK_FIXTURES,
)
from vlprep.chat import (
    EOS,
    IM_END,
    IM_START,
    TASKS,
    AnnotatedText,
    ChatTurn,
    Segment,
    build_chatml,
    build_task_sample,
    image_segment,
    make_turn,
)
from vlprep.errors import EmptyDialogue, MissingField, RoleOrderViolation
from vlprep.grounding import GROUNDING_TAGS, GridBox, Ref, Text, emit_markup, parse_markup


def turns_from_golden():
    return [make_turn(role, content, images) for role, content, images in CHATML_TURNS]


class TestSegments:
    def test_image_segment_shape(self):
        seg = image_segment("a/b.jpg")
        assert seg.text == "<img>a/b.jpg</img>"
        assert not seg.supervised

    def test_image_segment_rejects_supervision(self):
        with pytest.raises(ValueError):
            Segment("<img>a.jpg</img>", supervised=True, image_ref="a.jpg")

    def test_image_segment_text_must_match_ref(self):
        with pytest.raises(ValueError):
            Segment("<img>other.jpg</img>", supervised=False, image_ref="a.jpg")

    def test_empty_segment_rejected(self):
        with pytest.raises(ValueError):
            Segment("", supervised=False)

    @pytest.mark.parametrize("text, image_ref", [
        (["hi"], None), (7, None), ("<img>5</img>", 5), (None, "a.jpg"),
    ])
    def test_wrongly_typed_segment_rejected(self, text, image_ref):
        with pytest.raises(TypeError):
            Segment(text, supervised=False, image_ref=image_ref)

    @pytest.mark.parametrize("text", ["a <img>b", "b</img>", "<|im_start|>", "x<|im_end|>",
                                      "done<eos>"])
    def test_delimiter_in_segment_rejected(self, text):
        with pytest.raises(ValueError):
            Segment(text, supervised=False)
        with pytest.raises(ValueError):
            image_segment(text)

    @pytest.mark.parametrize("ref", ["p<box>q.jpg", "x<ref>y.jpg", "a</quad>.jpg"])
    def test_grounding_tag_in_image_ref_rejected(self, ref):
        with pytest.raises(ValueError):
            image_segment(ref)
        with pytest.raises(ValueError):
            Segment(f"<img>{ref}</img>", supervised=False, image_ref=ref)

    def test_grounding_tags_allowed_in_segment(self):
        assert Segment("<ref>a</ref><box>(1,2),(3,4)</box>", supervised=True).supervised

    def test_make_turn_takes_images_as_list_or_tuple_of_strings(self):
        assert make_turn("user", "hi", ("a.jpg",)) == make_turn("user", "hi", ["a.jpg"])
        for images in ("a.jpg", {"a.jpg": 1}, [5], [None]):
            with pytest.raises(TypeError):
                make_turn("user", "hi", images)
        with pytest.raises(TypeError):
            make_turn("user", None, ["a.jpg"])

    def test_turn_role_vocabulary(self):
        with pytest.raises(ValueError):
            ChatTurn("system", (Segment("hi", supervised=False),))

    def test_turn_supervision_must_match_role(self):
        with pytest.raises(ValueError):
            ChatTurn("user", (Segment("hi", supervised=True),))
        with pytest.raises(ValueError):
            ChatTurn("assistant", (Segment("hi", supervised=False),))


class TestAnnotatedText:
    def test_spans_must_tile(self):
        with pytest.raises(ValueError):
            AnnotatedText("abc", ((0, 1, False), (2, 3, True)))

    def test_spans_must_cover_full_text(self):
        with pytest.raises(ValueError):
            AnnotatedText("abc", ((0, 2, False),))

    def test_empty_spans_rejected(self):
        with pytest.raises(ValueError):
            AnnotatedText("ab", ((0, 1, False), (1, 1, True), (1, 2, True)))

    def test_image_offset_checked(self):
        with pytest.raises(ValueError):
            AnnotatedText("xx", ((0, 2, False),), ((0, "a.jpg"),))

    def test_supervised_substrings(self):
        a = AnnotatedText("abcd", ((0, 2, False), (2, 4, True)))
        assert a.supervised_substrings == ["cd"]
        assert a.supervised_char_count == 2


class TestTaskFormats:
    @pytest.mark.parametrize("task", sorted(TASK_FIXTURES))
    def test_golden_text(self, task):
        fx = TASK_FIXTURES[task]
        sample = build_task_sample(task, fx["fields"])
        assert sample.text == fx["text"]

    @pytest.mark.parametrize("task", sorted(TASK_FIXTURES))
    def test_golden_supervision(self, task):
        fx = TASK_FIXTURES[task]
        sample = build_task_sample(task, fx["fields"])
        assert sample.supervised_substrings == fx["supervised"]

    @pytest.mark.parametrize("task", sorted(TASK_FIXTURES))
    def test_image_recorded_at_start(self, task):
        fx = TASK_FIXTURES[task]
        sample = build_task_sample(task, fx["fields"])
        assert sample.images == ((0, fx["fields"]["image"]),)

    def test_every_task_has_a_fixture(self):
        assert sorted(TASK_FIXTURES) == sorted(TASKS)

    def test_vqa_prompt_shape(self):
        sample = build_task_sample(
            "vqa", {"image": "i.jpg", "question": "Q", "answer": "A"}
        )
        prefix = sample.text[: sample.text.index("A<eos>")]
        assert prefix.endswith("Q Answer: ")

    def test_caption_ends_with_eos(self):
        fx = TASK_FIXTURES["caption"]
        sample = build_task_sample("caption", fx["fields"])
        assert sample.text.endswith(EOS)

    def test_unknown_task(self):
        with pytest.raises(ValueError):
            build_task_sample("translation", {"image": "i.jpg"})

    @pytest.mark.parametrize(
        "task,fields",
        [
            ("caption", {"image": "i.jpg"}),
            ("vqa", {"image": "i.jpg", "question": "Q"}),
            ("vqa", {"image": "i.jpg", "answer": "A"}),
            ("ref_grounding", {"image": "i.jpg", "phrase": "p"}),
            ("grounded_caption", {"image": "i.jpg", "phrase": "p",
                                  "regions": "<box>(1,2),(3,4)</box>"}),
            ("ocr", {"image": "i.jpg"}),
            ("caption", {"caption": "c"}),
        ],
    )
    def test_missing_fields(self, task, fields):
        with pytest.raises(MissingField):
            build_task_sample(task, fields)

    def test_tags_rejected_in_plain_fields(self):
        with pytest.raises(ValueError):
            build_task_sample(
                "caption", {"image": "i.jpg", "caption": "a <box> caption"}
            )

    @pytest.mark.parametrize("task, fields", [
        ("caption", {"image": ["x.jpg"], "caption": "c"}),
        ("caption", {"image": "x.jpg", "caption": 5}),
        ("vqa", {"image": "x.jpg", "question": ["Q?"], "answer": "A"}),
        ("ref_grounding", {"image": "x.jpg", "phrase": ["a", "b"], "regions": "<box>(1,2),(3,4)</box>"}),
        ("grounded_caption", {"image": "x.jpg", "phrase": "p",
                              "regions": "<box>(1,2),(3,4)</box>", "description": 3}),
    ])
    def test_wrongly_typed_plain_field_rejected(self, task, fields):
        with pytest.raises(TypeError):
            build_task_sample(task, fields)

    # Markup fields take only strings: an empty list, any other non-string
    # and a list of node objects are each a TypeError.
    @pytest.mark.parametrize("task, fields", [
        ("caption_grounded", {"image": "x.jpg", "caption": []}),
        ("ocr", {"image": "x.jpg", "text": ()}),
        ("ref_grounding", {"image": "x.jpg", "phrase": "p", "regions": []}),
    ])
    def test_empty_markup_list_rejected(self, task, fields):
        with pytest.raises(TypeError, match="must be a string"):
            build_task_sample(task, fields)

    @pytest.mark.parametrize("task, fields", [
        ("caption_grounded", {"image": "x.jpg", "caption": iter([Text("a")])}),
        ("ocr", {"image": "x.jpg", "text": {"k": 1}}),
        ("ref_grounding", {"image": "x.jpg", "phrase": "p", "regions": 7}),
        ("ocr", {"image": "x.jpg", "text": ["x"]}),  # a list, but of strings
    ])
    def test_markup_field_that_is_no_list_rejected(self, task, fields):
        with pytest.raises(TypeError, match="must be a string"):
            build_task_sample(task, fields)

    @pytest.mark.parametrize("task, fields", [
        ("caption_grounded", {"image": "x.jpg",
                              "caption": [Text("a "), Ref("b", (GridBox(1, 2, 3, 4),))]}),
        ("ref_grounding", {"image": "x.jpg", "phrase": "p", "regions": [GridBox(1, 2, 3, 4)]}),
    ], ids=["caption-nodes", "region-objects"])
    def test_markup_nodes_rejected(self, task, fields):
        with pytest.raises(TypeError, match="must be a string"):
            build_task_sample(task, fields)

    @pytest.mark.parametrize("task, fields", [
        ("caption", {"image": "x<eos>", "caption": "c"}),
        ("caption", {"image": "x.jpg", "caption": "a <img>b</img>"}),
        ("vqa", {"image": "x.jpg", "question": "Q<|im_end|>", "answer": "A"}),
        ("caption_grounded", {"image": "x.jpg", "caption": "a <eos>"}),
        ("ocr", {"image": "x.jpg", "text": "<|im_start|><ref>a</ref><box>(1,2),(3,4)</box>"}),
    ])
    def test_delimiter_in_field_rejected(self, task, fields):
        with pytest.raises(ValueError):
            build_task_sample(task, fields)

    @pytest.mark.parametrize("task, fields", [
        ("caption", {"image": "x<ref>y.jpg", "caption": "A cat."}),
        ("ocr", {"image": "a</box>.jpg", "text": "<ref>a</ref><box>(1,2),(3,4)</box>"}),
    ])
    def test_grounding_tag_in_image_field_rejected(self, task, fields):
        with pytest.raises(ValueError):
            build_task_sample(task, fields)

    def test_bad_region_string_rejected(self):
        with pytest.raises(ValueError):
            build_task_sample(
                "ref_grounding",
                {"image": "i.jpg", "phrase": "p", "regions": "plain text"},
            )


@pytest.mark.parametrize("task, key", [("caption_grounded", "caption"), ("ocr", "text")])
def test_canonical_markup_fast_path_renders_as_the_round_trip(monkeypatch, task, key):
    def outcomes():
        out = []
        for value in MIXED_MARKUP:
            try:
                out.append(build_task_sample(task, {"image": "x.jpg", key: value}))
            except Exception as e:  # noqa: BLE001 - the class is part of the outcome
                out.append((type(e), str(e)))
        return out

    fast = outcomes()
    monkeypatch.setattr(chat, "canonical_prefix", lambda s: 0)  # parse every string whole
    assert outcomes() == fast


def render_ocr(text):
    return build_task_sample("ocr", {"image": "x.jpg", "text": text})


@given(markup=defective_markup())
@settings(max_examples=100, deadline=None)
def test_markup_field_renders_as_the_whole_parse(markup):
    # The oracle parses the whole string; its canonical text then passes as it stands.
    whole = outcome(lambda s: render_ocr(emit_markup(parse_markup(s))), markup)
    assert outcome(render_ocr, markup) == whole


class TestChatml:
    def test_golden_transcript(self):
        assert build_chatml(turns_from_golden()).text == CHATML_TEXT

    def test_golden_supervised_spans(self):
        out = build_chatml(turns_from_golden())
        assert out.supervised_substrings == CHATML_SUPERVISED

    def test_image_offsets_point_at_placeholders(self):
        out = build_chatml(turns_from_golden())
        assert len(out.images) == 1
        offset, ref = out.images[0]
        assert ref == "vg/VG_100K_2/649.jpg"
        assert out.text[offset:].startswith("<img>vg/VG_100K_2/649.jpg</img>")

    def test_empty_dialogue(self):
        with pytest.raises(EmptyDialogue):
            build_chatml([])

    def test_must_start_with_user(self):
        with pytest.raises(RoleOrderViolation):
            build_chatml([make_turn("assistant", "hi")])

    def test_roles_must_alternate(self):
        turns = [
            make_turn("user", "a"),
            make_turn("assistant", "b"),
            make_turn("assistant", "c"),
        ]
        with pytest.raises(RoleOrderViolation):
            build_chatml(turns)

    def test_two_images_numbered_in_order(self):
        turns = [
            make_turn("user", "compare these", ["x.jpg", "y.jpg"]),
            make_turn("assistant", "they differ"),
        ]
        out = build_chatml(turns).text
        assert "Picture 1: <img>x.jpg</img>" in out
        assert "Picture 2: <img>y.jpg</img>" in out

    def test_reshown_image_keeps_its_number(self):
        turns = [
            make_turn("user", "first", ["x.jpg"]),
            make_turn("assistant", "ok"),
            make_turn("user", "again", ["x.jpg"]),
            make_turn("assistant", "still ok"),
        ]
        out = build_chatml(turns).text
        assert out.count("Picture 1: ") == 2
        assert "Picture 2" not in out

    def test_image_in_second_turn_continues_numbering(self):
        turns = [
            make_turn("user", "first", ["x.jpg"]),
            make_turn("assistant", "ok"),
            make_turn("user", "and this", ["y.jpg"]),
            make_turn("assistant", "also ok"),
        ]
        out = build_chatml(turns).text
        assert "Picture 2: <img>y.jpg</img>" in out

    def test_no_images_no_picture_prefix(self):
        turns = [make_turn("user", "hello"), make_turn("assistant", "hi")]
        out = build_chatml(turns)
        assert "Picture" not in out.text
        assert out.images == ()

    def test_turn_layout(self):
        turns = [make_turn("user", "hello"), make_turn("assistant", "hi")]
        assert build_chatml(turns).text == (
            f"{IM_START}user\nhello{IM_END}\n{IM_START}assistant\nhi{IM_END}\n"
        )


@given(dialogues())
def test_supervision_is_exactly_assistant_content_plus_terminator(case):
    turns, answers = case
    out = build_chatml(turns)
    expected = []
    for answer in answers:
        expected.extend([answer, IM_END])
    assert out.supervised_substrings == expected


@given(dialogues())
def test_picture_numbers_gap_free_and_first_appearance_ordered(case):
    turns, _ = case
    out = build_chatml(turns)
    seen: dict[str, int] = {}
    for _, ref in out.images:
        if ref not in seen:
            seen[ref] = len(seen) + 1
    for offset, ref in out.images:
        prefix = f"Picture {seen[ref]}: "
        assert out.text[offset - len(prefix) : offset] == prefix


# _plain, Text and Ref look for their literals only in values holding a "<".
def test_every_reserved_literal_and_grounding_tag_starts_with_a_less_than_sign():
    assert all(literal.startswith("<") for literal in chat.RESERVED_LITERALS + GROUNDING_TAGS)


def _first_banned(value, banned):
    return next((literal for literal in banned if literal in value), None)


@pytest.mark.parametrize("literal", chat.RESERVED_LITERALS)
@pytest.mark.parametrize("template", ["{}", "a {} b", "<x{}", "{}</ref><eos>"])
def test_error_messages_for_a_value_holding_a_literal(literal, template):
    value = template.format(literal)
    for banned in (chat._DELIMITERS, chat.RESERVED_LITERALS, GROUNDING_TAGS):
        first = _first_banned(value, banned)
        if first is None:
            assert chat._plain(value, "the field", banned) is value
        else:
            with pytest.raises(ValueError) as e:
                chat._plain(value, "the field", banned)
            assert str(e.value) == f"the field must not contain {first!r}"
    tag = _first_banned(value, GROUNDING_TAGS)
    for make, what in ((Text, "plain text"),
                       (lambda v: Ref(v, (GridBox(1, 2, 3, 4),)), "ref content")):
        if tag is None:
            assert make(value).content == value
        else:
            with pytest.raises(ValueError) as e:
                make(value)
            assert str(e.value) == f"{what} may not contain the tag literal {tag!r}"
