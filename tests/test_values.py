"""The contract of the per-record value classes built on ``vlprep.values.Value``.

Each of them replaced a ``@dataclass`` and keeps what that dataclass gave its
callers: construction by position and keyword with the same defaults,
equality only within its own class, hashing where it is frozen, the
dataclass repr, ``FrozenInstanceError`` on assignment, and pickle and copy
round trips.
"""

import collections
import copy
import dataclasses
import inspect
import pickle
import subprocess
import sys

import pytest

from vlprep.chat import AnnotatedText, ChatTurn, Segment
from vlprep.filters import FilterVerdict, RefSpan
from vlprep.grounding import GridBox, PixelBox, QuadGrid, Ref, Text
from vlprep.optim import AdamWState
from vlprep.packing import PackedSequence, Sample, UtilizationReport, pack, utilization_report
from vlprep.resampler import ResamplerParams
from vlprep.values import Value

HASHABLE, UNHASHABLE, DICT_FIELD = "hashable", "unhashable", "dict field"

# (class, every field by position, the pinned repr, hashing, defaults) where
# defaults is (a shorter positional call, the full call it equals) or None.
CASES = [
    (Segment, ("<img>a.jpg</img>", False, "a.jpg"),
     "Segment(text='<img>a.jpg</img>', supervised=False, image_ref='a.jpg')",
     HASHABLE, (("hi", True), ("hi", True, None))),
    (ChatTurn, ("assistant", (Segment("hi", True),)),
     "ChatTurn(role='assistant', segments=(Segment(text='hi', supervised=True, image_ref=None),))",
     HASHABLE, None),
    (AnnotatedText, ("<img>a</img>hi", ((0, 12, False), (12, 14, True)), ((0, "a"),)),
     "AnnotatedText(text='<img>a</img>hi', spans=((0, 12, False), (12, 14, True)), "
     "images=((0, 'a'),))",
     HASHABLE, (("hi", ((0, 2, True),)), ("hi", ((0, 2, True),), ()))),
    (FilterVerdict, ("drop", "R1_aspect", "aspect 5.0 > 3.0"),
     "FilterVerdict(decision='drop', rule_id='R1_aspect', detail='aspect 5.0 > 3.0')",
     HASHABLE, (("keep",), ("keep", None, ""))),
    (RefSpan, (0, 3, (GridBox(1, 2, 3, 4),)),
     "RefSpan(start=0, end=3, regions=(GridBox(x1=1, y1=2, x2=3, y2=4),))",
     HASHABLE, None),
    (PixelBox, (1.5, 2.0, 10.0, 20.5, 64, 48),
     "PixelBox(x1=1.5, y1=2.0, x2=10.0, y2=20.5, width=64, height=48)", HASHABLE, None),
    (GridBox, (1, 2, 3, 4), "GridBox(x1=1, y1=2, x2=3, y2=4)", HASHABLE, None),
    (QuadGrid, ((1, 2), (3, 4), (5, 6), (7, 8)),
     "QuadGrid(p1=(1, 2), p2=(3, 4), p3=(5, 6), p4=(7, 8))", HASHABLE, None),
    (Text, ("a cat",), "Text(content='a cat')", HASHABLE, None),
    (Ref, ("a cat", (GridBox(1, 2, 3, 4),)),
     "Ref(content='a cat', regions=(GridBox(x1=1, y1=2, x2=3, y2=4),))", HASHABLE, None),
    (Sample, ("s1", "caption", 12, 1),
     "Sample(id='s1', task='caption', token_len=12, n_images=1)",
     HASHABLE, (("s1", "caption", 12), ("s1", "caption", 12, 0))),
    (PackedSequence, ("caption", ["s1", "s2"], 30),
     "PackedSequence(task='caption', sample_ids=['s1', 's2'], total_len=30)",
     UNHASHABLE, (("caption",), ("caption", [], 0))),
    (UtilizationReport, (1, 2, 30, 0.5, {"caption": {"n_sequences": 1}}),
     "UtilizationReport(n_sequences=1, n_samples=2, total_tokens=30, fill_ratio=0.5, "
     "per_task={'caption': {'n_sequences': 1}})",
     DICT_FIELD, None),
    (AdamWState, (3, {"w": 0.5}, {"w": 0.25}),
     "AdamWState(step=3, m={'w': 0.5}, v={'w': 0.25})", UNHASHABLE, None),
    (ResamplerParams, ((1.0,), (2.0,), (3.0,), (4.0,), (5.0,)),
     "ResamplerParams(queries=(1.0,), w_q=(2.0,), w_k=(3.0,), w_v=(4.0,), w_o=(5.0,))",
     UNHASHABLE, None),
]
CLASSES = [case[0] for case in CASES]
FROZEN = {cls for cls, *_, hashing, _ in CASES if hashing != UNHASHABLE}


def names(cls):
    return tuple(inspect.signature(cls).parameters)


@pytest.fixture(params=CASES, ids=[cls.__name__ for cls in CLASSES])
def case(request):
    return request.param


def test_the_fifteen_value_classes_are_value_classes_not_dataclasses():
    assert len(set(CLASSES)) == 15
    for cls in CLASSES:
        assert issubclass(cls, Value) and not dataclasses.is_dataclass(cls), cls


def test_construction_by_position_and_keyword(case):
    cls, args, *_ = case
    obj = cls(*args)
    assert names(cls) == cls.__slots__ == cls.__match_args__
    assert tuple(getattr(obj, name) for name in cls.__slots__) == args
    assert cls(**dict(zip(names(cls), args))) == obj
    assert not hasattr(obj, "__dict__")


def test_defaults(case):
    cls, *_, defaults = case
    if defaults is None:
        assert all(p.default is p.empty for p in inspect.signature(cls).parameters.values())
        return
    short, full = defaults
    assert cls(*short) == cls(*full)


def test_every_packed_sequence_gets_its_own_sample_ids_list():
    a, b = PackedSequence("caption"), PackedSequence("caption")
    a.sample_ids.append("s1")
    assert b.sample_ids == [] and a.sample_ids == ["s1"]
    assert PackedSequence("caption", None).sample_ids is None  # None is kept, as before


def test_equality_is_within_one_class(case):
    cls, args, *_ = case
    obj = cls(*args)
    assert obj == cls(*args) and not obj != cls(*args)
    twin = collections.namedtuple(cls.__name__, cls.__slots__)(*args)  # a class with these fields
    subclass = type(cls.__name__, (cls,), {"__slots__": ()}, frozen=cls in FROZEN)
    for other in (twin, tuple(args), subclass(*args)):
        assert obj != other and not obj == other
        assert other != obj and not other == obj
    assert subclass(*args) == subclass(*args) and repr(subclass(*args)) == repr(obj)


def test_boxes_with_the_same_corners_differ_across_classes():
    assert GridBox(1, 2, 3, 4) != PixelBox(1, 2, 3, 4, 10, 10)
    assert Text("a") != Ref("a", (GridBox(1, 2, 3, 4),))


def test_hash(case):
    cls, args, _, hashing, _ = case
    obj = cls(*args)
    if hashing == HASHABLE:
        assert hash(obj) == hash(cls(*args)) == hash(args)
        assert len({obj, cls(*args)}) == 1
    else:
        with pytest.raises(TypeError, match="dict" if hashing == DICT_FIELD else cls.__name__):
            hash(obj)


def test_repr_is_the_dataclass_repr(case):
    cls, args, pinned, *_ = case
    assert repr(cls(*args)) == pinned


def test_frozen_classes_refuse_assignment_and_deletion(case):
    cls, args, *_ = case
    obj = cls(*args)
    for name, value in zip(cls.__slots__, args):
        if cls in FROZEN:
            with pytest.raises(dataclasses.FrozenInstanceError, match=f"assign to field '{name}'"):
                setattr(obj, name, value)
            with pytest.raises(dataclasses.FrozenInstanceError, match=f"delete field '{name}'"):
                delattr(obj, name)
        else:
            setattr(obj, name, value)
    if cls in FROZEN:
        with pytest.raises(dataclasses.FrozenInstanceError):
            obj.not_a_field = 1
    assert obj == cls(*args)


def test_pickle_and_copy_round_trips(case):
    cls, args, *_ = case
    obj = cls(*args)
    copies = [pickle.loads(pickle.dumps(obj, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(obj), copy.deepcopy(obj)]
    for other in copies:
        assert type(other) is cls and other == obj and repr(other) == repr(obj)
    deep = copy.deepcopy(obj)
    for name in cls.__slots__:
        if isinstance(getattr(obj, name), (list, dict)):
            assert getattr(deep, name) is not getattr(obj, name)


def test_pickling_rebuilds_through_the_checking_constructor():
    sample = Sample("s1", "caption", 12)
    object.__setattr__(sample, "token_len", 0)
    with pytest.raises(ValueError, match="token_len must be >= 1"):
        pickle.loads(pickle.dumps(sample))


def test_utilization_report_json_is_an_independent_copy():
    sequences, _ = pack([Sample("a", "caption", 10), Sample("b", "vqa", 20)])
    report = utilization_report(sequences)
    first = report.to_json()
    assert first == {"n_sequences": 2, "n_samples": 2, "total_tokens": 30,
                     "fill_ratio": 30 / 4096,
                     "per_task": {"caption": {"n_sequences": 1, "n_samples": 1, "total_tokens": 10},
                                  "vqa": {"n_sequences": 1, "n_samples": 1, "total_tokens": 20}}}
    first["per_task"]["caption"]["n_samples"] = 99
    first["per_task"]["ocr"] = {}
    assert report.to_json() == dict(first, per_task={
        "caption": {"n_sequences": 1, "n_samples": 1, "total_tokens": 10},
        "vqa": {"n_sequences": 1, "n_samples": 1, "total_tokens": 20}})


# The only dataclasses left in vlprep: the six config classes, whose callers
# make changed copies with dataclasses.replace, CorpusRecord and RunReport.
DATACLASSES = {
    "vlprep.cli.RunReport", "vlprep.demo.DemoConfig", "vlprep.filters.CorpusRecord",
    "vlprep.filters.FilterConfig", "vlprep.packing.PackerConfig",
    "vlprep.resampler.ResamplerConfig", "vlprep.schedules.ScheduleConfig",
    "vlprep.schedules.StageConfig",
}
_LIST_DATACLASSES = """
import dataclasses, sys
import vlprep.cli
for name, module in sorted(sys.modules.items()):
    if name.split(".")[0] == "vlprep":
        for obj in vars(module).values():
            if (isinstance(obj, type) and obj.__module__ == name
                    and dataclasses.is_dataclass(obj)):
                print(f"{name}.{obj.__qualname__}")
"""


def test_import_of_the_cli_creates_only_the_eight_dataclasses():
    """Each ``@dataclass`` costs ~0.6 ms of every command's start-up."""
    proc = subprocess.run([sys.executable, "-c", _LIST_DATACLASSES],
                          capture_output=True, text=True, timeout=120, check=True)
    found = set(proc.stdout.split())
    assert found == DATACLASSES, (
        f"import vlprep.cli creates dataclasses {sorted(found - DATACLASSES)} and lacks "
        f"{sorted(DATACLASSES - found)}; a per-record value class subclasses "
        "vlprep.values.Value instead of being a @dataclass")
