"""The base class of vlprep's per-record value classes.

Samples, verdicts, markup nodes, chat segments and the kernel's parameter
and optimizer state are built once per record or step, and ``import
vlprep.cli`` defines all fifteen of their classes. A ``@dataclass`` costs
~0.6 ms to create, because it generates and ``exec``s its methods; a class
built on :class:`Value` costs ~0.01 ms. Each subclass lists its fields in
``__slots__``, in constructor order, and writes its own ``__init__`` with
its checks. :class:`Value` supplies the rest from the ``__slots__`` of the
class and its bases, with the behaviour of the dataclass each one replaced:

- ``__eq__`` compares field values with an instance of the same class and
  returns ``NotImplemented`` for anything else, so no instance equals an
  instance of another class with the same fields, or a tuple;
- ``__hash__`` hashes the tuple of field values; a class declared with
  ``frozen=False`` is mutable and unhashable;
- ``__repr__`` is the dataclass repr, ``Name(field=value, ...)``;
- ``__match_args__`` is the field names;
- a frozen class refuses assignment and deletion with
  ``dataclasses.FrozenInstanceError``, so its ``__init__`` writes its
  fields with :data:`set_field`;
- pickling and ``copy`` rebuild an instance through its constructor, which
  checks the fields again.

``dataclasses.replace``, ``asdict`` and ``fields`` do not apply to these
classes. The config classes, ``CorpusRecord`` and ``cli.RunReport`` stay
dataclasses.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError

# How a frozen class's __init__ writes a field, past its own __setattr__. A
# module global is ~25 ns per field faster than looking up object.__setattr__.
set_field = object.__setattr__


def _refuse_assignment(self, name: str, value) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


class Value:
    """A value class: fields in ``__slots__``, ``frozen`` unless declared
    with ``class C(Value, frozen=False)``."""

    __slots__ = ()

    def __init_subclass__(cls, frozen: bool = True, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = tuple(name for c in reversed(cls.__mro__)
                                   for name in c.__dict__.get("__slots__", ()))
        if frozen:
            cls.__setattr__ = _refuse_assignment
            cls.__delattr__ = _refuse_deletion
        else:
            cls.__hash__ = None

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__match_args__))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()
