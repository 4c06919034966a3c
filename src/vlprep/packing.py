"""Packing of training samples into fixed-length same-task sequences.

Samples are never split and never reordered: within each task bucket the
packer appends to the most recently opened sequence and opens a new one when
the next sample does not fit. That keeps the packing a pure function of the
input order, which matters for reproducing a corpus byte-for-byte. The cost
of a sample is its text token count plus a fixed per-image charge covering
the compressed image feature block and its two delimiter tokens.

Oversize samples (effective length above ``max_len``) cannot be packed and
are returned in a dropped list instead of raising; corpus construction
treats them as a reportable statistic, not a fatal error.

``Sample``, ``PackedSequence`` and ``UtilizationReport`` are value classes
(:mod:`vlprep.values`); ``PackerConfig`` is a frozen dataclass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .values import Value, set_field

# 256 compressed image features plus the two image delimiter tokens.
DEFAULT_IMAGE_COST = 258
DEFAULT_MAX_LEN = 2048


class Sample(Value):
    """Length accounting view of one training sample."""

    __slots__ = ("id", "task", "token_len", "n_images")

    def __init__(self, id: str, task: str, token_len: int, n_images: int = 0) -> None:
        if token_len < 1:
            raise ValueError(f"token_len must be >= 1, got {token_len}")
        if n_images < 0:
            raise ValueError(f"n_images must be >= 0, got {n_images}")
        set_field(self, "id", id)
        set_field(self, "task", task)
        set_field(self, "token_len", token_len)
        set_field(self, "n_images", n_images)


# The default of PackedSequence.sample_ids, which stands for a new empty list.
_NEW_LIST: list[str] = []


class PackedSequence(Value, frozen=False):
    """One packed sequence: its task, its samples' ids in arrival order, and
    their summed effective length. Mutable, so not hashable."""

    __slots__ = ("task", "sample_ids", "total_len")

    def __init__(self, task: str, sample_ids: list[str] = _NEW_LIST, total_len: int = 0) -> None:
        self.task = task
        self.sample_ids = [] if sample_ids is _NEW_LIST else sample_ids
        self.total_len = total_len


@dataclass(frozen=True)
class PackerConfig:
    max_len: int = DEFAULT_MAX_LEN
    image_cost: int = DEFAULT_IMAGE_COST

    def __post_init__(self) -> None:
        for name in ("max_len", "image_cost"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
        if self.image_cost < 0:
            raise ValueError(f"image_cost must be >= 0, got {self.image_cost}")
        if self.max_len <= self.image_cost:
            raise ValueError(
                f"max_len ({self.max_len}) must exceed image_cost ({self.image_cost})"
            )


def effective_len(sample: Sample, cfg: PackerConfig = PackerConfig()) -> int:
    """Sequence budget consumed by a sample: text tokens plus image charges."""
    return sample.token_len + sample.n_images * cfg.image_cost


def pack(
    samples: Sequence[Sample], cfg: PackerConfig = PackerConfig()
) -> tuple[list[PackedSequence], list[str]]:
    """Pack samples into same-task sequences of at most ``cfg.max_len``.

    Returns (sequences, dropped ids). Sequences are ordered by the arrival of
    their first sample; ids inside a sequence preserve arrival order.
    """
    open_seq: dict[str, PackedSequence] = {}
    sequences: list[PackedSequence] = []
    dropped: list[str] = []
    for sample in samples:
        need = effective_len(sample, cfg)
        if need > cfg.max_len:
            dropped.append(sample.id)
            continue
        seq = open_seq.get(sample.task)
        if seq is None or seq.total_len + need > cfg.max_len:
            seq = PackedSequence(task=sample.task)
            open_seq[sample.task] = seq
            sequences.append(seq)
        seq.sample_ids.append(sample.id)
        seq.total_len += need
    return sequences, dropped


class UtilizationReport(Value):
    """Fill statistics of a list of packed sequences, overall and per task."""

    __slots__ = ("n_sequences", "n_samples", "total_tokens", "fill_ratio", "per_task")

    def __init__(self, n_sequences: int, n_samples: int, total_tokens: int, fill_ratio: float,
                 per_task: dict[str, dict[str, int]]) -> None:
        set_field(self, "n_sequences", n_sequences)
        set_field(self, "n_samples", n_samples)
        set_field(self, "total_tokens", total_tokens)
        set_field(self, "fill_ratio", fill_ratio)
        set_field(self, "per_task", per_task)

    def to_json(self) -> dict:
        """The report as a JSON object; its ``per_task`` dicts are copies."""
        return {"n_sequences": self.n_sequences, "n_samples": self.n_samples,
                "total_tokens": self.total_tokens, "fill_ratio": self.fill_ratio,
                "per_task": {task: dict(stats) for task, stats in self.per_task.items()}}


def utilization_report(
    sequences: Sequence[PackedSequence], cfg: PackerConfig = PackerConfig()
) -> UtilizationReport:
    """Fill statistics: mean fill = total tokens / (n_sequences * max_len)."""
    per_task: dict[str, dict[str, int]] = {}
    total = 0
    n_samples = 0
    for seq in sequences:
        stats = per_task.setdefault(
            seq.task, {"n_sequences": 0, "n_samples": 0, "total_tokens": 0}
        )
        stats["n_sequences"] += 1
        stats["n_samples"] += len(seq.sample_ids)
        stats["total_tokens"] += seq.total_len
        total += seq.total_len
        n_samples += len(seq.sample_ids)
    n = len(sequences)
    fill = total / (n * cfg.max_len) if n else 0.0
    return UtilizationReport(
        n_sequences=n,
        n_samples=n_samples,
        total_tokens=total,
        fill_ratio=fill,
        per_task=per_task,
    )
