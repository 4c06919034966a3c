import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vlprep.packing import (
    PackedSequence,
    PackerConfig,
    Sample,
    effective_len,
    pack,
    utilization_report,
)


def reference_pack(samples, cfg=PackerConfig()):
    """Next-fit packing over a whole list: (sequences, dropped ids).

    The list-based packer ``pack`` streamed from; its sequences are the ones
    ``pack`` must yield, in this order.
    """
    open_seq = {}
    sequences = []
    dropped = []
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


def fitting_ids(samples, cfg=PackerConfig()):
    """The ids of the samples that fit ``cfg.max_len``: the ones pack must place."""
    return [s.id for s in samples if effective_len(s, cfg) <= cfg.max_len]


def make_samples(lengths, task="caption", n_images=0):
    return [
        Sample(id=f"s{i}", task=task, token_len=n, n_images=n_images)
        for i, n in enumerate(lengths)
    ]


def optimal_bins(lengths, cap):
    """Exact minimal bin count by subset-partition dynamic programming."""
    n = len(lengths)
    fits = [
        sum(lengths[i] for i in range(n) if mask >> i & 1) <= cap
        for mask in range(1 << n)
    ]
    best = [0] + [n + 1] * ((1 << n) - 1)
    for mask in range(1, 1 << n):
        sub = mask
        while sub:
            if fits[sub]:
                best[mask] = min(best[mask], best[mask ^ sub] + 1)
            sub = (sub - 1) & mask
    return best[-1]


class TestEffectiveLen:
    def test_one_image(self):
        s = Sample("a", "vqa", token_len=100, n_images=1)
        assert effective_len(s) == 358

    def test_no_images(self):
        s = Sample("a", "vqa", token_len=77)
        assert effective_len(s) == 77

    def test_seven_images(self):
        s = Sample("a", "chat", token_len=1, n_images=7)
        assert effective_len(s) == 1807

    def test_custom_image_cost(self):
        s = Sample("a", "vqa", token_len=10, n_images=2)
        assert effective_len(s, PackerConfig(max_len=512, image_cost=66)) == 142


class TestSampleValidation:
    def test_zero_token_len(self):
        with pytest.raises(ValueError):
            Sample("a", "vqa", token_len=0)

    def test_negative_images(self):
        with pytest.raises(ValueError):
            Sample("a", "vqa", token_len=1, n_images=-1)

    def test_config_max_len_must_exceed_image_cost(self):
        with pytest.raises(ValueError):
            PackerConfig(max_len=258, image_cost=258)


class _Broken(Exception):
    pass


def _raising_after(samples, k):
    """The first ``k`` samples, then an exception in place of the next one."""
    yield from samples[:k]
    raise _Broken


class TestPack:
    def test_open_bin_boundary(self):
        seqs = list(pack(make_samples([1000, 1000, 100])))
        assert [s.sample_ids for s in seqs] == [["s0", "s1"], ["s2"]]
        assert [s.total_len for s in seqs] == [2000, 100]

    def test_exact_fit_boundary(self):
        seqs = list(pack(make_samples([1000, 1048])))
        assert [s.total_len for s in seqs] == [2048]

    def test_oversize_dropped(self):
        assert list(pack(make_samples([2049]))) == []

    def test_max_len_itself_fits(self):
        seqs = list(pack(make_samples([2048])))
        assert [s.sample_ids for s in seqs] == [["s0"]]
        assert seqs[0].total_len == 2048

    def test_image_cost_counts_against_budget(self):
        samples = [Sample("a", "vqa", token_len=1791, n_images=1)]
        assert list(pack(samples)) == []

    def test_only_open_sequence_is_tried(self):
        # 400 would fit back into the first sequence, but that one is closed.
        seqs = list(pack(make_samples([1500, 1000, 400])))
        assert [s.sample_ids for s in seqs] == [["s0"], ["s1", "s2"]]

    def test_tasks_never_mix(self):
        samples = [
            Sample("a1", "A", 100),
            Sample("b1", "B", 100),
            Sample("a2", "A", 100),
            Sample("b2", "B", 100),
        ]
        seqs = list(pack(samples))
        assert {s.task: s.sample_ids for s in seqs} == {
            "A": ["a1", "a2"],
            "B": ["b1", "b2"],
        }

    def test_arrival_order_preserved_within_task(self):
        seqs = list(pack(make_samples([1, 2, 3, 4])))
        assert seqs[0].sample_ids == ["s0", "s1", "s2", "s3"]

    def test_determinism(self):
        lengths = [random.Random(7).randint(1, 2048) for _ in range(200)]
        first = list(pack(make_samples(lengths)))
        second = list(pack(make_samples(lengths)))
        assert [s.sample_ids for s in first] == [s.sample_ids for s in second]

    def test_empty_input(self):
        assert list(pack([])) == []

    def test_rare_task_holds_back_later_sequences_until_the_end(self):
        samples = [Sample("r", "rare", 10)] + make_samples([1500] * 4)
        # Three caption sequences close, but the "rare" one before them is open.
        with pytest.raises(_Broken):
            next(pack(_raising_after(samples, len(samples))))
        assert [s.sample_ids for s in pack(samples)] == [["r"], ["s0"], ["s1"], ["s2"], ["s3"]]


_lengths = st.tuples(st.integers(1, 3000), st.integers(0, 2))  # token_len, n_images


@st.composite
def packing_samples(draw):
    """Samples of 1-4 tasks: 1-3 common ones, and a rare one drawn at most
    twice, whose open sequence holds back every sequence opened after it."""
    tasks = draw(st.lists(st.sampled_from("ABC"), min_size=1, max_size=3, unique=True))
    entries = draw(st.lists(st.tuples(st.sampled_from(tasks), _lengths), max_size=60))
    for position in draw(st.lists(st.integers(0, len(entries)), max_size=2)):
        entries.insert(position, ("rare", draw(_lengths)))
    return [Sample(id=f"s{i}", task=task, token_len=n, n_images=k)
            for i, (task, (n, k)) in enumerate(entries)]


@given(packing_samples(), st.sampled_from([PackerConfig(), PackerConfig(600, 100)]))
def test_streamed_sequences_are_the_reference_packing(samples, cfg):
    assert list(pack(samples, cfg)) == reference_pack(samples, cfg)[0]


@given(packing_samples(), st.data())
def test_closed_sequences_come_out_before_the_input_ends(samples, data):
    """Every sequence that is closed, with all before it, is yielded before the
    next sample is read."""
    k = data.draw(st.integers(0, len(samples)), label="k")
    seen, _ = reference_pack(samples[:k])
    open_now = {seq.task: seq for seq in seen}  # each task's last sequence is open
    ready = 0
    while ready < len(seen) and open_now[seen[ready].task] is not seen[ready]:
        ready += 1
    yielded = []
    with pytest.raises(_Broken):
        for seq in pack(_raising_after(samples, k)):
            yielded.append(seq)
    assert yielded == seen[:ready]


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["A", "B", "C"]),
            st.integers(min_value=1, max_value=3000),
            st.integers(min_value=0, max_value=2),
        ),
        max_size=60,
    )
)
def test_conservation_and_bounds(entries):
    cfg = PackerConfig()
    samples = [
        Sample(id=f"s{i}", task=t, token_len=n, n_images=k)
        for i, (t, n, k) in enumerate(entries)
    ]
    seqs = list(pack(samples, cfg))
    by_id = {s.id: s for s in samples}
    packed_ids = [sid for seq in seqs for sid in seq.sample_ids]
    assert sorted(packed_ids) == sorted(fitting_ids(samples, cfg))
    for seq in seqs:
        assert seq.total_len <= cfg.max_len
        assert seq.total_len == sum(
            effective_len(by_id[sid], cfg) for sid in seq.sample_ids
        )
        assert all(by_id[sid].task == seq.task for sid in seq.sample_ids)
    kept_total = sum(effective_len(by_id[sid], cfg) for sid in fitting_ids(samples, cfg))
    assert kept_total == sum(seq.total_len for seq in seqs)


def test_within_factor_two_of_optimal():
    rng = random.Random(13)
    cfg = PackerConfig(max_len=100, image_cost=10)
    for _ in range(60):
        n = rng.randint(1, 10)
        lengths = [rng.randint(1, 100) for _ in range(n)]
        samples = make_samples(lengths, task="t")
        seqs = list(pack(samples, cfg))
        placed = [sid for seq in seqs for sid in seq.sample_ids]
        assert sorted(placed) == sorted(fitting_ids(samples, cfg))
        opt = optimal_bins(lengths, cfg.max_len)
        assert len(seqs) <= 2 * opt


class TestUtilizationReport:
    def test_full_sequence(self):
        report = utilization_report(pack(make_samples([2048])))
        assert report.fill_ratio == 1.0
        assert report.n_sequences == 1

    def test_partial_fill(self):
        report = utilization_report(pack(make_samples([1000, 1000, 100])))
        assert report.fill_ratio == pytest.approx(2100 / 4096)
        assert report.n_samples == 3
        assert report.total_tokens == 2100

    def test_empty(self):
        report = utilization_report([])
        assert report.n_sequences == 0
        assert report.fill_ratio == 0.0
        assert report.per_task == {}

    def test_per_task_breakdown(self):
        samples = [Sample("a", "A", 10), Sample("b", "B", 20)]
        report = utilization_report(pack(samples))
        assert report.per_task["A"]["total_tokens"] == 10
        assert report.per_task["B"]["n_samples"] == 1
        assert report.to_json()["per_task"]["A"]["n_sequences"] == 1
