"""Output checks: every stage's report and records against the generator's labels.

Each check adds one failure per record whose outcome differs from its label,
and one per report counter that disagrees. Token records are read only
through their documented fields (``id``, ``task``, ``token_len``,
``n_images``), so a change of the token wire format is measured, not broken.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

from gen import ERROR, KEPT

IMAGE_COST = 258  # vlprep.packing.DEFAULT_IMAGE_COST; the packer config keeps it


class Checker:
    def __init__(self) -> None:
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, n: int, message: str) -> None:
        self.failed += n
        if len(self.problems) < 50:
            self.problems.append(message)

    def report(self, path: Path, stage: str, records_in: int, kept: int,
               drops: dict[str, int], errors: int) -> dict:
        """Compare a run report with the expected counters; return the report."""
        report = json.loads(path.read_text(encoding="utf-8"))
        want = {"records_in": records_in, "records_kept": kept, "errors": errors}
        for key, value in want.items():
            if report.get(key) != value:
                self.fail(1, f"{stage}: report {key}={report.get(key)}, expected {value}")
        if report.get("drops") != drops:
            self.fail(1, f"{stage}: report drops={report.get('drops')}, expected {drops}")
        accounted = report["records_kept"] + sum(report["drops"].values()) + report["errors"]
        if report["records_in"] != accounted:
            self.fail(1, f"{stage}: records_in={report['records_in']} but accounted={accounted}")
        return report

    def ids(self, stage: str, got: list, want: list) -> None:
        """Ordered id lists must match; every position from the first miss fails."""
        if got == want:
            return
        same = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                    min(len(got), len(want)))
        self.fail(max(len(got), len(want)) - same,
                  f"{stage}: ids differ from position {same} ({len(got)} vs {len(want)})")


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").split("\n") if line]


def check_clean(ck: Checker, labels, report: Path, kept: Path, verdicts: Path) -> None:
    outcomes = [o for _, o in labels]
    drops = Counter(o for o in outcomes if o not in (KEPT, ERROR))
    ck.report(report, "clean", len(labels), outcomes.count(KEPT), dict(sorted(drops.items())),
              outcomes.count(ERROR))
    lines = read_jsonl(verdicts)
    if len(lines) != len(labels):
        ck.fail(abs(len(lines) - len(labels)), "clean: one verdict per input line expected")
    for (rid, outcome), verdict in zip(labels, lines):
        decision = verdict.get("decision")
        got = {"keep": KEPT, "error": ERROR}.get(decision, verdict.get("rule_id"))
        if got != outcome or (rid is not None and verdict.get("id") != rid):
            ck.fail(1, f"clean: {rid or 'malformed line'} got {got}, labelled {outcome}")
    ck.ids("clean", [r["id"] for r in read_jsonl(kept)],
           [rid for rid, o in labels if o == KEPT])


def check_build(ck: Checker, stage: str, labels, inputs: list[str], report: Path,
                tokens: Path, n_images) -> list[dict]:
    """build-task / build-chat: kept ids in order, documented fields sane."""
    outcomes = [o for _, o in labels]
    ck.report(report, stage, len(labels), outcomes.count(KEPT), {}, outcomes.count(ERROR))
    expected = {}
    for (rid, outcome), line in zip(labels, inputs):
        if outcome == KEPT:
            record = json.loads(line)
            expected[rid] = (record.get("task", "chat"), n_images(line))
    records = read_jsonl(tokens)
    ck.ids(stage, [r["id"] for r in records], list(expected))
    for r in records:
        task, images = expected.get(r["id"], (None, None))
        token_len = r.get("token_len")
        if (r.get("task") != task or r.get("n_images") != images
                or not isinstance(token_len, int) or token_len < 1):
            ck.fail(1, f"{stage}: {r['id']} has task={r.get('task')} "
                       f"n_images={r.get('n_images')} token_len={token_len}")
    return records


def check_markup(ck: Checker, labels, report: Path, checked: Path) -> None:
    outcomes = [o for _, o in labels]
    drops = Counter(o for o in outcomes if o not in (KEPT, ERROR))
    ck.report(report, "check-markup", len(labels), outcomes.count(KEPT),
              dict(sorted(drops.items())), outcomes.count(ERROR))
    want = [(rid, o) for rid, o in labels if o != ERROR]
    lines = read_jsonl(checked)
    ck.ids("check-markup", [r.get("id") for r in lines], [rid for rid, _ in want])
    for (rid, outcome), r in zip(want, lines):
        got = KEPT if r.get("ok") else "non_canonical" if "canonical" in r else "parse_error"
        if got != outcome:
            ck.fail(1, f"check-markup: {rid} got {got}, labelled {outcome}")


def check_pack(ck: Checker, samples: list[dict], max_len: int, report: Path,
               sequences: Path) -> dict:
    """Every build line accepted; packed ids = kept ids in arrival order per task."""
    cost = {s["id"]: s["token_len"] + s["n_images"] * IMAGE_COST for s in samples}
    oversize = [i for i, c in cost.items() if c > max_len]
    got = ck.report(report, "pack", len(samples), len(samples) - len(oversize),
                    {"oversize": len(oversize)} if oversize else {}, 0)
    seqs = read_jsonl(sequences)
    if got.get("sequences_out") != len(seqs):
        ck.fail(1, f"pack: sequences_out={got.get('sequences_out')}, wrote {len(seqs)}")
    packed: dict[str, list[str]] = {}
    for seq in seqs:
        packed.setdefault(seq["task"], []).extend(seq["sample_ids"])
        total = sum(cost.get(i, 0) for i in seq["sample_ids"])
        if seq["total_len"] != total or total > max_len:
            ck.fail(len(seq["sample_ids"]), f"pack: sequence total_len={seq['total_len']}, "
                                            f"samples cost {total}, budget {max_len}")
    for task in sorted({s["task"] for s in samples}):
        want = [s["id"] for s in samples if s["task"] == task and cost[s["id"]] <= max_len]
        ck.ids(f"pack[{task}]", packed.get(task, []), want)
    return got


def check_stats(ck: Checker, pack_report: dict, report: Path, stats: Path,
                sequences: Path) -> dict:
    seqs = read_jsonl(sequences)
    ck.report(report, "stats", len(seqs), len(seqs), {}, 0)
    usage = json.loads(stats.read_text(encoding="utf-8"))
    want = {"n_sequences": pack_report["sequences_out"],
            "n_samples": pack_report["records_kept"],
            "fill_ratio": pack_report["mean_fill"],
            "total_tokens": sum(s["total_len"] for s in seqs)}
    for key, value in want.items():
        if usage.get(key) != value:
            ck.fail(1, f"stats: {key}={usage.get(key)} but pack gives {value}")
    return usage
