"""Run the benchmark's labelled corpora through all six data commands.

Builds its inputs with perfbench/gen.py at a fixed seed: a web caption
corpus in which every cleaning rule and malformed lines occur
(``gen.caption_web``), caption tasks for the records clean keeps
(``gen.caption_tasks``), and grounded tasks, dialogues and markup
(``gen.grounded_sft``). It drives clean, build-task, build-chat,
check-markup, pack and stats through the command-line entry points exactly
as a batch job would, leaving every JSON Lines file in the output directory.
Each clean verdict must be the outcome gen labelled its line with. Every
token record written must hold the encoding of its text, which decodes back
to that text, and every line of the kept records, verdicts, token records,
check-markup results and packed sequences must be laid out as json.dumps
writes it with sorted keys; a mismatch exits nonzero.

    python3 scripts/demo_pipeline.py --outdir pipeline_out
"""

import argparse
import importlib.util
import json
import sys
from pathlib import Path

from vlprep import MockTokenizer, decode_token_ids
from vlprep.cli import main as vlprep_main

ROOT = Path(__file__).resolve().parents[1]
# Records per input file. At this seed the caption corpus holds drops by all
# nine caption rules and a malformed line (at seed 0 it has no malformed line).
N_RECORDS = 120
SEED = 1


def load(name: str, path: Path):
    """The module at ``path``, which is not on sys.path."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # gen's dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


gen = load("perfbench_gen", ROOT / "perfbench" / "gen.py")


def corpora() -> tuple:
    """gen's caption corpus, and its grounded tasks, dialogues and markup."""
    return (gen.caption_web(N_RECORDS, SEED),
            gen.grounded_sft(N_RECORDS, N_RECORDS // 4, N_RECORDS, SEED))


def write_files(workdir: Path, files: dict) -> None:
    """Each ``name: lines`` of ``files`` as ``workdir/name.jsonl``."""
    for name, lines in files.items():
        (workdir / f"{name}.jsonl").write_text("".join(f"{line}\n" for line in lines),
                                               encoding="utf-8")


def lines_of(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


def run(argv: list) -> None:
    argv = [str(arg) for arg in argv]
    print(f"$ vlprep {' '.join(argv)}", file=sys.stderr)
    rc = vlprep_main(argv)
    if rc != 0:
        raise SystemExit(f"stage failed with exit code {rc}: {argv}")


def check_layout(path: Path) -> list[dict]:
    """The records in ``path``; exit if a line is not json.dumps's sorted-key layout."""
    records = []
    for n, line in enumerate(lines_of(path), 1):
        record = json.loads(line)
        if line != json.dumps(record, ensure_ascii=False, sort_keys=True):
            raise SystemExit(f"{path}:{n}: record {record.get('id')!r} is not laid out as "
                             "json.dumps(record, ensure_ascii=False, sort_keys=True)")
        records.append(record)
    return records


def check_verdicts(path: Path, labels: list[tuple]) -> None:
    """Exit unless each verdict in ``path`` is the ``(id, outcome)`` gen labelled its line with.

    A malformed line is labelled with no id; its verdict may name one.
    """
    verdicts = check_layout(path)
    if len(verdicts) != len(labels):
        raise SystemExit(f"{path}: {len(verdicts)} verdicts for {len(labels)} input lines")
    for n, ((record_id, outcome), verdict) in enumerate(zip(labels, verdicts), 1):
        decision = verdict["decision"]
        got = {"keep": gen.KEPT, "error": gen.ERROR}.get(decision, verdict.get("rule_id"))
        if got != outcome or record_id not in (None, verdict["id"]):
            raise SystemExit(f"{path}:{n}: record {verdict['id']!r} came to {got}, "
                             f"labelled {record_id!r} {outcome}")


def check_token_records(path: Path) -> int:
    """Decode each token record in ``path``; exit if one is not its own text.

    The ids must also be the encoding of the whole text: templates never cut
    a reserved literal into two spans, and caller text cannot hold one. Each
    loss span must lie inside the ids, each line in json.dumps's sorted-key layout.
    """
    tokenizer = MockTokenizer()
    records = check_layout(path)
    for record in records:
        ids = decode_token_ids(record["token_ids"])
        if (len(ids) != record["token_len"] or tokenizer.decode(ids) != record["text"]
                or ids != tokenizer.encode(record["text"])
                or not all(0 <= a < b <= len(ids) for a, b in record["loss_spans"])):
            raise SystemExit(f"{path}: token record {record['id']!r} does not decode to its "
                             "token_len and text, is not its encoding or spans past its ids")
    return len(records)


def show_report(path: Path) -> None:
    report = json.loads(path.read_text(encoding="utf-8"))
    drops = ", ".join(f"{k}={v}" for k, v in report["drops"].items()) or "none"
    print(
        f"  {report['command']}: in={report['records_in']} "
        f"kept={report['records_kept']} errors={report['errors']} drops: {drops}"
    )


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", type=Path, default=Path("pipeline_out"))
    out = ap.parse_args().outdir
    out.mkdir(parents=True, exist_ok=True)

    captions, grounded = corpora()
    write_files(out, {"corpus": captions.files["corpus"], "dialogues": grounded.files["dialogues"],
                      "markup": grounded.files["markup"]})
    config = out / "config.json"  # gen's filter rules and packer budget
    config.write_text(json.dumps(captions.configs), encoding="utf-8")

    run(["clean", "-i", out / "corpus.jsonl", "-o", out / "kept.jsonl",
         "--verdicts", out / "verdicts.jsonl", "--config", config,
         "--report", out / "clean_report.json"])
    check_layout(out / "kept.jsonl")
    check_verdicts(out / "verdicts.jsonl", captions.labels["corpus"])

    write_files(out, {"tasks": gen.caption_tasks(lines_of(out / "kept.jsonl")).files["tasks"]
                      + grounded.files["tasks"]})
    run(["build-task", "-i", out / "tasks.jsonl", "-o", out / "tokens.jsonl",
         "--report", out / "build_report.json"])
    run(["build-chat", "-i", out / "dialogues.jsonl", "-o", out / "chat_tokens.jsonl",
         "--report", out / "chat_report.json"])
    n_token_records = sum(check_token_records(out / name)
                          for name in ("tokens.jsonl", "chat_tokens.jsonl"))
    run(["check-markup", "-i", out / "markup.jsonl", "-o", out / "checked.jsonl",
         "--report", out / "markup_report.json"])
    check_layout(out / "checked.jsonl")

    run(["pack", "-i", out / "tokens.jsonl", "-o", out / "sequences.jsonl",
         "--config", config, "--report", out / "pack_report.json"])
    check_layout(out / "sequences.jsonl")
    run(["stats", "-i", out / "sequences.jsonl", "-o", out / "stats.json", "--config", config])

    print(f"\npipeline complete, artifacts in {out}/")
    for name in ("clean_report.json", "build_report.json", "chat_report.json",
                 "markup_report.json", "pack_report.json"):
        show_report(out / name)
    stats = json.loads((out / "stats.json").read_text(encoding="utf-8"))
    print(f"  every clean verdict is gen's label; {n_token_records} token records decode "
          "to their text")
    print(f"  packed {stats['n_samples']} samples into {stats['n_sequences']} "
          f"sequences, fill ratio {stats['fill_ratio']:.3f}")


if __name__ == "__main__":
    main()
