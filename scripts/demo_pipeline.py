"""Run a synthetic corpus through the full pipeline: clean, build, pack, stats.

Generates a small image-text corpus with known defects, then drives every
stage through the command-line entry points exactly as a batch job would,
leaving all intermediate JSON Lines files in the output directory. Every
token record written must hold the encoding of its text, which decodes back
to that text, and every line of the kept records, verdicts, token records and
packed sequences must be laid out as json.dumps writes it with sorted keys; a
mismatch exits nonzero.

    python3 scripts/demo_pipeline.py --outdir pipeline_out
"""

import argparse
import json
import random
import sys
from pathlib import Path

from vlprep import MockTokenizer, decode_token_ids
from vlprep.cli import main as vlprep_main

CAPTION_WORDS = (
    "red blue old small wooden plastic striped shiny".split(),
    "car dog sign bicycle boat kettle jacket lantern".split(),
    "parked resting hanging floating standing waiting".split(),
    "near the fence by the river at the market in the yard".split(" "),
)


def synthetic_corpus(n: int, rng: random.Random) -> list[dict]:
    records = []
    for i in range(n):
        caption = " ".join(rng.choice(group) for group in CAPTION_WORDS) + "."
        records.append({
            "id": f"ok{i:03d}",
            "text": caption.capitalize(),
            "dataset": "synthetic",
            "image_width": rng.choice([384, 512, 768]),
            "image_height": rng.choice([384, 512, 768]),
            "language": "en",
        })
    # Known defects, one per cleaning rule that fires on synthetic data.
    defects = [
        {"id": "bad_aspect", "text": "A panoramic strip of coastline.",
         "image_width": 2048, "image_height": 256},
        {"id": "bad_small", "text": "A thumbnail of a garden.",
         "image_width": 96, "image_height": 96},
        {"id": "bad_emoji", "text": "Sunset at the pier \U0001F305 tonight",
         "image_width": 512, "image_height": 512},
        {"id": "bad_short", "text": "Hi",
         "image_width": 512, "image_height": 512},
        {"id": "bad_html", "text": "<div><span></span></div>",
         "image_width": 512, "image_height": 512},
        {"id": "bad_tag", "text": "<PERSON> walking a spotted dog.",
         "image_width": 512, "image_height": 512},
    ]
    records.extend(defects)
    rng.shuffle(records)
    return records


def task_records(kept_path: Path) -> list[dict]:
    """Turn each surviving caption into a caption task plus one grounded pair."""
    tasks = []
    for line in kept_path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        tasks.append({
            "id": record["id"],
            "task": "caption",
            "image": f"synthetic/{record['id']}.jpg",
            "caption": record["text"],
        })
    tasks.append({
        "id": "ground0", "task": "ref_grounding",
        "image": "synthetic/ground0.jpg",
        "phrase": "the spotted dog",
        "regions": "<box>(120,340),(410,880)</box>",
    })
    tasks.append({
        "id": "vqa0", "task": "vqa",
        "image": "synthetic/vqa0.jpg",
        "question": "What color is the kettle?",
        "answer": "The kettle is blue.",
    })
    return tasks


def dialogue_records() -> list[dict]:
    return [{
        "id": "dlg0",
        "turns": [
            {"role": "user", "content": "What is shown here?",
             "images": ["synthetic/dlg0.jpg"]},
            {"role": "assistant", "content": "A wooden boat tied to a pier."},
            {"role": "user", "content": "Is anyone aboard?"},
            {"role": "assistant", "content": "No, the boat is empty."},
        ],
    }]


def write_jsonl(path: Path, records: list[dict]) -> Path:
    path.write_text("".join(json.dumps(record) + "\n" for record in records), encoding="utf-8")
    return path


def run(argv: list) -> None:
    argv = [str(arg) for arg in argv]
    print(f"$ vlprep {' '.join(argv)}", file=sys.stderr)
    rc = vlprep_main(argv)
    if rc != 0:
        raise SystemExit(f"stage failed with exit code {rc}: {argv}")


def check_layout(path: Path) -> list[dict]:
    """The records in ``path``; exit if a line is not json.dumps's sorted-key layout."""
    records = []
    for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        record = json.loads(line)
        if line != json.dumps(record, ensure_ascii=False, sort_keys=True):
            raise SystemExit(f"{path}:{n}: record {record.get('id')!r} is not laid out as "
                             "json.dumps(record, ensure_ascii=False, sort_keys=True)")
        records.append(record)
    return records


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
    ap.add_argument("--n-records", type=int, default=40)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--max-len", type=int, default=1024,
                    help="packer budget; small enough that fill ratios matter")
    args = ap.parse_args()
    out = args.outdir
    out.mkdir(parents=True, exist_ok=True)

    rng = random.Random(args.seed)
    corpus = write_jsonl(out / "corpus.jsonl", synthetic_corpus(args.n_records, rng))

    run(["clean", "-i", corpus, "-o", out / "kept.jsonl", "--verdicts", out / "verdicts.jsonl",
         "--report", out / "clean_report.json"])
    for name in ("kept.jsonl", "verdicts.jsonl"):
        check_layout(out / name)

    tasks = write_jsonl(out / "tasks.jsonl", task_records(out / "kept.jsonl"))
    run(["build-task", "-i", tasks, "-o", out / "tokens.jsonl",
         "--report", out / "build_report.json"])

    dialogues = write_jsonl(out / "dialogues.jsonl", dialogue_records())
    run(["build-chat", "-i", dialogues, "-o", out / "chat_tokens.jsonl",
         "--report", out / "chat_report.json"])
    n_token_records = sum(check_token_records(out / name)
                          for name in ("tokens.jsonl", "chat_tokens.jsonl"))

    packer_cfg = out / "packer.json"
    packer_cfg.write_text(json.dumps({"packer": {"max_len": args.max_len}}),
                          encoding="utf-8")
    run(["pack", "-i", out / "tokens.jsonl", "-o", out / "sequences.jsonl",
         "--config", packer_cfg, "--report", out / "pack_report.json"])
    check_layout(out / "sequences.jsonl")
    run(["stats", "-i", out / "sequences.jsonl", "-o", out / "stats.json", "--config", packer_cfg])

    print(f"\npipeline complete, artifacts in {out}/")
    for name in ("clean_report.json", "build_report.json", "chat_report.json",
                 "pack_report.json"):
        show_report(out / name)
    stats = json.loads((out / "stats.json").read_text(encoding="utf-8"))
    print(f"  {n_token_records} token records decode to their text")
    print(f"  packed {stats['n_samples']} samples into {stats['n_sequences']} "
          f"sequences, fill ratio {stats['fill_ratio']:.3f}")


if __name__ == "__main__":
    main()
