"""Seeded, labelled input generators for the benchmark workloads.

Every generated line carries the outcome the program must reach for it: kept,
dropped by a named rule, or counted as an error. The program only ever sees
the JSON Lines files; the labels stay with the benchmark, which compares them
with what each stage reports.

Inputs are pure functions of the seed. Nothing here imports vlprep, so a
change to the program cannot change its own benchmark inputs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

KEPT = "kept"
ERROR = "error"

# The vocabulary of scripts/demo_pipeline.py, widened so captions vary more.
CAPTION_WORDS = (
    "red blue old small wooden plastic striped shiny green rusty tall folded".split(),
    "car dog sign bicycle boat kettle jacket lantern bench tram umbrella clock".split(),
    "parked resting hanging floating standing waiting leaning drifting".split(),
    "near the fence|by the river|at the market|in the yard|on the bridge|under a tree"
    .split("|"),
)
CJK_WORDS = (
    "红色的 蓝色的 旧的 小的 木制的 塑料的 条纹的 闪亮的".split(),
    "汽车 狗 标志 自行车 小船 水壶 夹克 灯笼".split(),
    "停在 躺在 挂在 漂在 站在 等在".split(),
    "篱笆旁 河边 市场里 院子里 桥上 树下".split(),
)
OCR_WORDS = (
    "TOTAL INVOICE Date Amount Paid Balance Qty Unit Price Tax Receipt No. "
    "Customer Address Phone Order Item Subtotal Discount Cash Change Due"
).split()
QUESTIONS = (
    "What color is the {n}?",
    "How many {n}s are visible?",
    "Where is the {n} located?",
    "Is the {n} {v}?",
    "What is written on the {n}?",
)

# Filter config shared by generator and program: per-dataset CLIP thresholds
# and banned patterns make R3 and R8 fire.
CLIP_THRESHOLDS = {"laion": 0.28, "coyo": 0.30, "cc12m": 0.25}
DATASETS = ("laion", "coyo", "cc12m", "web")  # "web" has no threshold
BANNED_PATTERNS = (
    "*stock photo*",
    "click here",
    "all rights reserved",
    "IMG_????.JPG",
    "watermark*",
    "getty?images",
)
BANNED_SAMPLES = (
    "stock photo",
    "click here for more",
    "all rights reserved",
    "IMG_4821.JPG",
    "watermark",
    "getty images",
)
FILTER_CONFIG = {
    "clip_thresholds": CLIP_THRESHOLDS,
    "banned_patterns": list(BANNED_PATTERNS),
}
MAX_LEN = 2048
PACKER_CONFIG = {"max_len": MAX_LEN}

SIDES = (256, 320, 384, 448, 512, 640, 768, 1024)
FOREIGN_CHARS = "éüñçøßЖдλπعשहक한"  # outside latin_basic + cjk, not emoji
EMOJI = ("\U0001F305", "☀", "\U0001F600", "\U0001F680", "❤", "\U0001F9E1")
PURE_MARKUP = ("<div><span></span></div>", "<p><br/></p>", "<img src=x>", "<b></b>  <i></i>")
SHORT_TEXTS = ("Hi", "ok", "猫", "A b", "  dog  ")

CAPTION_DEFECTS = (
    "R1_aspect", "R2_small", "R3_clip", "R4_script", "R5_emoji",
    "R6_length", "R7_html", "R8_pattern", "T_special_tag",
)


@dataclass
class Workload:
    """Generated input files (name -> lines) plus per-line labels."""

    files: dict[str, list[str]] = field(default_factory=dict)
    labels: dict[str, list[tuple[str | None, str]]] = field(default_factory=dict)
    configs: dict[str, dict] = field(default_factory=dict)

    def add(self, name: str, line: str, record_id: str | None, outcome: str) -> None:
        self.files.setdefault(name, []).append(line)
        self.labels.setdefault(name, []).append((record_id, outcome))


def _dump(obj) -> str:
    return json.dumps(obj, ensure_ascii=False)


def _sentence(rng: random.Random) -> str:
    return (" ".join(rng.choice(group) for group in CAPTION_WORDS) + ".").capitalize()


def _cjk_sentence(rng: random.Random) -> str:
    return "".join(rng.choice(group) for group in CJK_WORDS) + "。"


def _caption(rng: random.Random, n_sentences: int) -> tuple[str, str]:
    """(text, language): Latin, CJK or mixed, one to many sentences."""
    script = rng.random()
    parts = []
    for _ in range(n_sentences):
        if script < 0.6:
            parts.append(_sentence(rng))
        elif script < 0.8:
            parts.append(_cjk_sentence(rng))
        else:
            parts.append(_sentence(rng) if rng.random() < 0.5 else _cjk_sentence(rng))
    text = " ".join(parts)
    return text, "en" if script < 0.6 else "zh"


def _n_sentences(rng: random.Random) -> int:
    # Mostly short captions, a long tail of alt-text paragraphs (< 1024 chars).
    return rng.choice((1, 1, 1, 2, 2, 3, 5, 8, 12))


def _dims(rng: random.Random) -> tuple[int, int]:
    w = rng.choice(SIDES)
    h = rng.choice([s for s in SIDES if max(s, w) <= 3 * min(s, w)])
    return w, h


def caption_web(n: int, seed: int) -> Workload:
    """Web-crawl caption corpus: about a third carry one labelled defect."""
    rng = random.Random(f"caption_web:{seed}")
    wl = Workload(configs={"filter": FILTER_CONFIG, "packer": PACKER_CONFIG})
    for i in range(n):
        rid = f"cw{i:06d}"
        text, language = _caption(rng, _n_sentences(rng))
        if rng.random() < 0.2:  # harmless HTML residue, stripped by clean
            text = rng.choice(("<b>{}</b>", "<p>{}</p>", "{} &amp; more", " {} ")).format(text)
        dataset = rng.choice(DATASETS)
        w, h = _dims(rng)
        record = {
            "id": rid, "text": text, "dataset": dataset,
            "image_width": w, "image_height": h, "language": language,
            "image_key": f"img/{i:06d}.jpg",
        }
        threshold = CLIP_THRESHOLDS.get(dataset)
        if rng.random() < 0.9:
            low = threshold if threshold is not None else 0.1
            record["clip_score"] = round(low + rng.uniform(0.001, 0.2), 4)

        roll = rng.random()
        if roll < 0.015:
            line, outcome = _caption_error(rng, record)
            wl.add("corpus", line, None, outcome)
            continue
        outcome = KEPT
        if roll < 1 / 3:
            outcome = rng.choice(CAPTION_DEFECTS)
            _apply_caption_defect(rng, record, outcome)
        wl.add("corpus", _dump(record), rid, outcome)
    return wl


def _caption_error(rng: random.Random, record: dict) -> tuple[str, str]:
    kind = rng.randrange(5)
    if kind == 0:
        line = _dump(record)
        return line[: len(line) // 2], ERROR  # truncated line
    if kind == 1:
        record["caption_lang"] = "en"  # unknown field
    elif kind == 2:
        record["language"] = "fr"
    elif kind == 3:
        del record["image_width"]  # R1 needs both dimensions
    else:
        record["image_height"] = 0
    return _dump(record), ERROR


def _apply_caption_defect(rng: random.Random, record: dict, rule: str) -> None:
    text = record["text"]
    if rule == "R1_aspect":
        long_side, short_side = rng.choice((1536, 2048, 3000)), rng.choice((256, 300, 400))
        dims = (long_side, short_side) if rng.random() < 0.5 else (short_side, long_side)
        record["image_width"], record["image_height"] = dims
    elif rule == "R2_small":
        record["image_width"], record["image_height"] = rng.choice(
            ((96, 96), (128, 160), (200, 180), (150, 300)))
    elif rule == "R3_clip":
        record["dataset"] = dataset = rng.choice(sorted(CLIP_THRESHOLDS))
        record["clip_score"] = round(CLIP_THRESHOLDS[dataset] - rng.uniform(0.01, 0.2), 4)
    elif rule == "R4_script":
        pos = rng.randrange(len(text) + 1)
        record["text"] = text[:pos] + rng.choice(FOREIGN_CHARS) + text[pos:]
    elif rule == "R5_emoji":
        pos = rng.randrange(len(text) + 1)
        record["text"] = text[:pos] + rng.choice(EMOJI) + text[pos:]
    elif rule == "R6_length":
        if rng.random() < 0.5:
            record["text"] = rng.choice(SHORT_TEXTS)
        else:
            record["text"] = " ".join(_sentence(rng) for _ in range(40))  # > 1024 chars
    elif rule == "R7_html":
        record["text"] = rng.choice(PURE_MARKUP)
    elif rule == "R8_pattern":
        record["language"] = "en"
        record["text"] = f"{_sentence(rng)} {rng.choice(BANNED_SAMPLES)} {_sentence(rng)}"
    elif rule == "T_special_tag":
        record["text"] = f"<PERSON> {text}" if rng.random() < 0.5 else f"{text} with <PERSON>"


def caption_tasks(kept_lines: list[str]) -> Workload:
    """Caption tasks for the records clean kept, in arrival order."""
    wl = Workload()
    for line in kept_lines:
        record = json.loads(line)
        task = {"id": record["id"], "task": "caption",
                "image": f"web/{record['id']}.jpg", "caption": record["text"]}
        wl.add("tasks", _dump(task), record["id"], KEPT)
    return wl


# ---------------------------------------------------------------------------
# grounded_sft

def _point(rng: random.Random) -> tuple[int, int]:
    return rng.randrange(1000), rng.randrange(1000)


def _box(rng: random.Random, spaced: bool = False) -> str:
    x1, x2 = sorted(rng.randrange(1000) for _ in range(2))
    y1, y2 = sorted(rng.randrange(1000) for _ in range(2))
    sep = ", " if spaced else ","
    return f"<box>({x1}{sep}{y1}),({x2}{sep}{y2})</box>"


def _quad(rng: random.Random, spaced: bool = True) -> str:
    sep = ", " if spaced else ","
    return "<quad>" + sep.join("({},{})".format(*_point(rng)) for _ in range(4)) + "</quad>"


def _regions(rng: random.Random, quads: bool = False) -> str:
    n = rng.choice((1, 1, 2, 3, 4))
    return "".join(_quad(rng) if quads else _box(rng) for _ in range(n))


def _phrase(rng: random.Random) -> str:
    return f"the {rng.choice(CAPTION_WORDS[0])} {rng.choice(CAPTION_WORDS[1])}"


def _grounded_caption(rng: random.Random) -> str:
    parts = []
    for _ in range(rng.randint(1, 4)):
        parts.append(f"A <ref>{_phrase(rng)}</ref>{_regions(rng)} "
                     f"{rng.choice(CAPTION_WORDS[2])} {rng.choice(CAPTION_WORDS[3])}.")
    return " ".join(parts)


def _ocr_text(rng: random.Random, n_words: int) -> str:
    parts = []
    for _ in range(n_words):
        word = rng.choice(OCR_WORDS)
        if rng.random() < 0.5:
            parts.append(f"<ref>{word}</ref>{_quad(rng)}")
        else:
            parts.append(word)
    return " ".join(parts)


def _task_record(rng: random.Random, rid: str, task: str) -> dict:
    r = {"id": rid, "task": task, "image": f"sft/{rid}.jpg"}
    noun, verb = rng.choice(CAPTION_WORDS[1]), rng.choice(CAPTION_WORDS[2])
    if task == "caption":
        r["caption"] = " ".join(_sentence(rng) for _ in range(rng.randint(1, 3)))
    elif task == "caption_grounded":
        r["caption"] = _grounded_caption(rng)
    elif task == "vqa":
        r["question"] = rng.choice(QUESTIONS).format(n=noun, v=verb)
        r["answer"] = _sentence(rng)
    elif task == "ocr_vqa":
        r["question"] = "What does the document say?"
        r["answer"] = " ".join(rng.choice(OCR_WORDS) for _ in range(rng.randint(20, 120)))
    elif task == "ref_grounding":
        r["phrase"] = _phrase(rng)
        r["regions"] = _regions(rng, quads=rng.random() < 0.2)
    elif task == "grounded_caption":
        r["phrase"] = _phrase(rng)
        r["regions"] = _regions(rng)
        r["description"] = " ".join(_sentence(rng) for _ in range(rng.randint(1, 4)))
    else:  # ocr: long texts, some beyond the packer budget
        r["text"] = _ocr_text(rng, rng.randint(10, 90))
    return r


TASKS = ("caption", "caption_grounded", "vqa", "ocr_vqa",
         "ref_grounding", "grounded_caption", "ocr")


def _task_error(rng: random.Random, record: dict) -> str:
    kind = rng.randrange(6)
    if kind == 0:
        line = _dump(record)
        return line[: len(line) // 2]
    if kind == 1:
        return _dump([record["id"], record["task"]])  # not an object
    if kind == 2:
        record["task"] = "detect"  # unknown task
    elif kind == 3:
        del record["image"]  # missing field
    elif kind == 4:
        record["task"] = "ref_grounding"
        record["phrase"] = _phrase(rng)
        record["regions"] = "<box>(10,20),(1000,40)</box>"  # off the grid
    else:
        record["task"] = "vqa"
        record["question"] = "Where is <box> drawn?"  # tag in a tag-free field
        record["answer"] = "Nowhere."
    return _dump(record)


def _dialogue(rng: random.Random, rid: str) -> dict:
    n_turns = rng.randint(2, 8)
    n_images = rng.randint(1, 3)
    refs = [f"sft/{rid}_{k}.jpg" for k in range(n_images)]
    user_turns = list(range(0, n_turns, 2))
    placed: dict[int, list[str]] = {}
    for ref in refs:
        placed.setdefault(rng.choice(user_turns), []).append(ref)
    if rng.random() < 0.3:  # an image shown again later in the dialogue
        placed.setdefault(rng.choice(user_turns), []).append(rng.choice(refs))
    turns = []
    for t in range(n_turns):
        if t % 2 == 0:
            noun, verb = rng.choice(CAPTION_WORDS[1]), rng.choice(CAPTION_WORDS[2])
            turn = {"role": "user", "content": rng.choice(QUESTIONS).format(n=noun, v=verb)}
            if t in placed:
                turn["images"] = placed[t]
        else:
            if rng.random() < 0.3:
                content = f"It is <ref>{_phrase(rng)}</ref>{_regions(rng)}."
            else:
                content = " ".join(_sentence(rng) for _ in range(rng.randint(1, 6)))
            turn = {"role": "assistant", "content": content}
        turns.append(turn)
    return {"id": rid, "turns": turns}


def _dialogue_error(rng: random.Random, record: dict) -> str:
    kind = rng.randrange(5)
    if kind == 0:
        line = _dump(record)
        return line[: len(line) // 2]
    if kind == 1:
        record["turns"][0]["role"] = "assistant"  # wrong role order
    elif kind == 2:
        record["turns"] = []
    elif kind == 3:
        record["turns"][0]["role"] = "system"
    else:
        del record["turns"]
    return _dump(record)


def _markup_variant(rng: random.Random) -> tuple[str, str]:
    """(markup, outcome) for check-markup: canonical, non-canonical or broken."""
    base = _grounded_caption(rng) if rng.random() < 0.6 else _ocr_text(rng, rng.randint(5, 40))
    roll = rng.random()
    if roll < 0.7:
        return base, KEPT
    if roll < 0.85:
        variant = rng.randrange(3)
        if variant == 0:
            spaced = f"<ref>{_phrase(rng)}</ref>{_box(rng, spaced=True)}"
        elif variant == 1:
            spaced = f"<ref>{_phrase(rng)}</ref>{_quad(rng, spaced=False)}"
        else:
            spaced = f"<ref>{_phrase(rng)}</ref><box>(007,20),(30,40)</box>"
        return f"{base} {spaced}", "non_canonical"
    broken = rng.choice((
        "<ref>x</ref><box>(1,2)</box>",  # one point in a box
        "<ref>x</ref><box>(1,2),(3,4),(5,6)</box>",
        "<ref>loose</ref> text",  # ref with no region
        "<box>(1,2),(3,4)</box>",  # orphan region
        "<ref>x</ref><box>(1,2),(3,4)",  # never closed
        "<ref>x</ref><box>(-1,2),(3,4)</box>",
        "<ref>x</ref><quad>(1,2), (3,4)</quad>",
    ))
    return f"{base} {broken}", "parse_error"


def grounded_sft(n_tasks: int, n_dialogues: int, n_markup: int, seed: int) -> Workload:
    """All 7 task formats, ChatML dialogues and a check-markup input."""
    rng = random.Random(f"grounded_sft:{seed}")
    wl = Workload(configs={"packer": PACKER_CONFIG})
    for i in range(n_tasks):
        rid = f"gt{i:06d}"
        record = _task_record(rng, rid, rng.choice(TASKS))
        if rng.random() < 0.03:
            wl.add("tasks", _task_error(rng, record), None, ERROR)
        else:
            wl.add("tasks", _dump(record), rid, KEPT)
    for i in range(n_dialogues):
        rid = f"gd{i:06d}"
        record = _dialogue(rng, rid)
        if rng.random() < 0.03:
            wl.add("dialogues", _dialogue_error(rng, record), None, ERROR)
        else:
            wl.add("dialogues", _dump(record), rid, KEPT)
    for i in range(n_markup):
        rid = f"gm{i:06d}"
        markup, outcome = _markup_variant(rng)
        record = {"id": rid, "markup": markup}
        roll = rng.random()
        if roll < 0.01:
            line = _dump(record)[:20]
            wl.add("markup", line, None, ERROR)
        elif roll < 0.02:
            wl.add("markup", _dump({"id": rid, "markup": 42}), None, ERROR)
        else:
            wl.add("markup", _dump(record), rid, outcome)
    return wl


def dialogue_images(line: str) -> int:
    """Image placeholders a dialogue line renders: every listed ref, repeats too."""
    record = json.loads(line)
    return sum(len(t.get("images", [])) for t in record["turns"])
