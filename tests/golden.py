"""Frozen byte-exact fixtures for the task formats and the chat transcript.

Each task entry carries the input fields, the full rendered text, and the
list of supervised substrings in order. Tests assert equality against these
strings rather than re-deriving them, so any formatting drift fails loudly.
"""

TASK_FIXTURES = {
    "caption": {
        "fields": {
            "image": "cc3m/01581435.jpg",
            "caption": "the beautiful flowers for design.",
        },
        "text": (
            "<img>cc3m/01581435.jpg</img>Generate the caption in English: "
            "the beautiful flowers for design.<eos>"
        ),
        "supervised": ["the beautiful flowers for design.", "<eos>"],
    },
    "vqa": {
        "fields": {
            "image": "VG_100K_2/1.jpg",
            "question": "Does the bandage have a different color than the wrist band?",
            "answer": "No, both the bandage and the wrist band are white.",
        },
        "text": (
            "<img>VG_100K_2/1.jpg</img> Does the bandage have a different color "
            "than the wrist band? Answer: No, both the bandage and the wrist "
            "band are white.<eos>"
        ),
        "supervised": [
            "No, both the bandage and the wrist band are white.",
            "<eos>",
        ],
    },
    "ocr_vqa": {
        "fields": {
            "image": "ocr_vqa/1.jpg",
            "question": "What is the title of this book?",
            "answer": (
                "Asi Se Dice!, Volume 2: Workbook And Audio Activities "
                "(Glencoe Spanish) (Spanish Edition)"
            ),
        },
        "text": (
            "<img>ocr_vqa/1.jpg</img> What is the title of this book? Answer: "
            "Asi Se Dice!, Volume 2: Workbook And Audio Activities "
            "(Glencoe Spanish) (Spanish Edition)<eos>"
        ),
        "supervised": [
            "Asi Se Dice!, Volume 2: Workbook And Audio Activities "
            "(Glencoe Spanish) (Spanish Edition)",
            "<eos>",
        ],
    },
    "caption_grounded": {
        "fields": {
            "image": "coyo700m/1.jpg",
            "caption": (
                "Beautiful shot of <ref>bees</ref><box>(661,612),(833,812)</box>"
                "<box>(120,555),(265,770)</box> gathering nectars from "
                "<ref>an apricot flower</ref><box>(224,13),(399,313)</box>"
            ),
        },
        "text": (
            "<img>coyo700m/1.jpg</img>Generate the caption in English with "
            "grounding: Beautiful shot of <ref>bees</ref>"
            "<box>(661,612),(833,812)</box><box>(120,555),(265,770)</box> "
            "gathering nectars from <ref>an apricot flower</ref>"
            "<box>(224,13),(399,313)</box><eos>"
        ),
        "supervised": [
            "Beautiful shot of <ref>bees</ref><box>(661,612),(833,812)</box>"
            "<box>(120,555),(265,770)</box> gathering nectars from "
            "<ref>an apricot flower</ref><box>(224,13),(399,313)</box>",
            "<eos>",
        ],
    },
    "ref_grounding": {
        "fields": {
            "image": "VG_100K_2/3.jpg",
            "phrase": "the ear on a giraffe",
            "regions": "<box>(176,106),(232,160)</box>",
        },
        "text": (
            "<img>VG_100K_2/3.jpg</img><ref>the ear on a giraffe</ref>"
            "<box>(176,106),(232,160)</box><eos>"
        ),
        "supervised": ["<box>(176,106),(232,160)</box>", "<eos>"],
    },
    "grounded_caption": {
        "fields": {
            "image": "VG_100K_2/4.jpg",
            "phrase": "This",
            "regions": "<box>(360,542),(476,705)</box>",
            "description": "Yellow cross country ski racing gloves",
        },
        "text": (
            "<img>VG_100K_2/4.jpg</img><ref>This</ref>"
            "<box>(360,542),(476,705)</box> is "
            "Yellow cross country ski racing gloves<eos>"
        ),
        "supervised": ["Yellow cross country ski racing gloves", "<eos>"],
    },
    "ocr": {
        "fields": {
            "image": "synthdog/1.jpg",
            "text": (
                "<ref>It is managed</ref>"
                "<quad>(568,121), (625,131), (624,182), (567,172)</quad>"
                "<ref>by South</ref>"
                "<quad>(560,224), (629,232), (628,283), (559,277)</quad>"
            ),
        },
        "text": (
            "<img>synthdog/1.jpg</img>OCR with grounding: "
            "<ref>It is managed</ref>"
            "<quad>(568,121), (625,131), (624,182), (567,172)</quad>"
            "<ref>by South</ref>"
            "<quad>(560,224), (629,232), (628,283), (559,277)</quad><eos>"
        ),
        "supervised": [
            "<ref>It is managed</ref>"
            "<quad>(568,121), (625,131), (624,182), (567,172)</quad>"
            "<ref>by South</ref>"
            "<quad>(560,224), (629,232), (628,283), (559,277)</quad>",
            "<eos>",
        ],
    },
}

# Two-round sign dialogue: one image, questions unsupervised, answers and the
# assistant <|im_end|> terminators supervised.
CHATML_TURNS = [
    ("user", "What is the sign in the picture?", ["vg/VG_100K_2/649.jpg"]),
    ("assistant", "The sign is a road closure with an orange rhombus.", []),
    ("user", "How is the weather in the picture?", []),
    ("assistant", "The shape of the road closure sign is an orange rhombus.", []),
]

CHATML_TEXT = (
    "<|im_start|>user\n"
    "Picture 1: <img>vg/VG_100K_2/649.jpg</img>"
    "What is the sign in the picture?<|im_end|>\n"
    "<|im_start|>assistant\n"
    "The sign is a road closure with an orange rhombus.<|im_end|>\n"
    "<|im_start|>user\n"
    "How is the weather in the picture?<|im_end|>\n"
    "<|im_start|>assistant\n"
    "The shape of the road closure sign is an orange rhombus.<|im_end|>\n"
)

CHATML_SUPERVISED = [
    "The sign is a road closure with an orange rhombus.",
    "<|im_end|>",
    "The shape of the road closure sign is an orange rhombus.",
    "<|im_end|>",
]

# The exact build-task token record fields of each TASK_FIXTURES row, and the
# build-chat ones of the dialogue above, with MockTokenizer: token record
# format 3 ids (base64 of little-endian uint16), loss spans and length.
# Decoding to the text alone would not catch two reserved-literal ids swapped.
TASK_TOKENS = {
    "caption": {
        "token_ids": (
            "AAFjAGMAMwBtAC8AMAAxADUAOAAxADQAMwA1AC4AagBwAGcAAQFHAGUAbgBlAHIA"
            "YQB0AGUAIAB0AGgAZQAgAGMAYQBwAHQAaQBvAG4AIABpAG4AIABFAG4AZwBsAGkA"
            "cwBoADoAIAB0AGgAZQAgAGIAZQBhAHUAdABpAGYAdQBsACAAZgBsAG8AdwBlAHIA"
            "cwAgAGYAbwByACAAZABlAHMAaQBnAG4ALgAKAQ=="
        ),
        "loss_spans": [[52, 86]],
        "token_len": 86,
    },
    "caption_grounded": {
        "token_ids": (
            "AAFjAG8AeQBvADcAMAAwAG0ALwAxAC4AagBwAGcAAQFHAGUAbgBlAHIAYQB0AGUA"
            "IAB0AGgAZQAgAGMAYQBwAHQAaQBvAG4AIABpAG4AIABFAG4AZwBsAGkAcwBoACAA"
            "dwBpAHQAaAAgAGcAcgBvAHUAbgBkAGkAbgBnADoAIABCAGUAYQB1AHQAaQBmAHUA"
            "bAAgAHMAaABvAHQAIABvAGYAIAAEAWIAZQBlAHMABQECASgANgA2ADEALAA2ADEA"
            "MgApACwAKAA4ADMAMwAsADgAMQAyACkAAwECASgAMQAyADAALAA1ADUANQApACwA"
            "KAAyADYANQAsADcANwAwACkAAwEgAGcAYQB0AGgAZQByAGkAbgBnACAAbgBlAGMA"
            "dABhAHIAcwAgAGYAcgBvAG0AIAAEAWEAbgAgAGEAcAByAGkAYwBvAHQAIABmAGwA"
            "bwB3AGUAcgAFAQIBKAAyADIANAAsADEAMwApACwAKAAzADkAOQAsADMAMQAzACkA"
            "AwEKAQ=="
        ),
        "loss_spans": [[64, 194]],
        "token_len": 194,
    },
    "grounded_caption": {
        "token_ids": (
            "AAFWAEcAXwAxADAAMABLAF8AMgAvADQALgBqAHAAZwABAQQBVABoAGkAcwAFAQIB"
            "KAAzADYAMAAsADUANAAyACkALAAoADQANwA2ACwANwAwADUAKQADASAAaQBzACAA"
            "WQBlAGwAbABvAHcAIABjAHIAbwBzAHMAIABjAG8AdQBuAHQAcgB5ACAAcwBrAGkA"
            "IAByAGEAYwBpAG4AZwAgAGcAbABvAHYAZQBzAAoB"
        ),
        "loss_spans": [[48, 87]],
        "token_len": 87,
    },
    "ocr": {
        "token_ids": (
            "AAFzAHkAbgB0AGgAZABvAGcALwAxAC4AagBwAGcAAQFPAEMAUgAgAHcAaQB0AGgA"
            "IABnAHIAbwB1AG4AZABpAG4AZwA6ACAABAFJAHQAIABpAHMAIABtAGEAbgBhAGcA"
            "ZQBkAAUBBgEoADUANgA4ACwAMQAyADEAKQAsACAAKAA2ADIANQAsADEAMwAxACkA"
            "LAAgACgANgAyADQALAAxADgAMgApACwAIAAoADUANgA3ACwAMQA3ADIAKQAHAQQB"
            "YgB5ACAAUwBvAHUAdABoAAUBBgEoADUANgAwACwAMgAyADQAKQAsACAAKAA2ADIA"
            "OQAsADIAMwAyACkALAAgACgANgAyADgALAAyADgAMwApACwAIAAoADUANQA5ACwA"
            "MgA3ADcAKQAHAQoB"
        ),
        "loss_spans": [[36, 150]],
        "token_len": 150,
    },
    "ocr_vqa": {
        "token_ids": (
            "AAFvAGMAcgBfAHYAcQBhAC8AMQAuAGoAcABnAAEBIABXAGgAYQB0ACAAaQBzACAA"
            "dABoAGUAIAB0AGkAdABsAGUAIABvAGYAIAB0AGgAaQBzACAAYgBvAG8AawA/ACAA"
            "QQBuAHMAdwBlAHIAOgAgAEEAcwBpACAAUwBlACAARABpAGMAZQAhACwAIABWAG8A"
            "bAB1AG0AZQAgADIAOgAgAFcAbwByAGsAYgBvAG8AawAgAEEAbgBkACAAQQB1AGQA"
            "aQBvACAAQQBjAHQAaQB2AGkAdABpAGUAcwAgACgARwBsAGUAbgBjAG8AZQAgAFMA"
            "cABhAG4AaQBzAGgAKQAgACgAUwBwAGEAbgBpAHMAaAAgAEUAZABpAHQAaQBvAG4A"
            "KQAKAQ=="
        ),
        "loss_spans": [[56, 146]],
        "token_len": 146,
    },
    "ref_grounding": {
        "token_ids": (
            "AAFWAEcAXwAxADAAMABLAF8AMgAvADMALgBqAHAAZwABAQQBdABoAGUAIABlAGEA"
            "cgAgAG8AbgAgAGEAIABnAGkAcgBhAGYAZgBlAAUBAgEoADEANwA2ACwAMQAwADYA"
            "KQAsACgAMgAzADIALAAxADYAMAApAAMBCgE="
        ),
        "loss_spans": [[39, 61]],
        "token_len": 61,
    },
    "vqa": {
        "token_ids": (
            "AAFWAEcAXwAxADAAMABLAF8AMgAvADEALgBqAHAAZwABASAARABvAGUAcwAgAHQA"
            "aABlACAAYgBhAG4AZABhAGcAZQAgAGgAYQB2AGUAIABhACAAZABpAGYAZgBlAHIA"
            "ZQBuAHQAIABjAG8AbABvAHIAIAB0AGgAYQBuACAAdABoAGUAIAB3AHIAaQBzAHQA"
            "IABiAGEAbgBkAD8AIABBAG4AcwB3AGUAcgA6ACAATgBvACwAIABiAG8AdABoACAA"
            "dABoAGUAIABiAGEAbgBkAGEAZwBlACAAYQBuAGQAIAB0AGgAZQAgAHcAcgBpAHMA"
            "dAAgAGIAYQBuAGQAIABhAHIAZQAgAHcAaABpAHQAZQAuAAoB"
        ),
        "loss_spans": [[87, 138]],
        "token_len": 138,
    },
}

CHATML_TOKENS = {
    "token_ids": (
        "CAF1AHMAZQByAAoAUABpAGMAdAB1AHIAZQAgADEAOgAgAAABdgBnAC8AVgBHAF8A"
        "MQAwADAASwBfADIALwA2ADQAOQAuAGoAcABnAAEBVwBoAGEAdAAgAGkAcwAgAHQA"
        "aABlACAAcwBpAGcAbgAgAGkAbgAgAHQAaABlACAAcABpAGMAdAB1AHIAZQA/AAkB"
        "CgAIAWEAcwBzAGkAcwB0AGEAbgB0AAoAVABoAGUAIABzAGkAZwBuACAAaQBzACAA"
        "YQAgAHIAbwBhAGQAIABjAGwAbwBzAHUAcgBlACAAdwBpAHQAaAAgAGEAbgAgAG8A"
        "cgBhAG4AZwBlACAAcgBoAG8AbQBiAHUAcwAuAAkBCgAIAXUAcwBlAHIACgBIAG8A"
        "dwAgAGkAcwAgAHQAaABlACAAdwBlAGEAdABoAGUAcgAgAGkAbgAgAHQAaABlACAA"
        "cABpAGMAdAB1AHIAZQA/AAkBCgAIAWEAcwBzAGkAcwB0AGEAbgB0AAoAVABoAGUA"
        "IABzAGgAYQBwAGUAIABvAGYAIAB0AGgAZQAgAHIAbwBhAGQAIABjAGwAbwBzAHUA"
        "cgBlACAAcwBpAGcAbgAgAGkAcwAgAGEAbgAgAG8AcgBhAG4AZwBlACAAcgBoAG8A"
        "bQBiAHUAcwAuAAkBCgA="
    ),
    "loss_spans": [[84, 135], [189, 246]],
    "token_len": 247,
}

# The exact bytes of each TASK_FIXTURES row's build-task token record line, and
# of the dialogue's build-chat line: keys sorted, ", " and ": " separators,
# non-ASCII unescaped. The parsed-field checks above would pass a reordering.
TASK_LINES = {
    "caption": (
        '{"format": 3, "id": "caption", "loss_spans": [[52, 86]], "n_imag'
        'es": 1, "task": "caption", "text": "<img>cc3m/01581435.jpg</img>'
        'Generate the caption in English: the beautiful flowers for desig'
        'n.<eos>", "token_ids": "AAFjAGMAMwBtAC8AMAAxADUAOAAxADQAMwA1AC4A'
        'agBwAGcAAQFHAGUAbgBlAHIAYQB0AGUAIAB0AGgAZQAgAGMAYQBwAHQAaQBvAG4A'
        'IABpAG4AIABFAG4AZwBsAGkAcwBoADoAIAB0AGgAZQAgAGIAZQBhAHUAdABpAGYA'
        'dQBsACAAZgBsAG8AdwBlAHIAcwAgAGYAbwByACAAZABlAHMAaQBnAG4ALgAKAQ=='
        '", "token_len": 86}'
    ),
    "caption_grounded": (
        '{"format": 3, "id": "caption_grounded", "loss_spans": [[64, 194]'
        '], "n_images": 1, "task": "caption_grounded", "text": "<img>coyo'
        '700m/1.jpg</img>Generate the caption in English with grounding: '
        'Beautiful shot of <ref>bees</ref><box>(661,612),(833,812)</box><'
        'box>(120,555),(265,770)</box> gathering nectars from <ref>an apr'
        'icot flower</ref><box>(224,13),(399,313)</box><eos>", "token_ids'
        '": "AAFjAG8AeQBvADcAMAAwAG0ALwAxAC4AagBwAGcAAQFHAGUAbgBlAHIAYQB0'
        'AGUAIAB0AGgAZQAgAGMAYQBwAHQAaQBvAG4AIABpAG4AIABFAG4AZwBsAGkAcwBo'
        'ACAAdwBpAHQAaAAgAGcAcgBvAHUAbgBkAGkAbgBnADoAIABCAGUAYQB1AHQAaQBm'
        'AHUAbAAgAHMAaABvAHQAIABvAGYAIAAEAWIAZQBlAHMABQECASgANgA2ADEALAA2'
        'ADEAMgApACwAKAA4ADMAMwAsADgAMQAyACkAAwECASgAMQAyADAALAA1ADUANQAp'
        'ACwAKAAyADYANQAsADcANwAwACkAAwEgAGcAYQB0AGgAZQByAGkAbgBnACAAbgBl'
        'AGMAdABhAHIAcwAgAGYAcgBvAG0AIAAEAWEAbgAgAGEAcAByAGkAYwBvAHQAIABm'
        'AGwAbwB3AGUAcgAFAQIBKAAyADIANAAsADEAMwApACwAKAAzADkAOQAsADMAMQAz'
        'ACkAAwEKAQ==", "token_len": 194}'
    ),
    "grounded_caption": (
        '{"format": 3, "id": "grounded_caption", "loss_spans": [[48, 87]]'
        ', "n_images": 1, "task": "grounded_caption", "text": "<img>VG_10'
        '0K_2/4.jpg</img><ref>This</ref><box>(360,542),(476,705)</box> is'
        ' Yellow cross country ski racing gloves<eos>", "token_ids": "AAF'
        'WAEcAXwAxADAAMABLAF8AMgAvADQALgBqAHAAZwABAQQBVABoAGkAcwAFAQIBKAA'
        'zADYAMAAsADUANAAyACkALAAoADQANwA2ACwANwAwADUAKQADASAAaQBzACAAWQB'
        'lAGwAbABvAHcAIABjAHIAbwBzAHMAIABjAG8AdQBuAHQAcgB5ACAAcwBrAGkAIAB'
        'yAGEAYwBpAG4AZwAgAGcAbABvAHYAZQBzAAoB", "token_len": 87}'
    ),
    "ocr": (
        '{"format": 3, "id": "ocr", "loss_spans": [[36, 150]], "n_images"'
        ': 1, "task": "ocr", "text": "<img>synthdog/1.jpg</img>OCR with g'
        'rounding: <ref>It is managed</ref><quad>(568,121), (625,131), (6'
        '24,182), (567,172)</quad><ref>by South</ref><quad>(560,224), (62'
        '9,232), (628,283), (559,277)</quad><eos>", "token_ids": "AAFzAHk'
        'AbgB0AGgAZABvAGcALwAxAC4AagBwAGcAAQFPAEMAUgAgAHcAaQB0AGgAIABnAHI'
        'AbwB1AG4AZABpAG4AZwA6ACAABAFJAHQAIABpAHMAIABtAGEAbgBhAGcAZQBkAAU'
        'BBgEoADUANgA4ACwAMQAyADEAKQAsACAAKAA2ADIANQAsADEAMwAxACkALAAgACg'
        'ANgAyADQALAAxADgAMgApACwAIAAoADUANgA3ACwAMQA3ADIAKQAHAQQBYgB5ACA'
        'AUwBvAHUAdABoAAUBBgEoADUANgAwACwAMgAyADQAKQAsACAAKAA2ADIAOQAsADI'
        'AMwAyACkALAAgACgANgAyADgALAAyADgAMwApACwAIAAoADUANQA5ACwAMgA3ADc'
        'AKQAHAQoB", "token_len": 150}'
    ),
    "ocr_vqa": (
        '{"format": 3, "id": "ocr_vqa", "loss_spans": [[56, 146]], "n_ima'
        'ges": 1, "task": "ocr_vqa", "text": "<img>ocr_vqa/1.jpg</img> Wh'
        'at is the title of this book? Answer: Asi Se Dice!, Volume 2: Wo'
        'rkbook And Audio Activities (Glencoe Spanish) (Spanish Edition)<'
        'eos>", "token_ids": "AAFvAGMAcgBfAHYAcQBhAC8AMQAuAGoAcABnAAEBIAB'
        'XAGgAYQB0ACAAaQBzACAAdABoAGUAIAB0AGkAdABsAGUAIABvAGYAIAB0AGgAaQB'
        'zACAAYgBvAG8AawA/ACAAQQBuAHMAdwBlAHIAOgAgAEEAcwBpACAAUwBlACAARAB'
        'pAGMAZQAhACwAIABWAG8AbAB1AG0AZQAgADIAOgAgAFcAbwByAGsAYgBvAG8AawA'
        'gAEEAbgBkACAAQQB1AGQAaQBvACAAQQBjAHQAaQB2AGkAdABpAGUAcwAgACgARwB'
        'sAGUAbgBjAG8AZQAgAFMAcABhAG4AaQBzAGgAKQAgACgAUwBwAGEAbgBpAHMAaAA'
        'gAEUAZABpAHQAaQBvAG4AKQAKAQ==", "token_len": 146}'
    ),
    "ref_grounding": (
        '{"format": 3, "id": "ref_grounding", "loss_spans": [[39, 61]], "'
        'n_images": 1, "task": "ref_grounding", "text": "<img>VG_100K_2/3'
        '.jpg</img><ref>the ear on a giraffe</ref><box>(176,106),(232,160'
        ')</box><eos>", "token_ids": "AAFWAEcAXwAxADAAMABLAF8AMgAvADMALgB'
        'qAHAAZwABAQQBdABoAGUAIABlAGEAcgAgAG8AbgAgAGEAIABnAGkAcgBhAGYAZgB'
        'lAAUBAgEoADEANwA2ACwAMQAwADYAKQAsACgAMgAzADIALAAxADYAMAApAAMBCgE'
        '=", "token_len": 61}'
    ),
    "vqa": (
        '{"format": 3, "id": "vqa", "loss_spans": [[87, 138]], "n_images"'
        ': 1, "task": "vqa", "text": "<img>VG_100K_2/1.jpg</img> Does the'
        ' bandage have a different color than the wrist band? Answer: No,'
        ' both the bandage and the wrist band are white.<eos>", "token_id'
        's": "AAFWAEcAXwAxADAAMABLAF8AMgAvADEALgBqAHAAZwABASAARABvAGUAcwA'
        'gAHQAaABlACAAYgBhAG4AZABhAGcAZQAgAGgAYQB2AGUAIABhACAAZABpAGYAZgB'
        'lAHIAZQBuAHQAIABjAG8AbABvAHIAIAB0AGgAYQBuACAAdABoAGUAIAB3AHIAaQB'
        'zAHQAIABiAGEAbgBkAD8AIABBAG4AcwB3AGUAcgA6ACAATgBvACwAIABiAG8AdAB'
        'oACAAdABoAGUAIABiAGEAbgBkAGEAZwBlACAAYQBuAGQAIAB0AGgAZQAgAHcAcgB'
        'pAHMAdAAgAGIAYQBuAGQAIABhAHIAZQAgAHcAaABpAHQAZQAuAAoB", "token_l'
        'en": 138}'
    ),
}

CHATML_LINE = (
    '{"format": 3, "id": "dlg", "loss_spans": [[84, 135], [189, 246]]'
    ', "n_images": 1, "task": "chat", "text": "<|im_start|>user\\nPict'
    'ure 1: <img>vg/VG_100K_2/649.jpg</img>What is the sign in the pi'
    'cture?<|im_end|>\\n<|im_start|>assistant\\nThe sign is a road clos'
    'ure with an orange rhombus.<|im_end|>\\n<|im_start|>user\\nHow is '
    'the weather in the picture?<|im_end|>\\n<|im_start|>assistant\\nTh'
    'e shape of the road closure sign is an orange rhombus.<|im_end|>'
    '\\n", "token_ids": "CAF1AHMAZQByAAoAUABpAGMAdAB1AHIAZQAgADEAOgAgA'
    'AABdgBnAC8AVgBHAF8AMQAwADAASwBfADIALwA2ADQAOQAuAGoAcABnAAEBVwBoA'
    'GEAdAAgAGkAcwAgAHQAaABlACAAcwBpAGcAbgAgAGkAbgAgAHQAaABlACAAcABpA'
    'GMAdAB1AHIAZQA/AAkBCgAIAWEAcwBzAGkAcwB0AGEAbgB0AAoAVABoAGUAIABzA'
    'GkAZwBuACAAaQBzACAAYQAgAHIAbwBhAGQAIABjAGwAbwBzAHUAcgBlACAAdwBpA'
    'HQAaAAgAGEAbgAgAG8AcgBhAG4AZwBlACAAcgBoAG8AbQBiAHUAcwAuAAkBCgAIA'
    'XUAcwBlAHIACgBIAG8AdwAgAGkAcwAgAHQAaABlACAAdwBlAGEAdABoAGUAcgAgA'
    'GkAbgAgAHQAaABlACAAcABpAGMAdAB1AHIAZQA/AAkBCgAIAWEAcwBzAGkAcwB0A'
    'GEAbgB0AAoAVABoAGUAIABzAGgAYQBwAGUAIABvAGYAIAB0AGgAZQAgAHIAbwBhA'
    'GQAIABjAGwAbwBzAHUAcgBlACAAcwBpAGcAbgAgAGkAcwAgAGEAbgAgAG8AcgBhA'
    'G4AZwBlACAAcgBoAG8AbQBiAHUAcwAuAAkBCgA=", "token_len": 247}'
)

# clean: one record per drop rule under CLEAN_RULES_CONFIG, keeps with every
# optional field, with an int clip_score and with non-ASCII text, and a
# record without the image dimensions the first rules need (an error). With
# the dimension rules off, a record with no optional field is kept.
CLEAN_FIXTURES = {
    "rules": {
        "config": {"filter": {"clip_thresholds": {"laion": 0.28},
                              "banned_patterns": ["*stock photo*"]}},
        "records": [
            {"id": "aspect", "text": "A wide panorama of a bay.",
             "image_width": 2000, "image_height": 400},
            {"id": "small", "text": "A tiny thumbnail.", "image_width": 100,
             "image_height": 100},
            {"id": "clip", "text": "A dog on a lawn.", "image_width": 512,
             "image_height": 512, "dataset": "laion", "clip_score": 0.1},
            {"id": "script", "text": "Un café au bord du lac.", "image_width": 512,
             "image_height": 512, "language": "other"},
            {"id": "emoji", "text": "Nice weather \U0001F600 today!", "image_width": 512,
             "image_height": 512, "language": "en"},
            {"id": "length", "text": "Hi", "image_width": 512, "image_height": 512},
            {"id": "html", "text": "<div><br/></div>", "image_width": 512,
             "image_height": 512},
            {"id": "pattern", "text": "Dog on a lawn, stock photo.", "image_width": 512,
             "image_height": 512},
            {"id": "tag", "text": "Photo of <PERSON> at the beach.", "image_width": 512,
             "image_height": 512, "language": "en"},
            {"id": "every \"field\" \\ 中", "text": "A <b>small</b> dog &amp; a\tcat.",
             "dataset": "coyo", "image_width": 640, "image_height": 480, "language": "en",
             "clip_score": 0.3125, "image_key": "img/000001.jpg", "group_key": "g1"},
            {"id": "int_clip", "text": "A red car in the rain.", "dataset": "laion",
             "image_width": 512, "image_height": 512, "clip_score": 1},
            {"id": "exponent_clip", "text": "Line one\nline two.", "dataset": "web",
             "image_width": 512, "image_height": 512, "clip_score": 1e-07},
            {"id": "中文", "text": "草地上的一只小狗",
             "image_width": 300, "image_height": 300, "language": "zh"},
            {"id": "no_dims", "text": "A cat on a mat."},
        ],
    },
    "bare": {
        "config": {"filter": {"max_aspect_ratio": None, "min_side_px": None}},
        "records": [{"id": "bare", "text": "A cat on a mat."}],
    },
}

# check-markup: a kept, a non-canonical and an unparsable record, with ids
# that need escaping and ids that are not strings.
MARKUP_RECORDS = [
    {"id": "ok", "markup": "<ref>a cat</ref><box>(1,2),(3,4)</box>"},
    {"id": "loose \"q\" é", "markup": "<ref>a cat</ref><quad>(1,2),(3,4),(5,6),(7,8)</quad>"},
    {"id": "broken\\", "markup": "<ref>a cat</ref><box>(1,2)</box>"},
    {"id": 7, "markup": "<ref>a cat</ref><box>(1,2),(3,4)</box>"},
    {"id": ["a", {"b": None}], "markup": "<ref>a cat</ref><quad>(1,2),(3,4),(5,6),(7,8)</quad>"},
    {"id": 2.5, "markup": "<box>(1,2)</box>"},
]

# pack: samples of two tasks under a 600-token budget (258 per image).
PACK_CONFIG = {"packer": {"max_len": 600}}
PACK_RECORDS = [
    {"format": 3, "id": "c1", "task": "caption", "token_len": 100, "n_images": 1},
    {"format": 3, "id": "v \"1\"", "task": "vqa", "token_len": 200, "n_images": 1},
    {"format": 3, "id": "c2 中", "task": "caption", "token_len": 150, "n_images": 0},
    {"format": 3, "id": "c3\\", "task": "caption", "token_len": 300, "n_images": 0},
    {"format": 3, "id": "big", "task": "vqa", "token_len": 500, "n_images": 1},
    {"format": 3, "id": "v2", "task": "vqa", "token_len": 42, "n_images": 0},
]


# The exact bytes clean, check-markup and pack write for the fixtures above,
# generated with the json.dumps writer they replaced: keys sorted, ", " and
# ": " separators, non-ASCII unescaped. Clean's error verdict comes from
# json.dumps still.
CLEAN_LINES = {
    "rules": {
        "kept": [
            (
                '{"clip_score": 0.3125, "dataset": "coyo", "group_key": "g1", "id'
                '": "every \\"field\\" \\\\ 中", "image_height": 480, "image_key": "im'
                'g/000001.jpg", "image_width": 640, "language": "en", "text": "A '
                'small dog & a\\tcat."}'
            ),
            (
                '{"clip_score": 1, "dataset": "laion", "id": "int_clip", "image_h'
                'eight": 512, "image_width": 512, "language": "other", "text": "A'
                ' red car in the rain."}'
            ),
            (
                '{"clip_score": 1e-07, "dataset": "web", "id": "exponent_clip", "'
                'image_height": 512, "image_width": 512, "language": "other", "te'
                'xt": "Line one\\nline two."}'
            ),
            (
                '{"id": "中文", "image_height": 300, "image_width": 300, "language"'
                ': "zh", "text": "草地上的一只小狗"}'
            ),
        ],
        "verdicts": [
            (
                '{"decision": "drop", "detail": "aspect ratio 5.00 > 3.0", "id": '
                '"aspect", "rule_id": "R1_aspect"}'
            ),
            (
                '{"decision": "drop", "detail": "min side 100px < 224px", "id": "'
                'small", "rule_id": "R2_small"}'
            ),
            (
                '{"decision": "drop", "detail": "clip score 0.1 < 0.28 (laion)", '
                '"id": "clip", "rule_id": "R3_clip"}'
            ),
            (
                '{"decision": "drop", "detail": "character U+00E9 outside allowed'
                ' scripts", "id": "script", "rule_id": "R4_script"}'
            ),
            (
                '{"decision": "drop", "detail": "emoji character U+1F600", "id": '
                '"emoji", "rule_id": "R5_emoji"}'
            ),
            (
                '{"decision": "drop", "detail": "2 chars outside [5, 1024]", "id"'
                ': "length", "rule_id": "R6_length"}'
            ),
            (
                '{"decision": "drop", "detail": "nothing left after HTML cleanup"'
                ', "id": "html", "rule_id": "R7_html"}'
            ),
            (
                '{"decision": "drop", "detail": "matches banned pattern \'*stock p'
                'hoto*\'", "id": "pattern", "rule_id": "R8_pattern"}'
            ),
            (
                '{"decision": "drop", "detail": "contains special tag \'<PERSON>\'"'
                ', "id": "tag", "rule_id": "T_special_tag"}'
            ),
            (
                '{"decision": "keep", "detail": "", "id": "every \\"field\\" \\\\ 中",'
                ' "rule_id": null}'
            ),
            '{"decision": "keep", "detail": "", "id": "int_clip", "rule_id": null}',
            '{"decision": "keep", "detail": "", "id": "exponent_clip", "rule_id": null}',
            '{"decision": "keep", "detail": "", "id": "中文", "rule_id": null}',
            (
                '{"decision": "error", "detail": "record \'no_dims\' lacks image di'
                'mensions needed by R1_aspect", "id": "no_dims"}'
            ),
        ],
    },
    "bare": {
        "kept": [
            '{"id": "bare", "language": "other", "text": "A cat on a mat."}',
        ],
        "verdicts": [
            '{"decision": "keep", "detail": "", "id": "bare", "rule_id": null}',
        ],
    },
}

MARKUP_LINES = [
    '{"id": "ok", "ok": true}',
    (
        '{"canonical": "<ref>a cat</ref><quad>(1,2), (3,4), (5,6), (7,8)<'
        '/quad>", "id": "loose \\"q\\" é", "ok": false}'
    ),
    '{"error": "<box> needs 2 points, got 1: \'(1,2)\'", "id": "broken\\\\", "ok": false}',
    '{"id": 7, "ok": true}',
    (
        '{"canonical": "<ref>a cat</ref><quad>(1,2), (3,4), (5,6), (7,8)<'
        '/quad>", "id": ["a", {"b": null}], "ok": false}'
    ),
    '{"error": "<box> needs 2 points, got 1: \'(1,2)\'", "id": 2.5, "ok": false}',
]

PACK_LINES = [
    '{"sample_ids": ["c1", "c2 中"], "task": "caption", "total_len": 508}',
    '{"sample_ids": ["v \\"1\\"", "v2"], "task": "vqa", "total_len": 500}',
    '{"sample_ids": ["c3\\\\"], "task": "caption", "total_len": 300}',
]

# build-task over grounding records whose regions parse but are not canonical
# (spaced commas, a tab, leading zeros, -0, an unspaced quad with a U+3000
# separator, other scripts' digits): each is rendered through parse and
# format, into the same bytes as its canonical form.
REGION_RECORDS = [
    {"id": "ref_spaced", "task": "ref_grounding", "image": "vg/1.jpg", "phrase": "the dog",
     "regions": "<box>(12, 34),(56,\t78)</box><box>(007,8),(9,10)</box>"},
    {"id": "ref_quad", "task": "ref_grounding", "image": "ocr/2.jpg", "phrase": "STOP",
     "regions": "<quad>(-0,1),(2,3),\u3000(4,5), (6,7)</quad>"},
    {"id": "gc_digits", "task": "grounded_caption", "image": "vg/3.jpg", "phrase": "a cat",
     "regions": "<box>(\u0661,\uff15),(30,40)</box>",
     "description": "A grey cat asleep on a mat."},
]

REGION_LINES = [
    (
        '{"format": 3, "id": "ref_spaced", "loss_spans": [[19, 51]], "n_i'
        'mages": 1, "task": "ref_grounding", "text": "<img>vg/1.jpg</img>'
        '<ref>the dog</ref><box>(12,34),(56,78)</box><box>(7,8),(9,10)</b'
        'ox><eos>", "token_ids": "AAF2AGcALwAxAC4AagBwAGcAAQEEAXQAaABlACA'
        'AZABvAGcABQECASgAMQAyACwAMwA0ACkALAAoADUANgAsADcAOAApAAMBAgEoADc'
        'ALAA4ACkALAAoADkALAAxADAAKQADAQoB", "token_len": 51}'
    ),
    (
        '{"format": 3, "id": "ref_quad", "loss_spans": [[17, 46]], "n_ima'
        'ges": 1, "task": "ref_grounding", "text": "<img>ocr/2.jpg</img><'
        'ref>STOP</ref><quad>(0,1), (2,3), (4,5), (6,7)</quad><eos>", "to'
        'ken_ids": "AAFvAGMAcgAvADIALgBqAHAAZwABAQQBUwBUAE8AUAAFAQYBKAAwA'
        'CwAMQApACwAIAAoADIALAAzACkALAAgACgANAAsADUAKQAsACAAKAA2ACwANwApA'
        'AcBCgE=", "token_len": 46}'
    ),
    (
        '{"format": 3, "id": "gc_digits", "loss_spans": [[36, 64]], "n_im'
        'ages": 1, "task": "grounded_caption", "text": "<img>vg/3.jpg</im'
        'g><ref>a cat</ref><box>(1,5),(30,40)</box> is A grey cat asleep '
        'on a mat.<eos>", "token_ids": "AAF2AGcALwAzAC4AagBwAGcAAQEEAWEAI'
        'ABjAGEAdAAFAQIBKAAxACwANQApACwAKAAzADAALAA0ADAAKQADASAAaQBzACAAQ'
        'QAgAGcAcgBlAHkAIABjAGEAdAAgAGEAcwBsAGUAZQBwACAAbwBuACAAYQAgAG0AY'
        'QB0AC4ACgE=", "token_len": 64}'
    ),
]
