"""Corpus construction toolkit for grounded vision-language training data.

Modules:
    grounding   region markup serialization and the integer coordinate grid
    filters     record-level cleaning rules and caption de-nesting
    chat        task templates and chat transcripts with supervision spans
    tokenizer   byte-level mock tokenizer and loss-mask projection
    packing     fixed-length same-task sequence packing
    resampler   cross-attention feature resampler with analytic gradients
    optim       AdamW with global-norm clipping
    schedules   warmup + cosine learning-rate schedules and stage presets
    demo        end-to-end overfit sanity check
    cli         JSON Lines batch front door (``vlprep`` entry point)
    values      the base class of the per-record value classes
"""

from .chat import (
    AnnotatedText,
    ChatTurn,
    Segment,
    build_chatml,
    build_task_sample,
    make_turn,
)
from .filters import (
    CorpusRecord,
    FilterConfig,
    FilterVerdict,
    check_special_tags,
    denest_grit,
    filter_document_text,
    filter_pair,
    select_longest_caption,
)
from .grounding import (
    GridBox,
    PixelBox,
    QuadGrid,
    Ref,
    Text,
    denormalize_box,
    emit_markup,
    normalize_box,
    parse_markup,
)
from .packing import PackerConfig, Sample, effective_len, pack, utilization_report
from .resampler import (
    ResamplerConfig,
    attention_weights,
    grad_check,
    posenc_2d,
    resample,
)
from .schedules import ScheduleConfig, layer_lr, lr_at, patch_grid, stage_preset
from .tokenizer import MockTokenizer, decode_token_ids, encode_token_ids, project_mask

__version__ = "0.1.0"

__all__ = [
    "AnnotatedText",
    "ChatTurn",
    "CorpusRecord",
    "FilterConfig",
    "FilterVerdict",
    "GridBox",
    "MockTokenizer",
    "PackerConfig",
    "PixelBox",
    "QuadGrid",
    "Ref",
    "ResamplerConfig",
    "Sample",
    "ScheduleConfig",
    "Segment",
    "Text",
    "attention_weights",
    "build_chatml",
    "build_task_sample",
    "check_special_tags",
    "decode_token_ids",
    "denest_grit",
    "denormalize_box",
    "effective_len",
    "emit_markup",
    "encode_token_ids",
    "filter_document_text",
    "filter_pair",
    "grad_check",
    "layer_lr",
    "lr_at",
    "make_turn",
    "normalize_box",
    "pack",
    "parse_markup",
    "patch_grid",
    "posenc_2d",
    "project_mask",
    "resample",
    "select_longest_caption",
    "stage_preset",
    "utilization_report",
]
