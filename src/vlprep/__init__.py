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
    errors      the exception hierarchy, rooted at ``VlprepError``
    values      the base class of the per-record value classes

``import vlprep`` imports none of them. Each module, and each name in
``__all__``, is imported on its first use (PEP 562).
"""

from importlib import import_module

__version__ = "0.1.0"

# Every submodule, with the names the package re-exports from it.
_EXPORTS = {
    "chat": ("AnnotatedText", "ChatTurn", "Segment", "build_chatml", "build_task_sample",
             "make_turn"),
    "cli": (),
    "demo": (),
    "errors": (),
    "filters": ("CorpusRecord", "FilterConfig", "FilterVerdict", "check_special_tags",
                "denest_grit", "filter_document_text", "filter_pair", "select_longest_caption"),
    "grounding": ("GridBox", "PixelBox", "QuadGrid", "Ref", "Text", "denormalize_box",
                  "emit_markup", "normalize_box", "parse_markup"),
    "optim": (),
    "packing": ("PackerConfig", "Sample", "effective_len", "pack", "utilization_report"),
    "resampler": ("ResamplerConfig", "attention_weights", "grad_check", "posenc_2d", "resample"),
    "schedules": ("ScheduleConfig", "layer_lr", "lr_at", "patch_grid", "stage_preset"),
    "tokenizer": ("MockTokenizer", "decode_token_ids", "encode_token_ids", "project_mask"),
    "values": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:
        value = import_module(f"{__name__}.{name}")
    elif name in _HOME:
        value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
