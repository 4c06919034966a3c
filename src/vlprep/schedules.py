"""Learning-rate schedules, stage presets, and patch-grid arithmetic.

The schedule is linear warmup from 0 to the peak over ``warmup_steps``, then
cosine decay that reaches ``min_lr`` exactly at ``total_steps``. Layer-wise
decay scales the base rate by ``decay ** depth`` counting down from the top
encoder block. Stage presets freeze the three training configurations
(initial pretraining, multi-task pretraining, supervised fine-tuning) as
data; ``vit_lr_decay = 0.0`` in the fine-tuning preset encodes a frozen
visual encoder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidDepth, InvalidResolution, StepOutOfRange

PATCH_STRIDE = 14

STAGE_PRETRAIN = "pretrain"
STAGE_MULTITASK = "multitask"
STAGE_SFT = "sft"
STAGES = (STAGE_PRETRAIN, STAGE_MULTITASK, STAGE_SFT)


@dataclass(frozen=True)
class ScheduleConfig:
    peak_lr: float
    min_lr: float
    warmup_steps: int
    total_steps: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.peak_lr) and math.isfinite(self.min_lr)):
            raise ValueError(
                f"learning rates must be finite, got {self.min_lr} / {self.peak_lr}"
            )
        if not 0 < self.min_lr <= self.peak_lr:
            raise ValueError(
                f"need 0 < min_lr <= peak_lr, got {self.min_lr} / {self.peak_lr}"
            )
        if not 0 <= self.warmup_steps < self.total_steps:
            raise ValueError(
                f"need 0 <= warmup < total, got {self.warmup_steps} / {self.total_steps}"
            )


@dataclass(frozen=True)
class StageConfig:
    stage: str
    image_resolution: int
    vit_seq_len: int
    llm_seq_len: int
    peak_lr: float
    min_lr: float
    warmup_steps: int
    total_steps: int
    global_batch: int
    vit_lr_decay: float

    def __post_init__(self) -> None:
        h, w, count = patch_grid(self.image_resolution)
        if count != self.vit_seq_len:
            raise ValueError(
                f"vit_seq_len {self.vit_seq_len} inconsistent with "
                f"resolution {self.image_resolution} (expected {count})"
            )

    @property
    def schedule(self) -> ScheduleConfig:
        return ScheduleConfig(
            peak_lr=self.peak_lr,
            min_lr=self.min_lr,
            warmup_steps=self.warmup_steps,
            total_steps=self.total_steps,
        )


def lr_at(cfg: ScheduleConfig, step: int) -> float:
    """Learning rate at an integer step of the warmup + cosine schedule."""
    if not 0 <= step <= cfg.total_steps:
        raise StepOutOfRange(f"step {step} outside [0, {cfg.total_steps}]")
    if step < cfg.warmup_steps:
        return cfg.peak_lr * step / cfg.warmup_steps
    span = cfg.total_steps - cfg.warmup_steps
    phase = math.pi * (step - cfg.warmup_steps) / span
    return cfg.min_lr + 0.5 * (cfg.peak_lr - cfg.min_lr) * (1.0 + math.cos(phase))


def layer_lr(base: float, depth_from_top: int, decay: float) -> float:
    """Per-layer rate: ``base * decay ** depth``, depth 0 being the top block."""
    if depth_from_top < 0:
        raise InvalidDepth(f"depth_from_top must be >= 0, got {depth_from_top}")
    return base * decay**depth_from_top


def stage_preset(stage: str) -> StageConfig:
    if stage not in _PRESETS:
        raise ValueError(f"unknown stage {stage!r}, expected one of {STAGES}")
    return _PRESETS[stage]


def patch_grid(resolution: int) -> tuple[int, int, int]:
    """Patch grid for a square image: (rows, cols, patch count)."""
    if resolution <= 0 or resolution % PATCH_STRIDE != 0:
        raise InvalidResolution(
            f"resolution {resolution} not a positive multiple of stride {PATCH_STRIDE}"
        )
    side = resolution // PATCH_STRIDE
    return side, side, side * side


_PRESETS = {
    STAGE_PRETRAIN: StageConfig(
        stage=STAGE_PRETRAIN,
        image_resolution=224,
        vit_seq_len=256,
        llm_seq_len=512,
        peak_lr=2e-4,
        min_lr=1e-6,
        warmup_steps=500,
        total_steps=50_000,
        global_batch=30_720,
        vit_lr_decay=0.95,
    ),
    STAGE_MULTITASK: StageConfig(
        stage=STAGE_MULTITASK,
        image_resolution=448,
        vit_seq_len=1024,
        llm_seq_len=2048,
        peak_lr=5e-5,
        min_lr=1e-5,
        warmup_steps=400,
        total_steps=19_000,
        global_batch=4096,
        vit_lr_decay=0.95,
    ),
    STAGE_SFT: StageConfig(
        stage=STAGE_SFT,
        image_resolution=448,
        vit_seq_len=1024,
        llm_seq_len=2048,
        peak_lr=1e-5,
        min_lr=1e-6,
        warmup_steps=3000,
        total_steps=8000,
        global_batch=128,
        vit_lr_decay=0.0,  # visual encoder frozen in this stage
    ),
}
