"""Print every training-stage preset and its learning-rate trajectory.

For each stage the script shows the full preset, the vision-encoder
layer-wise rates at a few depths, and the schedule sampled at fixed
fractions of the run.

    python3 scripts/schedule_report.py
    python3 scripts/schedule_report.py --stage sft --layers 48
"""

import argparse

from vlprep.schedules import STAGES, layer_lr, lr_at, patch_grid, stage_preset


def report_stage(stage: str, n_layers: int) -> None:
    preset = stage_preset(stage)
    sched = preset.schedule
    grid_h, grid_w, n_patches = patch_grid(preset.image_resolution)

    print(f"\n=== {stage} ===")
    print(f"  resolution {preset.image_resolution}px "
          f"-> patch grid {grid_h}x{grid_w} = {n_patches} features")
    print(f"  sequence lengths: vision {preset.vit_seq_len}, "
          f"language {preset.llm_seq_len}")
    print(f"  batch {preset.global_batch}, steps {preset.total_steps}, "
          f"warmup {preset.warmup_steps}")

    print("  schedule:")
    fractions = (0.0, 0.25, 0.5, 0.75, 1.0)
    marks = [round(f * preset.total_steps) for f in fractions] + [preset.warmup_steps]
    for step in sorted(set(marks)):
        tag = " (warmup end)" if step == preset.warmup_steps else ""
        print(f"    step {step:>6d}: lr {lr_at(sched, step):.3e}{tag}")

    if preset.vit_lr_decay == 0.0:
        print("  vision encoder frozen (layer decay 0)")
        return
    layers = "1 layer" if n_layers == 1 else f"{n_layers} layers"
    print(f"  vision encoder layer rates (decay {preset.vit_lr_decay}, {layers}):")
    for depth in sorted({0, n_layers // 2, n_layers - 1}):
        rate = layer_lr(preset.peak_lr, depth, preset.vit_lr_decay)
        print(f"    depth {depth:>2d} from top: peak lr {rate:.3e}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--stage", choices=STAGES, help="report one stage only")
    ap.add_argument("--layers", type=int, default=48,
                    help="vision encoder depth for the layer-wise table")
    args = ap.parse_args()
    if args.layers < 1:
        ap.error(f"--layers must be >= 1, got {args.layers}")
    for stage in ([args.stage] if args.stage else STAGES):
        report_stage(stage, args.layers)


if __name__ == "__main__":
    main()
