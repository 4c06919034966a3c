"""vlprep benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload caption_web --seed 1 --seconds 25 --trace 0

Run from the repository root. The program is imported from ``src/`` of the
same checkout. Each stage runs in its own worker process (``worker.py``) with
one BLAS thread, so its peak RSS is its own. A warm-up round runs every stage
once and checks all outputs against the generator's labels; measured rounds
then repeat the stages until ``--seconds`` have passed, and each must write
byte-identical outputs. Timings are normalised for machine speed
(``speed.py``), then taken as medians over rounds.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` measured rounds alternate untraced and traced, and the last line
holds the per-layer metrics. Every metric is printed above it with its unit.
The exit code is 0 when every check passed, 1 when one failed, 2 when the
benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import gen
from checks import Checker
from speed import normalised, reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench_out"

# Sizes: one round of a data workload takes about a second on one core.
CAPTION_RECORDS = 2500
SFT_TASKS, SFT_DIALOGUES, SFT_MARKUP = 1800, 600, 1400
FIT_STEPS = 30  # overfit_demo at DemoConfig's default shape
FWD_BWD_CALLS = 10  # loss_and_grads at the criterion-5 shape
MIN_ROUNDS = 4

DATA_STAGES = ("clean", "build-task", "build-chat", "check-markup", "pack", "stats")
LAYERS = ("cli", "filters", "grounding", "chat", "tokenizer", "packing",
          "resampler", "optim", "demo")
DROP_RULES = gen.CAPTION_DEFECTS
DEMO_SHAPE = (16, 3, 3, 4, 1)  # DemoConfig defaults: d_model, grid_h, grid_w, n_queries, n_heads
DEMO_SAMPLES = 32  # DemoConfig.n_samples: forward+backward calls per step

# Span names a workload must record at least once in every traced round.
REQUIRED_SPANS = {
    "caption_web": ["cli.json_decode", "cli.json_encode", "filters.from_json",
                    "filters.filter_pair", "filters.check_special_tags",
                    "filters.clean_html_text", "chat.build_task_sample.caption",
                    "tokenizer.project_mask", "packing.pack", "packing.utilization_report"],
    "grounded_sft": ["cli.json_decode", "cli.json_encode", "chat.build_chatml",
                     "chat.make_turn", "grounding.parse_markup", "grounding.emit_markup",
                     "tokenizer.project_mask", "packing.pack", "packing.utilization_report"]
                    + [f"chat.build_task_sample.{t}" for t in gen.TASKS],
    "resampler_fit": ["resampler.forward.small", "resampler.forward.large",
                      "resampler.backward.small", "resampler.backward.large",
                      "resampler.loss_and_grads", "resampler.grad_check",
                      "optim.adamw_step", "demo.overfit_demo"],
}


class BenchError(Exception):
    """The benchmark itself could not run (exit code 2)."""


def _digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


def _lines(path: Path) -> int:
    return sum(1 for line in path.read_text(encoding="utf-8").split("\n") if line.strip())


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


# ---------------------------------------------------------------------------
# worker processes

def _worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


class Worker:
    """A worker process; its spawn-to-ready time is one setup_s sample.

    The reference computation runs in this process just before the spawn
    and just after the ready line, while the new process only waits.
    """

    def __init__(self, name: str, config: Path, spans: Path | None = None) -> None:
        self.name = name
        cmd = [sys.executable, str(BENCH / "worker.py"), "--config", str(config)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        before = reference()
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(), encoding="utf-8",
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        ready = self._read()
        self.setup_wall_s = time.perf_counter() - t0
        self.ref_s = [before, reference()]
        if Path(ready["vlprep"]).resolve() != (ROOT / "src" / "vlprep").resolve():
            raise BenchError(f"worker imported vlprep from {ready['vlprep']}, not this checkout")
        self.peak_rss_mb = 0.0

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"worker {self.name} exited unexpectedly")
        return json.loads(line)

    def call(self, cmd: dict) -> dict:
        self.proc.stdin.write(json.dumps(cmd) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        """Ask the worker to exit and take its peak RSS from its rusage."""
        self.proc.stdin.write(json.dumps({"op": "quit"}) + "\n")
        self.proc.stdin.close()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self.peak_rss_mb = usage.ru_maxrss / 1024.0  # KiB on Linux
        if self.proc.returncode != 0:
            raise BenchError(f"worker {self.name} exited with {self.proc.returncode}")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


# ---------------------------------------------------------------------------
# workloads

class Pipeline:
    """Stages of one workload; ``round`` runs each stage once, in order."""

    stages: tuple[str, ...] = ()
    input_records = 0
    input_bytes = 0

    def __init__(self, out: Path, seed: int, ck: Checker) -> None:
        self.out, self.seed, self.ck = out, seed, ck
        self.config = out / "config.json"
        self.records_in: dict[str, int] = {}  # per stage, per run
        self.digests: dict[str, str] = {}
        self.exact: dict[str, float] = {}  # counts that repeat exactly
        self.attempted = 0

    def _stage(self, workers: dict, stage: str, cmd: dict, outputs: list[Path],
               trace: bool) -> dict:
        reply = workers[stage].call({**cmd, "trace": trace})
        self.attempted += self.records_in[stage]
        if reply.get("rc") != 0:
            self.ck.fail(1, f"{stage}: exit code {reply.get('rc')}: {reply.get('stderr', '')}")
            return reply
        # Output files, the numeric digest a resampler op returns, or what
        # the command printed: each must repeat exactly in every round.
        if "digest" in reply:
            digest = reply["digest"]
        elif outputs:
            digest = _digest(outputs)
        else:
            digest = hashlib.sha256(reply.get("stdout", "").encode()).hexdigest()
        if stage not in self.digests:
            self.digests[stage] = digest
        elif digest != self.digests[stage]:
            self.ck.fail(self.records_in[stage], f"{stage}: output differs from the first round")
        return reply


class DataPipeline(Pipeline):
    def _cli(self, workers, stage, argv, outputs, trace):
        argv = [stage, *argv, "--workers", "1"]
        return self._stage(workers, stage, {"op": "cli", "argv": argv}, outputs, trace)

    def _write_inputs(self, wl: gen.Workload) -> None:
        self.config.write_text(json.dumps(wl.configs), encoding="utf-8")
        for name, lines in wl.files.items():
            _write_lines(self.out / f"{name}.jsonl", lines)
            self.input_records += len(lines)
            self.input_bytes += (self.out / f"{name}.jsonl").stat().st_size

    def bytes_per_rec(self, stage: str, inputs: list[Path], outputs: list[Path]) -> None:
        n = self.records_in[stage]
        self.exact[f"cli.{stage}.bytes_in_per_rec"] = _per(sum(p.stat().st_size for p in inputs), n)
        self.exact[f"cli.{stage}.bytes_out_per_rec"] = _per(
            sum(p.stat().st_size for p in outputs), n)

    def check_pack_and_stats(self, token_files: list[Path], reports: dict) -> None:
        samples = [{k: r[k] for k in ("id", "task", "token_len", "n_images")}
                   for f in token_files for r in checks.read_jsonl(f)]
        pack_report = checks.check_pack(self.ck, samples, gen.MAX_LEN, reports["pack"],
                                        self.out / "sequences.jsonl")
        usage = checks.check_stats(self.ck, pack_report, reports["stats"],
                                   self.out / "stats.json", self.out / "sequences.jsonl")
        self.exact["packing.sequences_out"] = pack_report["sequences_out"]
        self.exact["pack_fill_ratio"] = usage["fill_ratio"]
        kept = len(samples)
        self.exact["token_bytes_per_rec"] = _per(sum(f.stat().st_size for f in token_files), kept)
        self.exact["tokenizer.tokens_per_rec"] = _per(sum(s["token_len"] for s in samples), kept)


class CaptionWeb(DataPipeline):
    """clean -> build-task (captions of kept records) -> pack -> stats."""

    stages = ("clean", "build-task", "pack", "stats")

    def prepare(self) -> None:
        self.wl = gen.caption_web(CAPTION_RECORDS, self.seed)
        self._write_inputs(self.wl)
        self.records_in["clean"] = len(self.wl.files["corpus"])

    def round(self, workers: dict, first: bool, trace: bool) -> dict:
        o, cfg = self.out, str(self.config)
        r = {s: o / f"report-{s}.json" for s in self.stages}
        replies = {"clean": self._cli(
            workers, "clean",
            ["-i", str(o / "corpus.jsonl"), "-o", str(o / "kept.jsonl"), "--config", cfg,
             "--verdicts", str(o / "verdicts.jsonl"), "--report", str(r["clean"])],
            [o / "kept.jsonl", o / "verdicts.jsonl"], trace)}
        if first:
            checks.check_clean(self.ck, self.wl.labels["corpus"], r["clean"],
                               o / "kept.jsonl", o / "verdicts.jsonl")
            kept = (o / "kept.jsonl").read_text(encoding="utf-8").split("\n")
            self.tasks = gen.caption_tasks([line for line in kept if line])
            _write_lines(o / "tasks.jsonl", self.tasks.files.get("tasks", []))
            self.records_in["build-task"] = len(self.tasks.files.get("tasks", []))
            report = json.loads(r["clean"].read_text(encoding="utf-8"))
            for rule in DROP_RULES:
                self.exact[f"filters.drops.{rule}"] = report["drops"].get(rule, 0)
        replies["build-task"] = self._cli(
            workers, "build-task",
            ["-i", str(o / "tasks.jsonl"), "-o", str(o / "tokens.jsonl"),
             "--report", str(r["build-task"])], [o / "tokens.jsonl"], trace)
        if first:
            checks.check_build(self.ck, "build-task", self.tasks.labels.get("tasks", []),
                               self.tasks.files.get("tasks", []), r["build-task"],
                               o / "tokens.jsonl", lambda line: 1)
            self.records_in["pack"] = _lines(o / "tokens.jsonl")
        replies["pack"] = self._cli(
            workers, "pack",
            ["-i", str(o / "tokens.jsonl"), "-o", str(o / "sequences.jsonl"), "--config", cfg,
             "--report", str(r["pack"])], [o / "sequences.jsonl"], trace)
        if first:
            self.records_in["stats"] = _lines(o / "sequences.jsonl")
        replies["stats"] = self._cli(
            workers, "stats",
            ["-i", str(o / "sequences.jsonl"), "-o", str(o / "stats.json"), "--config", cfg,
             "--report", str(r["stats"])], [o / "stats.json"], trace)
        if first:
            self.check_pack_and_stats([o / "tokens.jsonl"], r)
            self.bytes_per_rec("clean", [o / "corpus.jsonl"],
                               [o / "kept.jsonl", o / "verdicts.jsonl"])
            self.bytes_per_rec("build-task", [o / "tasks.jsonl"], [o / "tokens.jsonl"])
            self.bytes_per_rec("pack", [o / "tokens.jsonl"], [o / "sequences.jsonl"])
            self.bytes_per_rec("stats", [o / "sequences.jsonl"], [o / "stats.json"])
        return replies


class GroundedSft(DataPipeline):
    """build-task, build-chat, check-markup, then pack over both token files, stats."""

    stages = ("build-task", "build-chat", "check-markup", "pack", "stats")

    def prepare(self) -> None:
        self.wl = gen.grounded_sft(SFT_TASKS, SFT_DIALOGUES, SFT_MARKUP, self.seed)
        self._write_inputs(self.wl)
        for stage, name in (("build-task", "tasks"), ("build-chat", "dialogues"),
                            ("check-markup", "markup")):
            self.records_in[stage] = len(self.wl.files[name])

    def round(self, workers: dict, first: bool, trace: bool) -> dict:
        o, cfg, wl = self.out, str(self.config), self.wl
        r = {s: o / f"report-{s}.json" for s in self.stages}
        replies = {}
        for stage, name, output in (("build-task", "tasks", "task_tokens"),
                                    ("build-chat", "dialogues", "chat_tokens"),
                                    ("check-markup", "markup", "checked")):
            replies[stage] = self._cli(
                workers, stage,
                ["-i", str(o / f"{name}.jsonl"), "-o", str(o / f"{output}.jsonl"),
                 "--report", str(r[stage])], [o / f"{output}.jsonl"], trace)
        tokens = [o / "task_tokens.jsonl", o / "chat_tokens.jsonl"]
        if first:
            checks.check_build(self.ck, "build-task", wl.labels["tasks"], wl.files["tasks"],
                               r["build-task"], tokens[0], lambda line: 1)
            checks.check_build(self.ck, "build-chat", wl.labels["dialogues"],
                               wl.files["dialogues"], r["build-chat"], tokens[1],
                               gen.dialogue_images)
            checks.check_markup(self.ck, wl.labels["markup"], r["check-markup"],
                                o / "checked.jsonl")
            (o / "pack_in.jsonl").write_bytes(b"".join(p.read_bytes() for p in tokens))
            self.records_in["pack"] = _lines(o / "pack_in.jsonl")
        replies["pack"] = self._cli(
            workers, "pack",
            ["-i", str(o / "pack_in.jsonl"), "-o", str(o / "sequences.jsonl"), "--config", cfg,
             "--report", str(r["pack"])], [o / "sequences.jsonl"], trace)
        if first:
            self.records_in["stats"] = _lines(o / "sequences.jsonl")
        replies["stats"] = self._cli(
            workers, "stats",
            ["-i", str(o / "sequences.jsonl"), "-o", str(o / "stats.json"), "--config", cfg,
             "--report", str(r["stats"])], [o / "stats.json"], trace)
        if first:
            self.check_pack_and_stats(tokens, r)
            self.bytes_per_rec("build-task", [o / "tasks.jsonl"], [tokens[0]])
            self.bytes_per_rec("build-chat", [o / "dialogues.jsonl"], [tokens[1]])
            self.bytes_per_rec("check-markup", [o / "markup.jsonl"], [o / "checked.jsonl"])
            self.bytes_per_rec("pack", [o / "pack_in.jsonl"], [o / "sequences.jsonl"])
            self.bytes_per_rec("stats", [o / "sequences.jsonl"], [o / "stats.json"])
        return replies


class ResamplerFit(Pipeline):
    """overfit_demo steps, forward+backward at the large shape, CLI grad-check."""

    stages = ("fit", "fwd_bwd", "grad-check")

    def prepare(self) -> None:
        self.config.write_text("{}", encoding="utf-8")
        self.records_in = {"fit": FIT_STEPS, "fwd_bwd": FWD_BWD_CALLS, "grad-check": 5}
        self.input_records = sum(self.records_in.values())
        fwd, bwd = _matmuls(*DEMO_SHAPE)
        self.exact["resampler.flops_per_step"] = DEMO_SAMPLES * (fwd[0] + bwd[0])
        self.exact["resampler.bytes_per_step"] = DEMO_SAMPLES * (fwd[1] + bwd[1])

    def round(self, workers: dict, first: bool, trace: bool) -> dict:
        ck = self.ck
        fit = self._stage(workers, "fit", {"op": "fit", "steps": FIT_STEPS, "seed": self.seed},
                          [], trace)
        if first and not (fit.get("finite") and fit.get("n") == FIT_STEPS + 1
                          and fit.get("last", 1.0) < fit.get("first", 0.0)):
            ck.fail(FIT_STEPS, f"fit: loss curve not finite or not decreasing: {fit}")
        fb = self._stage(workers, "fwd_bwd",
                         {"op": "fwd_bwd", "calls": FWD_BWD_CALLS, "seed": self.seed}, [], trace)
        if first and not (fb.get("shape") == [256, 8] and fb.get("loss_matches")
                          and fb.get("grad_rel_err", 1.0) < 1e-5):
            ck.fail(FWD_BWD_CALLS, f"fwd_bwd: output or gradient check failed: {fb}")
        gc = self._stage(workers, "grad-check", {"op": "cli", "argv": ["grad-check"]}, [], trace)
        if first and (gc.get("stdout", "").count("seed ") != 5
                      or "PASS" not in gc.get("stdout", "")):
            ck.fail(5, f"grad-check: {gc.get('stdout')}")
        return {"fit": fit, "fwd_bwd": fb, "grad-check": gc}


PIPELINES = {"caption_web": CaptionWeb, "grounded_sft": GroundedSft,
             "resampler_fit": ResamplerFit}


def _matmuls(d: int, gh: int, gw: int, nq: int, heads: int) -> tuple[tuple, tuple]:
    """(flops, bytes) of the forward and the backward matmuls, from the shapes.

    A (m, k) @ (k, n) product counts 2mkn FLOPs and moves its two operands
    and its result once, in float64.
    """
    nk, dh = gh * gw, d // heads

    def mm(*shapes):
        return (sum(2 * m * k * n for m, k, n in shapes),
                sum(8 * (m * k + k * n + m * n) for m, k, n in shapes))

    fwd = mm((nq, d, d), (nk, d, d), (nk, d, d), (nq, d, d),
             *[(nq, dh, nk), (nq, nk, dh)] * heads)
    bwd = mm((d, nq, d), (nq, d, d), (nq, d, d), (d, nq, d), (d, nk, d), (d, nk, d),
             *[(nq, dh, nk), (nk, nq, dh), (nq, nk, dh), (nk, nq, dh)] * heads)
    return fwd, bwd


# ---------------------------------------------------------------------------
# metrics

def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _per(total: float, denom: float, scale: float = 1.0) -> float:
    return total / denom * scale if denom else 0.0


def stage_metrics(p: Pipeline, walls: dict[str, list[float]],
                  failed_share: float) -> dict[str, float]:
    """Per-stage throughput from untraced rounds; 0 where a stage is absent."""
    med = {s: _median(v) for s, v in walls.items()}
    n = p.records_in
    build = [s for s in ("build-task", "build-chat") if s in med]
    data = [s for s in p.stages if s in DATA_STAGES]
    return {
        "pipeline_rec_per_s": _per(p.input_records, sum(med[s] for s in data)),
        "clean_rec_per_s": _per(n.get("clean", 0), med.get("clean", 0)),
        "build_rec_per_s": _per(sum(n.get(s, 0) for s in build), sum(med[s] for s in build)),
        "check_markup_rec_per_s": _per(n.get("check-markup", 0), med.get("check-markup", 0)),
        "pack_rec_per_s": _per(n.get("pack", 0), med.get("pack", 0)),
        "token_bytes_per_rec": p.exact.get("token_bytes_per_rec", 0.0),
        "pack_fill_ratio": p.exact.get("pack_fill_ratio", 0.0),
        "fit_steps_per_s": _per(FIT_STEPS, med.get("fit", 0)),
        "large_fwd_bwd_per_s": _per(FWD_BWD_CALLS, med.get("fwd_bwd", 0)),
        "grad_check_s": med.get("grad-check", 0.0),
        "failed_share": failed_share,
    }


def _scaled(summary: dict, factor: float) -> dict:
    """A tracer summary with every time multiplied by ``factor``."""
    return {"names": {k: [v[0], v[1] * factor, v[2] * factor]
                      for k, v in summary["names"].items()},
            "layers": {k: v * factor for k, v in summary["layers"].items()}}


def layer_metrics(p: Pipeline, summaries: dict[str, dict]) -> dict[str, float]:
    """Per-layer numbers from one traced round (stage -> tracer summary)."""
    m: dict[str, float] = {}
    total: dict[str, list[int]] = {}
    used_in: dict[str, int] = {}  # span name -> input records of the stages calling it
    for stage, summary in summaries.items():
        for name, (calls, incl, self_ns) in summary["names"].items():
            t = total.setdefault(name, [0, 0, 0])
            t[0] += calls
            t[1] += incl
            t[2] += self_ns
            used_in[name] = used_in.get(name, 0) + p.records_in[stage]
    n = p.records_in

    def incl(name):
        return total.get(name, [0, 0, 0])[1]

    def calls(name):
        return total.get(name, [0, 0, 0])[0]

    for s in DATA_STAGES:
        names = summaries[s]["names"] if s in summaries else {}
        m[f"cli.{s}.self_s"] = sum(v[2] for k, v in names.items() if k.startswith("cli.")) / 1e9
        for what in ("decode", "encode"):
            m[f"cli.{s}.json_{what}.us_per_rec"] = _per(
                names.get(f"cli.json_{what}", [0, 0])[1], n.get(s, 0), 1e-3)
        for io in ("in", "out"):
            m[f"cli.{s}.bytes_{io}_per_rec"] = p.exact.get(f"cli.{s}.bytes_{io}_per_rec", 0.0)
    for fn in ("filter_pair", "check_special_tags", "clean_html_text", "from_json"):
        m[f"filters.{fn}.us_per_rec"] = _per(incl(f"filters.{fn}"), n.get("clean", 0), 1e-3)
    for rule in DROP_RULES:
        m[f"filters.drops.{rule}"] = p.exact.get(f"filters.drops.{rule}", 0)
    for fn in ("parse_markup", "emit_markup"):
        name = f"grounding.{fn}"
        m[f"{name}.us_per_rec"] = _per(incl(name), used_in.get(name, 0), 1e-3)
    for task in gen.TASKS:
        name = f"chat.build_task_sample.{task}"
        m[f"{name}.us_per_rec"] = _per(incl(name), calls(name), 1e-3)
    m["chat.build_chatml.us_per_rec"] = _per(incl("chat.build_chatml"),
                                             n.get("build-chat", 0), 1e-3)
    m["tokenizer.project_mask.us_per_rec"] = _per(incl("tokenizer.project_mask"),
                                                  calls("tokenizer.project_mask"), 1e-3)
    m["tokenizer.tokens_per_rec"] = p.exact.get("tokenizer.tokens_per_rec", 0.0)
    m["packing.pack.us_per_sample"] = _per(incl("packing.pack"), n.get("pack", 0), 1e-3)
    m["packing.utilization_report.ms"] = _per(incl("packing.utilization_report"),
                                              calls("packing.utilization_report"), 1e-6)
    m["packing.sequences_out"] = p.exact.get("packing.sequences_out", 0)
    for kind in ("forward", "backward"):
        for shape in ("small", "large"):
            name = f"resampler.{kind}.{shape}"
            m[f"resampler.{kind}.ms.{shape}"] = _per(incl(name), calls(name), 1e-6)
    fit = summaries.get("fit", {"names": {}})["names"]
    steps = fit.get("optim.adamw_step", [0])[0]
    m["resampler.forward_calls_per_step"] = _per(
        fit.get("resampler.forward.small", [0])[0], steps + 1 if steps else 0)
    m["resampler.flops_per_step"] = p.exact.get("resampler.flops_per_step", 0)
    m["resampler.bytes_per_step"] = p.exact.get("resampler.bytes_per_step", 0)
    m["optim.adamw_step.us"] = _per(incl("optim.adamw_step"), calls("optim.adamw_step"), 1e-3)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(s["layers"].get(layer, 0) for s in summaries.values()) / 1e9
    return m


# ---------------------------------------------------------------------------
# driver

def _declared() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, Checker]:
    out = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    ck = Checker()
    p: Pipeline = PIPELINES[workload](out, seed, ck)
    p.prepare()

    # Every process of the run shares one core, so an operation and the
    # reference computation bracketing it see the same neighbours.
    cores = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cores)})
    workers: dict[str, Worker] = {}
    probes: list[Worker] = []

    def probe() -> None:
        probes.append(Worker("probe", p.config))
        probes[-1].close()

    try:
        probe()  # warms the bytecode cache; not counted
        for stage in p.stages:
            workers[stage] = Worker(stage, p.config, out / f"spans-{stage}.jsonl")
        env = workers[p.stages[0]].call({"op": "env"})

        rounds: dict[bool, list[dict]] = {False: [], True: []}  # traced? -> replies
        try:
            p.round(workers, first=True, trace=False)  # warm-up, every output checked
        except (OSError, ValueError, KeyError, TypeError) as e:
            # A stage that failed leaves missing or unreadable outputs.
            ck.fail(1, f"warm-up round: outputs missing or malformed: {e!r}")
        t0 = time.perf_counter()
        while not ck.failed and (len(rounds[False]) + len(rounds[True]) < MIN_ROUNDS
                                 or time.perf_counter() - t0 < seconds):
            traced = trace and len(rounds[False]) > len(rounds[True])
            rounds[traced].append(p.round(workers, first=False, trace=traced))
            if len(rounds[traced]) % 2:
                probe()  # set-up samples spread over the run
        measured_s = time.perf_counter() - t0
        for w in workers.values():
            w.close()
    finally:
        for w in [*workers.values(), *probes]:
            w.kill()

    spawned = [*probes[1:], *workers.values()]
    setup = [normalised(w.setup_wall_s, w.ref_s) for w in spawned]
    walls = {t: [{s: normalised(r["wall_s"], r["ref_s"]) for s, r in rnd.items()}
                 for rnd in rs] for t, rs in rounds.items()}
    per_stage = {s: [r[s] for r in walls[False]] for s in p.stages}
    rss = max(w.peak_rss_mb for w in workers.values())
    failed_share = ck.failed / max(p.attempted, 1)
    metrics = {
        "setup_s": _median(setup),
        "pass_s": _median([sum(r.values()) for r in walls[False]]),
        "peak_rss_mb": rss,
        "setup_wall_s": _median([w.setup_wall_s for w in spawned]),
        "pass_wall_s": _median([sum(r["wall_s"] for r in rnd.values())
                                for rnd in rounds[False]]),
    }
    metrics.update(stage_metrics(p, per_stage, failed_share))
    if trace and rounds[True]:
        summaries = [{s: _scaled(r["trace"], normalised(1.0, r["ref_s"]))
                      for s, r in rnd.items()} for rnd in rounds[True]]
        for rnd in summaries:
            names = {n for s in rnd.values() for n in s["names"]}
            missing = [n for n in REQUIRED_SPANS[workload] if n not in names]
            if missing:
                raise BenchError(f"traced round recorded no calls to {missing}; "
                                 f"a layer function was renamed or bypassed")
        per_round = [layer_metrics(p, rnd) for rnd in summaries]
        for name in per_round[0]:
            metrics[name] = _median([r[name] for r in per_round])
        traced_pass = _median([sum(r.values()) for r in walls[True]])
        metrics["trace.overhead_s"] = traced_pass - metrics["pass_s"]
        metrics["trace.overhead_pct"] = _per(metrics["trace.overhead_s"], metrics["pass_s"], 100)
    result = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "environment": {**env, "cpu_count": os.cpu_count(), "usable_cores": len(cores),
                        "pinned_core": max(cores)},
        "input_records": p.input_records, "input_bytes": p.input_bytes,
        "records_in": p.records_in, "rounds": len(walls[False]) + len(walls[True]),
        "measured_s": measured_s, "setup_samples": setup,
        "attempted": p.attempted, "failed": ck.failed, "problems": ck.problems,
        "metrics": metrics,
        "raw_setup": [[w.setup_wall_s, *w.ref_s] for w in spawned],
        "raw_rounds": {str(t): [{s: [r["wall_s"], *r["ref_s"]] for s, r in rnd.items()}
                                for rnd in rs] for t, rs in rounds.items()},
    }
    for f in out.glob("*.jsonl"):
        if not f.name.startswith("spans-"):
            f.unlink()
    (out / "result.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    return result, ck


# Raw (not normalised) medians, printed beside the metrics BENCHMARK.json lists.
UNITS = {"setup_wall_s": "s", "pass_wall_s": "s"}


def _print_table(result: dict, units: dict[str, str]) -> None:
    env = result["environment"]
    print(f"workload {result['workload']} seed {result['seed']} trace {result['trace']}: "
          f"{result['input_records']} input records, {result['input_bytes']} bytes; "
          f"{result['rounds']} rounds in {result['measured_s']:.1f} s; "
          f"{len(result['setup_samples'])} setup samples")
    print(f"  env: python {env['python']}, numpy {env['numpy']}, blas {env['blas']}, "
          f"blas threads {env['blas_threads']}, cores {env['usable_cores']}/{env['cpu_count']}, "
          f"all processes on core {env['pinned_core']}")
    for name, value in result["metrics"].items():
        print(f"  {name:44s} {value:14.6g} {units.get(name, '')}")
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(PIPELINES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "vlprep" / "cli.py").is_file():
        print(f"benchmark: no vlprep sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        declared = _declared()
        result, ck = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"benchmark: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    kind = "per_layer" if args.trace else "end_to_end"
    units = {**UNITS, **declared["end_to_end"], **declared["per_layer"]}
    _print_table(result, units)
    wanted = declared[kind]
    missing = set(wanted) - set(result["metrics"])
    if missing and not ck.failed:
        print(f"benchmark: metrics not computed: {sorted(missing)}", file=sys.stderr)
        return 2
    line = {
        "correct": ck.failed == 0,
        "attempted": max(result["attempted"], 1),
        "failed": ck.failed,
        # After a failed check the run stops early; unmeasured metrics read 0.
        "metrics": {name: {"value": result["metrics"].get(name, 0.0), "unit": unit}
                    for name, unit in wanted.items()},
    }
    print(json.dumps(line))
    return 0 if ck.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
