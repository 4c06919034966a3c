"""Spans recorded from outside the program, around its public layer functions.

The tracer replaces names in the namespaces that call them (``vlprep.cli``,
``vlprep.chat``, ``vlprep.demo``, ``vlprep.resampler``) with wrappers that
record a span per call, and puts the originals back afterwards. Nothing in
the program changes; untraced runs call the originals directly.

A span is ``[name, start_ns, end_ns, parent_index, record_id]``. The record
id is the ``id`` of the input record decoded most recently by the stage (or
the training step, for the resampler), so the spans of one record share it.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Callable, Iterator, Optional


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.record_id = None

    def wrap(self, name: str, fn: Callable, suffix: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` so each call records a span; ``suffix(args)`` refines the name."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name if suffix is None else f"{name}.{suffix(args)}", 0, 0,
                    stack[-1] if stack else -1, self.record_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def wrap_decode(self, fn: Callable) -> Callable:
        """``json.loads`` wrapper that also moves the current record id."""
        traced = self.wrap("cli.json_decode", fn)

        def decode(*args, **kwargs):
            obj = traced(*args, **kwargs)
            if isinstance(obj, dict) and "id" in obj:
                self.record_id = obj["id"]
                self.spans[-1][4] = self.record_id
            return obj

        return decode

    def summary(self) -> dict:
        """Per span name: calls, inclusive ns, self ns; per layer: self ns."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        names: dict[str, list[int]] = {}
        layers: dict[str, int] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = names.setdefault(name, [0, 0, 0])
            dur = end - start
            entry[0] += 1
            entry[1] += dur
            entry[2] += dur - child_ns[i]
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0) + dur - child_ns[i]
        return {"names": names, "layers": layers}

    def write(self, path: str) -> None:
        """Write the spans as JSON Lines, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, record_id in self.spans:
                f.write(json.dumps({"name": name, "start_ns": start - t0,
                                    "end_ns": end - t0, "parent": parent,
                                    "record": record_id}) + "\n")


class _JsonProxy:
    """Stands in for the ``json`` module inside ``vlprep.cli``."""

    def __init__(self, tracer: Tracer) -> None:
        self.loads = tracer.wrap_decode(json.loads)
        self.dumps = tracer.wrap("cli.json_encode", json.dumps)

    def __getattr__(self, name):
        return getattr(json, name)


def _cfg_shape(cfg, large: tuple[int, int, int]) -> str:
    return "large" if (cfg.grid_h, cfg.grid_w, cfg.n_queries) == large else "small"


@contextmanager
def installed(tracer: Tracer, large_shape: tuple[int, int, int]) -> Iterator[None]:
    """Wrap every traced layer function for the duration of the block."""
    import vlprep.chat as chat
    import vlprep.cli as cli
    import vlprep.demo as demo
    import vlprep.resampler as resampler
    from vlprep.filters import CorpusRecord

    w = tracer.wrap
    from_json = CorpusRecord.__dict__["from_json"]
    targets = [
        (cli, "json", _JsonProxy(tracer)),
        (CorpusRecord, "from_json",
         classmethod(w("filters.from_json", from_json.__func__))),
        (cli, "filter_pair", w("filters.filter_pair", cli.filter_pair)),
        (cli, "check_special_tags", w("filters.check_special_tags", cli.check_special_tags)),
        (cli, "clean_html_text", w("filters.clean_html_text", cli.clean_html_text)),
        (cli, "build_task_sample",
         w("chat.build_task_sample", cli.build_task_sample, lambda a: a[0])),
        (cli, "build_chatml", w("chat.build_chatml", cli.build_chatml)),
        (cli, "make_turn", w("chat.make_turn", cli.make_turn)),
        (cli, "project_mask", w("tokenizer.project_mask", cli.project_mask)),
        (cli, "parse_markup", w("grounding.parse_markup", cli.parse_markup)),
        (cli, "emit_markup", w("grounding.emit_markup", cli.emit_markup)),
        (chat, "parse_markup", w("grounding.parse_markup", chat.parse_markup)),
        (chat, "emit_markup", w("grounding.emit_markup", chat.emit_markup)),
        (cli, "pack", w("packing.pack", cli.pack)),
        (cli, "utilization_report", w("packing.utilization_report", cli.utilization_report)),
        (cli, "grad_check", w("resampler.grad_check", cli.grad_check)),
        (resampler, "forward_with_cache",
         w("resampler.forward", resampler.forward_with_cache,
           lambda a: _cfg_shape(a[2], large_shape))),
        (resampler, "backward",
         w("resampler.backward", resampler.backward,
           lambda a: _cfg_shape(a[0]["cfg"], large_shape))),
        (resampler, "loss_and_grads", w("resampler.loss_and_grads", resampler.loss_and_grads)),
        (demo, "forward_with_cache",
         w("resampler.forward", demo.forward_with_cache,
           lambda a: _cfg_shape(a[2], large_shape))),
        (demo, "backward",
         w("resampler.backward", demo.backward,
           lambda a: _cfg_shape(a[0]["cfg"], large_shape))),
        (demo, "adamw_step", _step_counter(tracer, w("optim.adamw_step", demo.adamw_step))),
        (demo, "overfit_demo", w("demo.overfit_demo", demo.overfit_demo)),
    ]
    saved = [(obj, attr, obj.__dict__[attr]) for obj, attr, _ in targets]
    try:
        for obj, attr, wrapper in targets:
            setattr(obj, attr, wrapper)
        yield
    finally:
        for obj, attr, original in saved:
            setattr(obj, attr, original)


def _step_counter(tracer: Tracer, traced_step: Callable) -> Callable:
    """Each optimizer step starts the next training step's record id."""

    def step(*args, **kwargs):
        out = traced_step(*args, **kwargs)
        tracer.record_id = (tracer.record_id or 0) + 1
        return out

    return step
