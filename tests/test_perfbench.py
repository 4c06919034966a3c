"""The benchmark's tracer and config set-up, loaded as the harness loads them.

``perfbench/spans.py`` replaces program functions by name (``cli.filter_pair``,
``cli.clean_html_text``, ``CorpusRecord.from_json``, ...). Entering its block
here makes a rename or move of any of them fail this suite, not only the
traced benchmark runs. ``perfbench/worker.py`` builds the config classes from
gen's config files itself, so a change to those classes that breaks it fails
here too.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import vlprep.cli as cli
from vlprep.filters import CorpusRecord, FilterConfig

ROOT = Path(__file__).resolve().parents[1]


def load(name):
    """``perfbench/NAME.py``, which is not on sys.path, as module ``perfbench_NAME``."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # gen's dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_the_program_functions_and_restores_them():
    spans = load("spans")
    original = cli.filter_pair
    tracer = spans.Tracer()
    with spans.installed(tracer, (32, 32, 256)):
        assert cli.filter_pair is not original
        record = CorpusRecord(id="r0", text="a cat on a sofa", dataset="laion-en",
                              image_width=512, image_height=512, language="en")
        assert cli.filter_pair(record, FilterConfig()).decision == "keep"
    assert cli.filter_pair is original
    assert [span[0] for span in tracer.spans] == ["filters.filter_pair"]


@pytest.mark.parametrize("workload", ["caption_web", "grounded_sft"])
def test_harness_builds_every_stage_config_from_gens_config_file(tmp_path, workload):
    gen, worker = load("gen"), load("worker")
    wl = gen.caption_web(10, 1) if workload == "caption_web" else gen.grounded_sft(10, 2, 10, 1)
    config = tmp_path / "config.json"  # as run.py writes it
    config.write_text(json.dumps(wl.configs), encoding="utf-8")
    worker._configs(str(config))
