"""The benchmark's tracer, loaded as the harness loads it.

``perfbench/spans.py`` replaces program functions by name (``cli.filter_pair``,
``cli.clean_html_text``, ``CorpusRecord.from_json``, ...). Entering its block
here makes a rename or move of any of them fail this suite, not only the
traced benchmark runs.
"""

import importlib.util
from pathlib import Path

import vlprep.cli as cli
from vlprep.filters import CorpusRecord, FilterConfig

ROOT = Path(__file__).resolve().parents[1]


def load_spans():
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_tracer_wraps_the_program_functions_and_restores_them():
    spans = load_spans()
    original = cli.filter_pair
    tracer = spans.Tracer()
    with spans.installed(tracer, (32, 32, 256)):
        assert cli.filter_pair is not original
        record = CorpusRecord(id="r0", text="a cat on a sofa", dataset="laion-en",
                              image_width=512, image_height=512, language="en")
        assert cli.filter_pair(record, FilterConfig()).decision == "keep"
    assert cli.filter_pair is original
    assert [span[0] for span in tracer.spans] == ["filters.filter_pair"]
