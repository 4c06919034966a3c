"""Machine speed, measured next to every timing so timings can be normalised.

On a 2-vCPU Intel Xeon VM whose cores are shared with other tenants, the
same code ran up to 3x slower from one minute to the next, in CPU time as
much as in wall time, while the program did not change. Every timed
operation is therefore bracketed by a fixed pure-Python computation
(``reference``), run in the same process just before and just after it, and
reported as ``wall * REF_S / mean(reference times)``: seconds on a machine
where the reference takes ``REF_S``. Medians are then taken over these
normalised times. Raw wall and reference times are kept in each run's result
file.

On that VM (``clean`` on 1500 records, repeated for 200 s, medians over
windows of 15 runs) the median of raw times moved by up to 45% between
windows, the median of normalised times by up to 7%.
"""

from __future__ import annotations

import json
import re
import time

# About what ``reference`` takes on that VM when its cores are quiet.
REF_S = 0.018

_PATTERN = re.compile(r"(\w+) (\d+)")


def reference() -> float:
    """Seconds a fixed mix of JSON, regex and string work takes right now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(500):
        obj = {"id": f"r{i}", "words": [f"w{j} {j}" for j in range(20)], "n": i}
        text = json.dumps(obj, sort_keys=True)
        back = json.loads(text)
        acc += sum(len(m.group(1)) for m in map(_PATTERN.match, back["words"]) if m)
        acc += sum(ord(c) for c in text[:200])
    if acc <= 0:
        raise RuntimeError("reference computation went wrong")
    return time.perf_counter() - t0


def normalised(wall_s: float, ref_s: list[float]) -> float:
    """Wall seconds at the nominal speed, given the bracketing reference times."""
    return wall_s * REF_S * len(ref_s) / sum(ref_s)
