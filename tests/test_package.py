"""The package surface: what ``import vlprep`` loads, and what its names are.

Each check that depends on what is already imported runs in a fresh
interpreter, as ``_NUMPY_PROBE`` in ``test_cli.py`` does.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import vlprep

MODULES = sorted(p.stem for p in Path(vlprep.__file__).parent.glob("*.py") if p.stem != "__init__")


def probe(code):
    """The JSON that ``code`` prints, run in a fresh interpreter after ``import vlprep``."""
    proc = subprocess.run([sys.executable, "-c", "import json, sys\nimport vlprep\n" + code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("statement, loaded", [
    ("", ["vlprep"]),
    ("import vlprep.packing", ["vlprep", "vlprep.packing", "vlprep.values"]),
])
def test_an_import_loads_only_the_modules_it_needs(statement, loaded):
    assert probe(statement + '\nprint(json.dumps(sorted(m for m in sys.modules'
                 ' if m.partition(".")[0] == "vlprep")))') == loaded


def test_every_module_is_an_attribute_after_a_bare_import():
    assert {"cli", "demo", "optim"} <= set(MODULES)  # the glob found the package
    assert probe(f"print(json.dumps([getattr(vlprep, m) is sys.modules['vlprep.' + m]"
                 f" for m in {MODULES!r}]))") == [True] * len(MODULES)


def test_every_exported_name_is_the_object_its_module_defines_cached_on_first_use():
    homes = probe("""
homes = {}
for name in vlprep.__all__:
    obj = getattr(vlprep, name)
    same = getattr(sys.modules[obj.__module__], name) is obj
    homes[name] = obj.__module__ if same and vars(vlprep).get(name) is obj else None
print(json.dumps(homes))
""")
    assert list(homes) == sorted(homes) == vlprep.__all__
    assert all(home in {f"vlprep.{m}" for m in MODULES} for home in homes.values()), homes


def test_dir_and_star_import_hold_every_exported_name():
    listed, bound = probe("""
listed = dir(vlprep)
names = {}
exec("from vlprep import *", names)
print(json.dumps([listed, sorted(set(names) - {"__builtins__"})]))
""")
    assert set(vlprep.__all__) <= set(listed)
    assert bound == vlprep.__all__


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        vlprep.no_such_name
    with pytest.raises(ImportError, match="'no_such_name'"):
        from vlprep import no_such_name  # noqa: F401
