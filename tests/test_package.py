"""The package surface: layers load on their own, and the README's
library tour runs as written."""

import ast
import json
import subprocess
import sys
from pathlib import Path

from rewbench.core import ZERO

ROOT = Path(__file__).resolve().parent.parent

_LOADED = """\
import importlib, json, sys
sys.path.insert(0, sys.argv[1])
importlib.import_module(sys.argv[2])
print(json.dumps([sorted(m for m in sys.modules if m.startswith("rewbench")),
                  [m for m in sys.argv[3:] if m in sys.modules]]))
"""


def _fresh_import(module, *watched):
    """The rewbench modules, and the ``watched`` ones, that importing
    ``module`` loads in a new interpreter."""
    proc = subprocess.run([sys.executable, "-c", _LOADED, str(ROOT / "src"),
                           module, *watched],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_importing_core_loads_only_core_and_matcher():
    assert _fresh_import("rewbench.core", "multiprocessing", "statistics") == [
        ["rewbench", "rewbench.core", "rewbench.matcher"], []]


def test_importing_cli_loads_no_process_pool():
    assert _fresh_import("rewbench.cli", "concurrent.futures",
                         "multiprocessing")[1] == []


def test_importing_cli_loads_no_statistics():
    # only fit_power_law needs statistics, and no subcommand calls it
    assert _fresh_import("rewbench.cli", "statistics", "fractions",
                         "decimal")[1] == []


def test_readme_library_tour_gives_the_values_its_comments_state():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("```python\n", 1)[1].split("```", 1)[0]
    lines = tour.splitlines()
    namespace: dict = {}
    values, comments = [], []
    for stmt in ast.parse(tour).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), "README.md", "eval")
            values.append(eval(code, namespace))
            comments.append(lines[stmt.end_lineno - 1].split("#")[1].split()[0])
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert comments == ["'a'", "ZERO", "True", "0", "True", "4"]
    assert ["ZERO" if v is ZERO else repr(v) for v in values] == comments
