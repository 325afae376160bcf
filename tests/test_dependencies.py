"""The package imports only the standard library, numpy and itself.

``pyproject.toml`` declares numpy as the one run-time dependency; scipy may
be installed beside it, but nothing under ``src/mfirange`` may use it.  Of
numpy, the commands' hot paths load no submodule that ``import numpy``
leaves unloaded, such as ``numpy.ma`` and ``numpy.random``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mfirange"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "mfirange"}


def imported_roots(path):
    """(line, top-level module) of every absolute import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_stdlib_numpy_or_the_package(path):
    bad = [f"{path.name}:{line}: {root}" for line, root in imported_roots(path) if root not in ALLOWED]
    assert not bad


def test_the_guard_sees_a_foreign_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import os\nfrom scipy import special\nfrom . import core\n")
    assert [root for _, root in imported_roots(probe)] == ["os", "scipy"]


_SETUP = (
    "import sys\n"
    "import numpy as np\n"
    "from mfirange import Experiment, FrequencyPlan, read_record, sidelobe_scan, write_record\n"
    "from mfirange.cli import main\n"
    "out = sys.argv[1]\n"
    "path = out + '/r.csv'\n"
    "plan = FrequencyPlan(f1=410e6, resolution=65.0, spacings=(7400, 8200, 9400))\n"
    "write_record(path, plan, [Experiment('e1', np.array([0.1, -0.2, 0.3, 3.0]), 1.5)])\n"
)
SCRIPTS = {
    "library": "sidelobe_scan(plan)\nassert len(read_record(path).experiments) == 1\n",
    "cli": (
        "assert main(['design', '--method', 'prime-min-error', '--f1', '410e6', '--B', '40.378e6',"
        " '--N', '31', '--res', '65', '--i', '12', '--c-mode', 'paper-repro', '--out', out]) == 0\n"
        "assert main(['replay', '--record', path, '--out', out, '--lo', '-3', '--hi', '3',"
        " '--step', '0.01']) == 0\n"
    ),
}


@pytest.mark.parametrize("body", SCRIPTS.values(), ids=SCRIPTS.keys())
def test_sidelobe_scan_and_record_parse_leave_numpy_ma_unimported(tmp_path, body):
    # numpy.ma costs a cold command about 13 ms and 0.5 MB to import, and
    # numpy functions such as np.median import it on first use; numpy.random
    # costs 6.2 MB of resident memory.  Run as library calls and as the
    # design and replay commands, neither is loaded.
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    script = _SETUP + body + "print('numpy.ma' in sys.modules, 'numpy.random' in sys.modules)\n"
    out = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert out.stdout.strip().splitlines()[-1] == "False False"
