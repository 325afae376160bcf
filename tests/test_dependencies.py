"""The package imports only the standard library, numpy and itself.

``pyproject.toml`` declares numpy as the one run-time dependency; scipy may
be installed beside it, but nothing under ``src/mfirange`` may use it.  Of
numpy, the commands' hot paths load no submodule that ``import numpy``
leaves unloaded, such as ``numpy.ma``.
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


def test_sidelobe_scan_and_record_parse_leave_numpy_ma_unimported(tmp_path):
    # numpy.ma costs a cold command about 13 ms and 0.5 MB to import, and
    # numpy functions such as np.median import it on first use.
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from mfirange import Experiment, FrequencyPlan, read_record, sidelobe_scan, write_record\n"
        "plan = FrequencyPlan(f1=410e6, resolution=65.0, spacings=(7400, 8200, 9400))\n"
        "sidelobe_scan(plan)\n"
        "path = sys.argv[1]\n"
        "write_record(path, plan, [Experiment('e1', np.array([0.1, -0.2, 0.3, 3.0]), 1.5)])\n"
        "assert len(read_record(path).experiments) == 1\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "r.csv")],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert out.stdout.strip() == "False"
