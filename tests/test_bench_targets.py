"""The names the benchmark's traced run wraps still exist.

``perfbench/run.py --trace 1`` wraps each (module, attribute) pair of
``tracing.patch_targets()`` with ``getattr``/``setattr``, so renaming or
removing one of those package attributes breaks the traced run without
failing any other test.  The check runs in a child process, with
``perfbench/`` and ``src/`` first on ``sys.path``, as the benchmark runs.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracing
targets = tracing.patch_targets()
missing = [f"{m.__name__}.{a}" for m, a, *_ in targets if not callable(getattr(m, a, None))]
print(len(targets), *missing)
"""


def test_every_traced_attribute_resolves():
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"), str(ROOT / "src")],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    count, *missing = out.stdout.split()
    assert missing == [] and int(count) >= 14
