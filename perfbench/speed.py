"""Machine-speed reference: fixed kernels timed inside every measured child.

On a shared host the speed of the whole machine drifts by 20-70% over
tens of seconds to minutes (co-tenants contend for caches, memory and
cores; CPU time rises with wall time, so it is not steal).  A median over
one run cannot remove drift that lasts longer than the run.  So each
measured child also times reference kernels, which share no code with
the package, right after its CLI commands, and the run reports timings
rescaled to a fixed machine speed::

    rescaled = measured * REF_S / (median kernel time in that child)

``REF_S`` only sets the scale: it is about each kernel's time on a quiet
2-vCPU Xeon guest, so rescaled figures read close to that machine's wall
times.  A change to the package moves the rescaled figures exactly as it
moves the raw ones; the raw figures are printed beside them.

Drift does not slow all work alike: a scan over arrays of tens of MB
slows with cache and memory contention, interpreter-bound work with core
contention, and a kernel of the wrong kind makes the spread worse.  So
each part of a child is rescaled by a kernel of its own kind:

- set-up (imports, plan design) by the "python" kernel: dict updates,
  float formatting and parsing;
- ``replay`` by the "replay" kernel: parse a text row of phases, then a
  small grid scan of that one row, row after row, like its record parsing
  and one estimate per experiment;
- ``design``, whose time is the sidelobe scan, by the "sidelobe" kernel:
  the ambiguity sum over a chunk of range offsets, with 8 MB complex
  temporaries;
- ``simulate`` by the campaign's own kernel: a wrap-and-square grid scan
  over an array of the campaign's (trials per block x grid points) shape.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

import workloads as wl

PASSES = 10  # passes of each kernel in each child
SCAN_FREQS = 2  # frequencies per campaign scan pass: a few of the workload's N
SIDELOBE_POINTS = 1 << 14  # range offsets per sidelobe pass
REPLAY_ROWS = 200  # rows parsed and scanned per replay pass
# Reference seconds per pass of each kernel.
REF_S = {
    "python": 0.03,
    "sidelobe": 0.025,
    "replay": 0.03,
    "campaign-pf": 0.03,
    "campaign-fine": 0.05,
}
# The kernel that rescales each CLI command; simulate uses the workload's.
COMMAND_KERNEL = {"design": "sidelobe", "replay": "replay"}

_RNG_SEED = 12345


def _scan_pass(phases: np.ndarray, coef: np.ndarray, grid: np.ndarray) -> float:
    """Wrapped squared residuals summed over frequencies, minimum per row.

    ``phases`` and each model row lie in [-pi, pi), so a residual lies in
    (-2*pi, 2*pi) and its wrapped magnitude is min(|d|, 2*pi - |d|).
    """
    acc = np.zeros((phases.shape[0], grid.size))
    d = np.empty_like(acc)
    tmp = np.empty_like(acc)
    for i, k in enumerate(coef):
        model = np.remainder(k * grid + math.pi, 2.0 * math.pi) - math.pi
        np.subtract(phases[:, i : i + 1], model[None, :], out=d)
        np.abs(d, out=d)
        np.subtract(2.0 * math.pi, d, out=tmp)
        np.minimum(d, tmp, out=d)
        np.multiply(d, d, out=d)
        acc += d
    return float(acc.min(axis=1).sum())


def _python_pass() -> float:
    table: dict[int, float] = {}
    for i in range(100000):
        table[i % 997] = table.get(i % 997, 0.0) + math.sin(i) * 0.5
    text = ",".join(repr(v) for v in table.values())
    return sum(float(x) for x in text.split(","))


def _sidelobe_pass(dq: np.ndarray, coef: np.ndarray) -> float:
    s = np.exp(1j * np.multiply.outer(dq, coef)).sum(axis=-1)
    return float((s.real**2 + s.imag**2).max())


def _replay_pass(lines: list[str], coef: np.ndarray, grid: np.ndarray) -> int:
    model = np.remainder(np.multiply.outer(grid, coef) + math.pi, 2.0 * math.pi) - math.pi
    total = 0
    for line in lines:
        phases = np.array([float(x) for x in line.split(",")])
        d = np.abs(phases[None, :] - model)
        d = np.minimum(d, 2.0 * math.pi - d)
        total += int(np.argmin((d * d).sum(axis=1)))
    return total


def kernel(name: str):
    """A zero-argument callable: one pass of the kernel ``name``."""
    if name == "python":
        return _python_pass
    if name == "sidelobe":
        r = wl.REPLAY
        freqs = r.f1_hz + (r.b_hz / (r.n - 1)) * np.arange(r.n)
        coef = (2.0 * math.pi / 299792458.0) * freqs
        dq = 15.0 + (299792458.0 / freqs[-1] / 20.0) * np.arange(SIDELOBE_POINTS)
        return lambda: _sidelobe_pass(dq, coef)
    rng = np.random.default_rng(_RNG_SEED)
    if name == "replay":
        r = wl.REPLAY
        coef = (2.0 * math.pi / 299792458.0) * (r.f1_hz + (r.b_hz / (r.n - 1)) * np.arange(r.n))
        grid = r.lo_m + wl.STEP_M * np.arange(wl.grid_points(r.lo_m, r.hi_m))
        rows = rng.uniform(-math.pi, math.pi, (REPLAY_ROWS, r.n))
        lines = [",".join(repr(float(x)) for x in row) for row in rows]
        return lambda: _replay_pass(lines, coef, grid)
    coef = (2.0 * math.pi / 299792458.0) * (400e6 + 1e6 * np.arange(SCAN_FREQS))
    camp = wl.CAMPAIGNS[name]
    grid = camp.lo_m + wl.STEP_M * np.arange(wl.grid_points(camp.lo_m, camp.hi_m))
    phases = rng.uniform(-math.pi, math.pi, (camp.trials, SCAN_FREQS))
    return lambda: _scan_pass(phases, coef, grid)


def command_kernel(workload: str, command: str) -> str:
    return COMMAND_KERNEL.get(command, workload)


def _passes(name: str) -> list[float]:
    one = kernel(name)
    one()  # warm-up: first-touch page faults and numpy's first calls
    out = []
    for _ in range(PASSES):
        t = time.perf_counter()
        one()
        out.append(time.perf_counter() - t)
    return out


def sample(workload: str, commands: list[str]) -> dict[str, list[float]]:
    """Seconds per pass of the set-up kernel and of each command's kernel."""
    names = dict.fromkeys(["python"] + [command_kernel(workload, c) for c in commands])
    return {name: _passes(name) for name in names}


def factors(samples: dict[str, list[float]]) -> dict[str, float]:
    """Multiplier per kernel that rescales a child's times to the reference speed."""
    return {name: REF_S[name] / statistics.median(ts) for name, ts in samples.items()}
