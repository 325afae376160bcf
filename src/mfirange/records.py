"""Recorded phase file format, and the plan-header codec it shares with
plan files.

A frequency plan is pinned by four header keys: ``f1_hz``,
``resolution_hz``, ``spacings_grid`` (comma-separated integer spacings in
grid units) and ``c_mode`` (``exact``, ``paper-repro`` or a speed in m/s;
``exact`` when absent).  :func:`plan_header` and :func:`plan_from_header`
map a plan to and from these pairs; plan files (``key = value`` lines,
see the CLI) and phase records each keep their own line syntax around
them.

A phase record is a UTF-8 CSV: a '#'-prefixed header block with the plan
keys, followed by data rows ``experiment_id,freq_hz,phase_rad[,q0_m]``.
Every experiment id must cover all N plan frequencies exactly once;
phases are wrapped to (-pi, pi].  Ground-truth q0 per experiment is
optional but must be consistent across its rows when present.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import C_EXACT, C_PAPER, FrequencyPlan

C_MODES = {"exact": C_EXACT, "paper-repro": C_PAPER}


class RecordFormatError(ValueError):
    """Malformed phase record file; the message names the offending row/id."""


def c_mode_name(c: float) -> str:
    for name, value in C_MODES.items():
        if c == value:
            return name
    return repr(c)


def plan_header(plan: FrequencyPlan) -> list[tuple[str, str]]:
    """The (key, value) header pairs that pin ``plan``."""
    return [
        ("f1_hz", repr(plan.f1)),
        ("resolution_hz", repr(plan.resolution)),
        ("spacings_grid", ",".join(str(k) for k in plan.spacings)),
        ("c_mode", c_mode_name(plan.c)),
    ]


def plan_from_header(fields: Mapping[str, str]) -> FrequencyPlan:
    """The plan that parsed header fields pin; raises ValueError naming the
    missing keys or the bad value."""
    missing = [k for k in ("f1_hz", "resolution_hz", "spacings_grid") if k not in fields]
    if missing:
        raise ValueError(f"missing keys {missing}")
    c_text = fields.get("c_mode", "exact")
    try:
        c = C_MODES[c_text] if c_text in C_MODES else float(c_text)
    except ValueError:
        raise ValueError(f"unknown c_mode {c_text!r}") from None
    return FrequencyPlan(
        f1=float(fields["f1_hz"]),
        resolution=float(fields["resolution_hz"]),
        spacings=tuple(int(s) for s in fields["spacings_grid"].split(",")),
        c=c,
    )


@dataclass(frozen=True)
class Experiment:
    """One experiment: phases ordered by ascending plan frequency."""

    experiment_id: str
    phases: np.ndarray
    q0: float | None = None


@dataclass(frozen=True)
class PhaseRecord:
    plan: FrequencyPlan
    experiments: tuple[Experiment, ...]


def write_record(path, plan: FrequencyPlan, experiments: Sequence[Experiment]) -> None:
    """Write a phase record file for a plan and a list of experiments."""
    freqs = plan.frequencies
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("# mfirange phase record\n")
        for key, value in plan_header(plan):
            fh.write(f"# {key} = {value}\n")
        fh.write("# columns: experiment_id,freq_hz,phase_rad[,q0_m]\n")
        writer = csv.writer(fh)
        for exp in experiments:
            phases = np.asarray(exp.phases, dtype=float)
            if phases.size != plan.n:
                raise ValueError(f"experiment {exp.experiment_id}: needs {plan.n} phases")
            for f, ph in zip(freqs, phases):
                row = [exp.experiment_id, repr(float(f)), repr(float(ph))]
                if exp.q0 is not None:
                    row.append(repr(float(exp.q0)))
                writer.writerow(row)


def _parse_header(lines: list[str]) -> FrequencyPlan:
    fields: dict[str, str] = {}
    for line in lines:
        body = line.lstrip("#").strip()
        if "=" in body:
            key, _, value = body.partition("=")
            fields[key.strip()] = value.strip()
    try:
        return plan_from_header(fields)
    except ValueError as exc:
        raise RecordFormatError(f"bad plan header: {exc}") from exc


def read_record(path) -> PhaseRecord:
    """Parse and validate a phase record file."""
    header: list[str] = []
    rows: list[list[str]] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                header.append(line)
            else:
                rows.append(next(csv.reader([line])))
    plan = _parse_header(header)
    freqs = plan.frequencies
    by_id: dict[str, dict] = {}
    order: list[str] = []
    for lineno, row in enumerate(rows, start=1):
        if len(row) not in (3, 4):
            raise RecordFormatError(f"data row {lineno}: expected 3 or 4 fields, got {len(row)}")
        exp_id = row[0]
        try:
            f = float(row[1])
            ph = float(row[2])
            q0 = float(row[3]) if len(row) == 4 else None
        except ValueError as exc:
            raise RecordFormatError(f"data row {lineno}: {exc}") from exc
        if not (-math.pi < ph <= math.pi) or not math.isfinite(ph):
            raise RecordFormatError(
                f"experiment {exp_id}: phase {ph} at {f} Hz outside (-pi, pi]"
            )
        idx = int(np.argmin(np.abs(freqs - f)))
        if abs(freqs[idx] - f) > max(1e-3, 1e-9 * freqs[idx]):
            raise RecordFormatError(
                f"experiment {exp_id}: frequency {f} Hz matches no plan frequency"
            )
        if exp_id not in by_id:
            by_id[exp_id] = {"phases": np.full(plan.n, np.nan), "q0": q0}
            order.append(exp_id)
        slot = by_id[exp_id]
        if not math.isnan(slot["phases"][idx]):
            raise RecordFormatError(
                f"experiment {exp_id}: frequency {freqs[idx]} Hz appears more than once"
            )
        slot["phases"][idx] = ph
        if q0 is not None:
            if slot["q0"] is not None and slot["q0"] != q0:
                raise RecordFormatError(f"experiment {exp_id}: inconsistent q0 values")
            slot["q0"] = q0
    experiments = []
    for exp_id in order:
        slot = by_id[exp_id]
        missing = np.isnan(slot["phases"])
        if missing.any():
            absent = ", ".join(repr(float(f)) for f in freqs[missing])
            raise RecordFormatError(
                f"experiment {exp_id}: missing phase rows for frequencies {absent}"
            )
        experiments.append(
            Experiment(experiment_id=exp_id, phases=slot["phases"], q0=slot["q0"])
        )
    return PhaseRecord(plan=plan, experiments=tuple(experiments))
