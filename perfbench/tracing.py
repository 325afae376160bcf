"""The traced run: per-layer spans recorded from the benchmark's own code.

Spans are opened around calls into the package's public functions.  The
benchmark wraps the module attributes those calls go through (for the
duration of a pass only), so calls the package makes internally, such as
``campaign_errors`` -> ``synth_trial_matrix``, nest as child spans without
any change to the package.  Spans stay in memory and are written out when
the run ends.  A span's self time is its duration minus its child spans
(all spans here run on one thread, so children never overlap).

A pass runs the workload's replica (the calls its CLI commands make) and
then probes: calls on the same inputs that time layers the replica does
not reach, so every layer metric exists on every workload.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import time
from pathlib import Path

import numpy as np

import checks as ck
import child
import workloads as wl

REFINE_HALF_STEPS = 5  # refine probe window: q0 +- 5 grid steps
LS_ESTIMATE_PROBE_CALLS = 40
RECORD_PROBE_EXPERIMENTS = 500
REPLAY_PROBE_TRIALS = 500


class Tracer:
    """In-memory spans: [name, start_ns, end_ns, parent index, run id, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.run_id = ""

    def _begin(self, name: str, counts=None) -> list:
        rec = [name, 0, 0, self._open[-1] if self._open else -1, self.run_id, counts]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        return rec

    def _end(self, rec: list) -> None:
        rec[2] = time.perf_counter_ns()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str, **counts):
        rec = self._begin(name, counts or None)
        try:
            yield rec
        finally:
            self._end(rec)

    def wrap(self, fn, name: str, count=None):
        """``fn`` with a span per call; ``count(args, kwargs, result)`` adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(rec)
            if count is not None:
                rec[5] = count(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Route calls through traced wrappers; restore the originals after."""
        saved = []
        try:
            for module, attr, name, count in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, count))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path: Path) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "run", "counts")
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


def _arg(args, kwargs, i, name):
    """Argument ``name`` of a wrapped call, passed by keyword or at position ``i``."""
    if name in kwargs:
        return kwargs[name]
    return args[i] if i < len(args) else None


def _batch_counts(args, kwargs, result):
    phases, plan, cfg = (_arg(args, kwargs, i, n) for i, n in enumerate(("phases", "plan", "cfg")))
    trials = len(phases)
    return {"trials": trials, "cells": trials * cfg.grid().size * plan.n, "refine": cfg.refine}


def _sidelobe_counts(args, kwargs, result):
    """Scan points x N, computed from the scan's documented defaults."""
    from mfirange.analysis import umr

    plan = _arg(args, kwargs, 0, "plan")
    width = _arg(args, kwargs, 1, "mainlobe_width") or plan.c / plan.bandwidth
    step = _arg(args, kwargs, 2, "step") or plan.lambda_min / 20.0
    return {"cells": (int((umr(plan) - width) / step) + 1) * plan.n}


def _read_rows(args, kwargs, result):
    return {"rows": len(result.experiments) * result.plan.n}


def _write_rows(args, kwargs, result):
    return {"rows": len(_arg(args, kwargs, 2, "experiments")) * _arg(args, kwargs, 1, "plan").n}


def patch_targets():
    """(module, attribute, span name, counter) for every traced layer call."""
    from mfirange import analysis, cli, design, estimator, montecarlo, records

    return [
        (montecarlo, "campaign_errors", "montecarlo.campaign_errors", None),
        (montecarlo, "synth_trial_matrix", "montecarlo.synth_trial_matrix",
         lambda a, k, r: {"trials": len(r)}),
        (montecarlo, "synth_phases", "core.synth_phases", None),
        (montecarlo, "ls_estimate_batch", "estimator.ls_estimate_batch", _batch_counts),
        (montecarlo, "rows_from_errors", "montecarlo.rows_from_errors", None),
        (analysis, "analyze", "analysis.analyze", None),
        (analysis, "sidelobe_scan", "analysis.sidelobe_scan", _sidelobe_counts),
        (design, "design_prime_min_error", "design.prime_min_error", None),
        (cli, "design_prime_min_error", "design.prime_min_error", None),
        (records, "read_record", "records.read_record", _read_rows),
        (cli, "read_record", "records.read_record", _read_rows),
        (records, "write_record", "records.write_record", _write_rows),
        (estimator, "ls_estimate", "estimator.ls_estimate", None),
        (cli, "ls_estimate", "estimator.ls_estimate", None),
    ]


def _config(camp_or_replay, refine=None):
    from mfirange.estimator import EstimatorConfig

    r = camp_or_replay
    return EstimatorConfig(
        search_lo=r.lo_m,
        search_hi=r.hi_m,
        step=wl.STEP_M,
        refine=r.refine if refine is None else refine,
    )


def replica(workload: str, input_path: Path, seed: int) -> None:
    """The public-function calls the workload's CLI commands make."""
    from mfirange import analysis, design, estimator, montecarlo, records
    from mfirange.core import C_PAPER, sigma_theta_from_snr_db

    if workload == "plan-replay":
        r = wl.REPLAY
        params = design.DesignParams(
            bandwidth=r.b_hz, n=r.n, resolution=r.res_hz, prime_index=r.prime_index
        )
        plan = design.design_prime_min_error(params, r.f1_hz, c=C_PAPER)
        # The design command reports at its default 10 dB.
        analysis.analyze(plan, sigma_theta=sigma_theta_from_snr_db(10.0), include_sidelobe=True)
        record = records.read_record(input_path)
        cfg = _config(r)
        for exp in record.experiments:
            estimator.ls_estimate(exp.phases, record.plan, cfg)
        return
    camp = wl.CAMPAIGNS[workload]
    spec = montecarlo.CampaignSpec.build(
        plans=wl.build_plans(workload),
        q0=wl.Q0_M,
        snr_grid=camp.snr_db,
        trials=camp.trials,
        seed=seed,
        estimator=_config(camp),
    )
    errors = montecarlo.campaign_errors(spec)
    for metric in ("mse", "pf") if camp.kind == "pf" else ("mse",):
        montecarlo.rows_from_errors(spec, errors, metric)


class ProbeInputs:
    """One phase block of the workload with its true ranges, plan and config."""

    def __init__(self, workload: str, input_path: Path, seed: int):
        from mfirange.core import NoiseModel
        from mfirange.montecarlo import synth_trial_matrix
        from mfirange.records import read_record

        if workload == "plan-replay":
            record = read_record(input_path)
            self.label, self.plan = wl.REPLAY_LABEL, record.plan
            self.phases = np.array([e.phases for e in record.experiments])
            self.q0 = np.array([e.q0 for e in record.experiments])
            self.snr_db = wl.REPLAY.snr_db
            self.cfg = _config(wl.REPLAY)
        else:
            camp = wl.CAMPAIGNS[workload]
            self.label, self.plan = next(iter(wl.build_plans(workload).items()))
            self.snr_db = camp.snr_db[0]
            noise = NoiseModel.phase_gaussian(snr_db=self.snr_db)
            self.phases = synth_trial_matrix(
                self.plan, wl.Q0_M, noise, seed, self.label, 0, camp.trials
            )
            self.q0 = np.full(camp.trials, wl.Q0_M)
            self.cfg = _config(camp)


def probes(tracer: Tracer, workload: str, p: ProbeInputs, seed: int, scratch: Path) -> None:
    """Time, on the workload's own inputs, the layers its replica skips."""
    from mfirange import analysis, design, estimator, montecarlo, records
    from mfirange.core import C_PAPER
    from mfirange.estimator import EstimatorConfig

    trials = len(p.phases)
    for workers in (1, 2):
        with tracer.span(f"probe.workers{workers}", trials=trials):
            estimator.ls_estimate_batch(p.phases, p.plan, p.cfg, workers=workers)

    # Refine with almost no scan: recentre every trial on its true range.
    h = REFINE_HALF_STEPS * wl.STEP_M
    model = (2.0 * math.pi / p.plan.c) * np.outer(p.q0, p.plan.frequencies)
    narrow = EstimatorConfig(search_lo=-h, search_hi=h, step=wl.STEP_M, refine=True)
    with tracer.span("probe.refine", trials=trials):
        estimator.ls_estimate_batch(ck.wrap(p.phases - model), p.plan, narrow, workers=1)

    if workload == "plan-replay":
        # A small campaign on the record's plan and SNR reaches the montecarlo
        # layer, synthesis and the refine-off scan.
        spec = montecarlo.CampaignSpec.build(
            plans=[(p.label, p.plan)],
            q0=wl.Q0_M,
            snr_grid=[p.snr_db],
            trials=REPLAY_PROBE_TRIALS,
            seed=seed,
            estimator=_config(wl.REPLAY, refine=False),
        )
        montecarlo.rows_from_errors(spec, montecarlo.campaign_errors(spec), "mse")
        return

    camp = wl.CAMPAIGNS[workload]
    if camp.refine:
        off = _config(camp, refine=False)
        cells = trials * off.grid().size * p.plan.n
        with tracer.span("estimator.ls_estimate_batch", trials=trials, cells=cells, refine=False):
            estimator.ls_estimate_batch(p.phases, p.plan, off, workers=1)
    for row in p.phases[:LS_ESTIMATE_PROBE_CALLS]:
        estimator.ls_estimate(row, p.plan, p.cfg)
    for plan in wl.build_plans(workload).values():
        analysis.analyze(plan, snr_db=p.snr_db, include_sidelobe=True)
    params = design.DesignParams(bandwidth=wl.B_HZ, n=wl.N_FREQ, resolution=wl.RES_HZ)
    design.design_prime_min_error(params, wl.F1_HZ, c=C_PAPER)
    exps = [
        records.Experiment(experiment_id=f"t{t:05d}", phases=row, q0=float(q))
        for t, (row, q) in enumerate(zip(p.phases[:RECORD_PROBE_EXPERIMENTS], p.q0))
    ]
    path = scratch / "probe_record.csv"
    records.write_record(path, p.plan, exps)
    records.read_record(path)


def layer_metrics(tracer: Tracer, workload: str, passes: int, untraced_s: float) -> dict:
    """Per-layer metrics from the spans; totals are per pass."""
    spans = tracer.spans
    dur = [s[2] - s[1] for s in spans]
    child_ns = [0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child_ns[s[3]] += dur[i]

    def pick(name, cli=False, parent=None, **where):
        """Spans called ``name``: from the CLI pass if ``cli``, else from the
        inputs and the replica and probe passes."""
        return [
            i
            for i, s in enumerate(spans)
            if s[0] == name
            and (s[4] == "cli") == cli
            and (parent is None or (s[3] >= 0 and spans[s[3]][0] == parent))
            and all((s[5] or {}).get(k) == v for k, v in where.items())
        ]

    def total(idx, scale):
        return sum(dur[i] for i in idx) * scale

    def self_time(idx, scale):
        return sum(dur[i] - child_ns[i] for i in idx) * scale

    def per(idx, scale, key=None):
        """Time per counted unit, or per call without a key."""
        return total(idx, scale) / (sum(spans[i][5][key] for i in idx) if key else len(idx))

    ns, us, ms, s = 1.0, 1e-3, 1e-6, 1e-9
    scan = pick("estimator.ls_estimate_batch", refine=False)
    batch = pick("estimator.ls_estimate_batch", parent="montecarlo.campaign_errors")
    side = pick("analysis.sidelobe_scan")
    return {
        "estimator.scan.ns_per_cell": (per(scan, ns, "cells"), "ns"),
        "estimator.scan.cells": (wl.scan_cells(workload), "count"),
        "estimator.ls_estimate_batch.us_per_trial": (per(batch, us, "trials"), "us"),
        "estimator.refine.us_per_trial": (per(pick("probe.refine"), us, "trials"), "us"),
        "estimator.ls_estimate.us_per_call": (per(pick("estimator.ls_estimate"), us), "us"),
        "estimator.workers2.speedup": (
            total(pick("probe.workers1"), s) / total(pick("probe.workers2"), s),
            "x",
        ),
        "montecarlo.synth_trial_matrix.us_per_trial": (
            per(pick("montecarlo.synth_trial_matrix"), us, "trials"),
            "us",
        ),
        "core.synth_phases.us_per_call": (per(pick("core.synth_phases"), us), "us"),
        "montecarlo.self_s": (self_time(pick("montecarlo.campaign_errors"), s) / passes, "s"),
        "montecarlo.rows_from_errors.ms": (
            total(pick("montecarlo.rows_from_errors"), ms) / passes,
            "ms",
        ),
        "analysis.sidelobe_scan.s": (total(side, s) / passes, "s"),
        "analysis.sidelobe_scan.ns_per_cell": (per(side, ns, "cells"), "ns"),
        "analysis.analyze_closed_form.ms": (self_time(pick("analysis.analyze"), ms) / passes, "ms"),
        "design.prime_min_error.ms": (total(pick("design.prime_min_error"), ms) / passes, "ms"),
        "records.read_record.us_per_row": (per(pick("records.read_record"), us, "rows"), "us"),
        "records.write_record.us_per_row": (per(pick("records.write_record"), us, "rows"), "us"),
        "cli.self_s": (self_time(pick("cli.main", cli=True), s), "s"),
        "trace.overhead_frac": (total(pick("replica"), s) / untraced_s - 1.0, "ratio"),
    }


def traced_run(workload: str, seed: int, seconds: float, work: Path, checks: ck.Checks) -> dict:
    """One traced CLI pass, a 2-worker digest comparison, then replica and
    probe passes while they fit in ``seconds`` from the start.  Returns the
    layer metrics, the CLI output digests and the number of passes."""
    from mfirange import cli

    start = time.perf_counter()
    tracer = Tracer()
    targets = patch_targets()
    tracer.run_id = "inputs"
    with tracer.patched(targets):
        input_path = wl.write_inputs(workload, seed, work / "inputs")

    out = work / "cli"
    tracer.run_id = "cli"
    calls = []
    with tracer.patched(targets):
        for argv in wl.cli_commands(workload, input_path, out):
            t = time.perf_counter()
            with tracer.span("cli.main"), contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
            calls.append({"argv": argv, "rc": rc, "s": time.perf_counter() - t})
    ck.check_calls(checks, calls, "traced")
    ck.check_outputs(checks, workload, out, input_path, seed)
    reference = ck.digests(out)

    out2 = work / "workers2" / "out"
    res = child.spawn(workload, wl.cli_commands(workload, input_path, out2), out2.parent, workers=2)
    if checks.check("workers=2 child ran", "calls" in res, res.get("stderr", "")):
        ck.check_calls(checks, res["calls"], "workers=2")
        checks.check("workers=2 child saw MFIRANGE_WORKERS=2", res["workers_env"] == "2")
        ck.compare_digests(checks, reference, ck.digests(out2), "workers=2")

    inputs = ProbeInputs(workload, input_path, seed)
    passes, untraced_s, pass_s = 0, 0.0, 0.0
    # Start a pass only if it should end within ``seconds``; there is always one.
    while passes == 0 or time.perf_counter() - start + pass_s <= seconds:
        pass_start = time.perf_counter()
        tracer.run_id = f"pass-{passes}"
        # Alternate which replica runs first, so drift over a pass does not
        # bias the tracing overhead.
        for traced in (False, True) if passes % 2 == 0 else (True, False):
            if traced:
                with tracer.patched(targets), tracer.span("replica"):
                    replica(workload, input_path, seed)
            else:
                t = time.perf_counter()
                replica(workload, input_path, seed)
                untraced_s += time.perf_counter() - t
        with tracer.patched(targets):
            probes(tracer, workload, inputs, seed, work)
        passes += 1
        pass_s = time.perf_counter() - pass_start

    tracer.write(work.parent / f"trace-{workload}-s{seed}.json")
    metrics = layer_metrics(tracer, workload, passes, untraced_s)
    return {"metrics": metrics, "digests": reference, "passes": passes}
