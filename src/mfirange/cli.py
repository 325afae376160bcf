"""Command-line front end.

Subcommands: ``design`` (emit a frequency plan plus its closed-form
report), ``analyze`` (report for an existing plan file), ``estimate``
(one LS grid search), ``simulate`` (seeded Monte Carlo campaigns from a
config file), and ``replay`` (estimate every experiment of a recorded
phase file).

Plan and campaign files use a flat ``key = value`` text format with the
unit in the key name (``_hz``, ``_m``, ``_db``); '#' starts a comment.
Outputs are CSV (default) or JSON with full-precision round-trip floats.
JSON has no NaN or infinity, so a non-finite float is ``null`` there; the
CSV keeps ``nan``, ``inf`` and ``-inf``.
Every failure exits nonzero after printing one line ``error: <code>: <reason>``.
A flag's value may be a negative number in any float syntax, written after
a space or an '=': ``--lo -1e0``, ``--lo=-1e0``, ``--snr -inf`` and
``--phases -1.2,0.5`` all parse (argparse alone would read ``-1e0`` as a
new flag).

A campaign config has these keys, and every ``kind`` reads each of them:
``kind`` (``mse``, ``pf``, ``ambiguity`` or ``pumr``; default ``mse``),
``plan.<label>`` (a plan file, relative to the config; one or more),
``q0_m`` (true range; default 0), ``snr_db`` (comma-separated grid; one
value for ``ambiguity``), ``trials``, ``seed``, ``noise``
(``phase-gaussian`` or ``complex-awgn``; default ``phase-gaussian``), and
the estimator's ``search_lo_m``, ``search_hi_m``, ``step_m`` and
``refine`` (``true``/``false``, ``yes``/``no`` or ``1``/``0`` in any case;
default false).  Any other key is refused.  All four kinds run the one
campaign loop of :mod:`mfirange.montecarlo`: each (plan, SNR) block is
synthesized once and estimated once, with that estimator.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
from itertools import islice
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import analysis, montecarlo
from .core import FrequencyPlan, sigma_theta_from_snr_db
from .design import (
    DesignInfeasible,
    DesignParams,
    PrimePoolExhausted,
    design_constrained_optimal,
    design_prime_max_error,
    design_prime_min_error,
    design_random,
    design_rips,
    design_towers,
    prime_window_select,
    towers_ideal_frequencies,
)
from .estimator import EstimatorConfig, ls_estimate, ls_estimate_batch, unwrap_ok
from .montecarlo import CampaignSpec, CampaignValidationError, CurveRow
from .records import C_MODES, RecordFormatError, plan_from_header, plan_header, read_record

DESIGN_METHODS = (
    "rips",
    "towers",
    "constrained-optimal",
    "prime-min-error",
    "prime-max-error",
    "random",
)


class CliError(Exception):
    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(message)


class _Parser(argparse.ArgumentParser):
    """Argument parser that fails with the one-line error contract."""

    def error(self, message):
        raise CliError("usage", message)


# ---------------------------------------------------------------------------
# key = value files


def parse_kv_file(path) -> dict[str, str]:
    """``key = value`` lines of a plan file or campaign config.

    Lines break at LF, CR LF and CR only (the text read turns all three
    into LF), as in :func:`~mfirange.records.read_record`; a line that
    holds another character ``str.splitlines`` breaks at, such as U+000B,
    U+001C, U+0085 or U+2028, is refused with its line number and text.
    Blank lines and '#' comments are skipped.
    """
    fields: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise CliError("io", f"cannot read {path}: {exc.strerror}") from exc
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if len(line.splitlines()) > 1:
            raise CliError("config", f"{path}:{lineno}: line break character in {line!r}")
        if "=" not in line:
            raise CliError("config", f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in fields:
            raise CliError("config", f"{path}:{lineno}: duplicate key {key!r}")
        fields[key] = value.strip()
    return fields


def write_plan_file(path, plan: FrequencyPlan) -> None:
    lines = ["# mfirange frequency plan"]
    lines += [f"{key} = {value}" for key, value in plan_header(plan)]
    lines += [
        "# derived values (informational)",
        f"# n = {plan.n}",
        f"# bandwidth_hz = {plan.bandwidth!r}",
        f"# spacings_hz = {','.join(repr(float(s)) for s in plan.spacings_hz)}",
        f"# frequencies_hz = {','.join(repr(float(f)) for f in plan.frequencies)}",
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_plan_file(path) -> FrequencyPlan:
    try:
        return plan_from_header(parse_kv_file(path))
    except ValueError as exc:
        raise CliError("plan", f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# table output


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # shortest round-trip, numpy scalars included
    return str(value)


def _json_value(value):
    """``value``, or None (JSON ``null``) for a non-finite float."""
    return None if isinstance(value, float) and not math.isfinite(value) else value


# Rows formatted at a time by write_table: the cells of one slice, not of
# the whole table, are alive at once.
_WRITE_ROWS = 256
# The text of a cell whose value has exactly this type, as _fmt makes it.
_PLAIN_TEXT = {float: float.__repr__, int: int.__repr__, str: str}


def _cells(values) -> list[str]:
    """:func:`_fmt` of each value of one column, in one pass; a column that
    holds one plain type is formatted without a call of ``_fmt`` per cell."""
    kinds = set(map(type, values))
    text = _PLAIN_TEXT.get(kinds.pop()) if len(kinds) == 1 else None
    return list(map(text or _fmt, values))


def write_table(path, header: list[str], rows: Iterable[Sequence], fmt: str) -> None:
    """Write ``rows`` (any iterable of rows, one value per header name) as
    CSV or JSON.  CSV cells are formatted by column, ``_WRITE_ROWS`` rows at
    a time, and written through one csv writer."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "json":
        payload = [{k: _json_value(v) for k, v in zip(header, row)} for row in rows]
        path.write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n", encoding="utf-8")
        return
    rows = iter(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        while part := list(islice(rows, _WRITE_ROWS)):
            writer.writerows(zip(*map(_cells, zip(*part))))


# ---------------------------------------------------------------------------
# subcommands


def _sigma_from_args(args) -> float:
    if args.sigma is not None and args.snr is not None:
        raise CliError("usage", "give only one of --snr / --sigma")
    if args.sigma is not None:
        return args.sigma
    return sigma_theta_from_snr_db(args.snr if args.snr is not None else 10.0)


def _report_rows(plan: FrequencyPlan, sigma: float, include_sidelobe: bool) -> list[list]:
    report = analysis.analyze(plan, sigma_theta=sigma, include_sidelobe=include_sidelobe)
    rows = [
        ["umr_m", report.umr],
        ["practical_umr_m", report.practical_umr],
        ["grid_offset", report.grid_offset],
        ["sigma_theta_rad", sigma],
        ["mmse_m2", report.mmse],
        ["hmse_m2", report.hmse],
        ["crb_m2", report.crb],
        ["coprime", report.coprime],
    ]
    if include_sidelobe:
        rows.insert(7, ["max_sidelobe", report.sidelobe_value])
        rows.insert(8, ["max_sidelobe_location_m", report.sidelobe_location])
    return rows


def cmd_design(args) -> int:
    c = C_MODES[args.c_mode]
    method = args.method
    sigma = _sigma_from_args(args)
    extra: list[list] = []
    if method == "rips":
        _require(args, "f1", "B", "N")
        plan = design_rips(args.f1, args.B, args.N, resolution=args.res, c=c)
    elif method == "towers":
        _require(args, "fN", "B", "N")
        res = 1.0 if args.res is None else args.res
        plan = design_towers(args.fN, args.B, args.N, resolution=res, c=c)
        ideal = towers_ideal_frequencies(args.fN, args.B, args.N)
        extra.append(["max_snap_error_hz", float(np.max(np.abs(plan.frequencies - ideal)))])
    elif method == "constrained-optimal":
        _require(args, "f1", "B", "N", "res")
        plan = design_constrained_optimal(args.f1, args.B, args.N, args.res, c=c)
    elif method in ("prime-min-error", "prime-max-error"):
        _require(args, "f1", "B", "N", "res")
        params = DesignParams(
            bandwidth=args.B,
            n=args.N,
            resolution=args.res,
            prime_index=args.i,
            umr_requirement=args.umr_requirement,
        )
        window = prime_window_select(params, c=c)
        designer = design_prime_min_error if method == "prime-min-error" else design_prime_max_error
        plan = designer(params, args.f1, c=c)
        extra.extend(
            [
                ["design_tuple_b_hz", args.B],
                ["design_tuple_n", args.N],
                ["design_tuple_resolution_hz", args.res],
                ["design_tuple_prime_index", window.prime_index],
                ["design_tuple_common_factor_k", window.common_factor],
                ["primes", " ".join(str(p) for p in window.primes)],
            ]
        )
    else:  # random
        _require(args, "f1", "B", "N", "res")
        if args.seed is None:
            raise CliError("usage", "--seed is required for the random method")
        rng = np.random.Generator(np.random.Philox(key=args.seed))
        plan = design_random(args.f1, args.B, args.N, args.res, rng, c=c)
        extra.append(["seed", args.seed])

    # The report is built before any file or directory is written, so a
    # report that fails leaves no plan behind.
    rows = _report_rows(plan, sigma, include_sidelobe=not args.skip_sidelobe) + extra
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    name = args.label or method
    plan_path = out / f"{name}.plan"
    write_plan_file(plan_path, plan)
    report_path = out / f"{name}_report.{args.format}"
    write_table(report_path, ["metric", "value"], rows, args.format)
    print(f"wrote {plan_path} and {report_path}")
    return 0


def _require(args, *names):
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        flags = ", ".join(f"--{n}" for n in missing)
        raise CliError("usage", f"method {args.method!r} requires {flags}")


def cmd_analyze(args) -> int:
    plan = read_plan_file(args.plan)
    sigma = _sigma_from_args(args)
    rows = _report_rows(plan, sigma, include_sidelobe=not args.skip_sidelobe)
    if args.out:
        path = Path(args.out) / f"{Path(args.plan).stem}_report.{args.format}"
        write_table(path, ["metric", "value"], rows, args.format)
        print(f"wrote {path}")
    else:
        for key, value in rows:
            print(f"{key} = {_fmt(value)}")
    return 0


def cmd_estimate(args) -> int:
    if (args.phases is None) == (args.record is None):
        raise CliError("usage", "give exactly one of --phases / --record")
    if args.phases is not None and args.plan is None:
        raise CliError("usage", "--plan is required with --phases")
    if args.record is not None and args.experiment is None:
        raise CliError("usage", "--experiment is required with --record")
    cfg = _estimator_config(args)
    if args.phases is not None:
        plan = read_plan_file(args.plan)
        phases = np.array([float(x) for x in args.phases.split(",")])
    else:
        record = read_record(args.record)
        match = [e for e in record.experiments if e.experiment_id == args.experiment]
        if not match:
            raise CliError("record", f"experiment {args.experiment!r} not found")
        plan, phases = record.plan, match[0].phases
    est = ls_estimate(phases, plan, cfg)
    print(f"q_hat_m = {est.q_hat!r}")
    print(f"cost_at_min = {est.cost_at_min!r}")
    return 0


_BOOLS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _parse_bool(text: str) -> bool:
    try:
        return _BOOLS[text.lower()]
    except KeyError:
        raise ValueError(f"{text!r} is not one of true, false, yes, no, 1, 0") from None


def _campaign_from_config(fields: dict[str, str], config_path) -> tuple[CampaignSpec, str]:
    """Parse a campaign config and validate it in one pass.

    Values that fail to parse are reported together with every check
    :meth:`CampaignSpec.check` makes on the values that did parse, in one
    :class:`CampaignValidationError`.
    """
    problems: list[str] = []
    read: set[str] = set()

    def take(key, conv, default=None, required=False):
        read.add(key)
        if key not in fields:
            if required:
                problems.append(f"missing key {key!r}")
            return default
        try:
            return conv(fields[key])
        except ValueError as exc:
            problems.append(f"bad value for {key!r}: {exc}")
            return None

    kind = take("kind", str, default="mse")
    if kind not in ("mse", "pf", "ambiguity", "pumr"):
        problems.append("kind must be one of mse, pf, ambiguity, pumr")
    plans = []
    base = Path(config_path).parent
    for key, value in fields.items():
        if key.startswith("plan."):
            label = key[len("plan.") :]
            path = Path(value)
            if not path.is_absolute():
                path = base / path
            try:
                plans.append((label, read_plan_file(path)))
            except CliError as exc:
                problems.append(f"plan {label!r}: {exc}")
    parsed = {
        "plans": plans,
        "q0": take("q0_m", float, default=0.0),
        "snr_grid": take("snr_db", lambda s: tuple(float(x) for x in s.split(",")), required=True),
        "trials": take("trials", int, required=True),
        "seed": take("seed", int, required=True),
        "noise_kind": take("noise", str, default="phase-gaussian"),
    }
    lo = take("search_lo_m", float, required=True)
    hi = take("search_hi_m", float, required=True)
    step = take("step_m", float, required=True)
    refine = take("refine", _parse_bool, default=False)
    problems += [
        f"unknown key {key!r}" for key in fields if key not in read and not key.startswith("plan.")
    ]
    if None not in (lo, hi, step):
        try:
            parsed["estimator"] = EstimatorConfig(
                search_lo=lo, search_hi=hi, step=step, refine=refine
            )
        except ValueError as exc:
            problems.append(str(exc))
    if kind == "ambiguity" and len(parsed["snr_grid"] or ()) > 1:
        # The ambiguity tables have no SNR column.
        problems.append("kind ambiguity takes exactly one snr_db value")
    parsed = {k: v for k, v in parsed.items() if v is not None}
    problems += CampaignSpec.check(**parsed)
    if problems:
        raise CampaignValidationError(problems)
    return CampaignSpec.build(**parsed), kind


def _histogram_rows(errors: np.ndarray) -> list[list]:
    """[bin low, bin high, count] rows of the 20-bin error histogram that
    ``simulate`` (kind ambiguity) and ``replay`` write."""
    counts, edges = np.histogram(errors, bins=20)
    return [[float(lo), float(hi), int(n)] for lo, hi, n in zip(edges[:-1], edges[1:], counts)]


def cmd_simulate(args) -> int:
    fields = parse_kv_file(args.config)
    spec, kind = _campaign_from_config(fields, args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if kind in ("mse", "pf"):
        errors = montecarlo.campaign_errors(spec)
        header = list(CurveRow.FIELDS)
        for metric in ("mse", "pf") if kind == "pf" else ("mse",):
            rows = montecarlo.rows_from_errors(spec, errors, metric)
            path = out / f"{metric}.{args.format}"
            write_table(path, header, [[getattr(r, f) for f in header] for r in rows], args.format)
            print(f"wrote {path}")
        return 0
    if kind == "ambiguity":
        errors = montecarlo.campaign_errors(spec)
        rows = []
        hist_rows = []
        for label, _ in spec.plans:
            err = errors[(label, 0)]
            rows.extend([label, t, float(e)] for t, e in enumerate(err))
            hist_rows.extend([label, *row] for row in _histogram_rows(err))
        path = out / f"ambiguity_errors.{args.format}"
        write_table(path, ["label", "trial", "error_m"], rows, args.format)
        hist_path = out / f"ambiguity_hist.{args.format}"
        write_table(hist_path, ["label", "bin_lo_m", "bin_hi_m", "count"], hist_rows, args.format)
        print(f"wrote {path}")
        print(f"wrote {hist_path}")
        return 0
    # kind == "pumr": cost comparison at the practical-UMR dip per SNR.
    def pumr_metrics(plan, si, phases, errors):
        bound = analysis.confusion_bound_for_plan(plan, spec.snr_grid[si])
        return (
            ("pa_empirical", montecarlo.pumr_confusion_rate(phases, plan, spec.q0)),
            ("pa_bound", bound.value),
            ("pa_bound_valid", int(bound.within_validity)),
            ("far_cluster_rate", float(montecarlo.far_cluster(errors, plan).mean())),
        )

    rows = [
        [label, spec.snr_grid[si], metric, value, spec.trials]
        for (label, si), metrics in montecarlo.run_campaign(spec, pumr_metrics).items()
        for metric, value in metrics
    ]
    path = out / f"pumr.{args.format}"
    write_table(path, ["label", "snr_db", "metric", "value", "trials"], rows, args.format)
    print(f"wrote {path}")
    return 0


def cmd_replay(args) -> int:
    record = read_record(args.record)
    plan = record.plan
    cfg = _estimator_config(args)
    exps = record.experiments
    phases = np.array([e.phases for e in exps]).reshape(-1, plan.n)
    q_hat, cost, _ = ls_estimate_batch(phases, plan, cfg)
    q0s = [e.q0 for e in exps]
    q0 = np.array([np.nan if q is None else q for q in q0s])
    known = ~np.isnan(q0)
    err = q_hat - q0
    # The error and unwrap_ok cells of an experiment without q0 are empty.
    errs = err.tolist()
    oks = unwrap_ok(q_hat, q0, plan).astype(int).tolist()
    for t in np.flatnonzero(~known).tolist():
        errs[t] = oks[t] = None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = Path(args.record).stem
    path = out / f"{stem}_estimates.{args.format}"
    write_table(
        path,
        ["experiment_id", "q_hat_m", "q0_m", "error_m", "unwrap_ok", "cost_at_min"],
        zip([e.experiment_id for e in exps], q_hat.tolist(), q0s, errs, oks, cost.tolist()),
        args.format,
    )
    print(f"wrote {path}")
    arr = err[known]
    if arr.size:
        summary = [["mse_m2", float(np.mean(arr**2))], ["experiments", arr.size]]
        hist = _histogram_rows(arr)
        sum_path = out / f"{stem}_summary.{args.format}"
        write_table(sum_path, ["metric", "value"], summary, args.format)
        hist_path = out / f"{stem}_histogram.{args.format}"
        write_table(hist_path, ["bin_lo_m", "bin_hi_m", "count"], hist, args.format)
        print(f"wrote {sum_path}")
        print(f"wrote {hist_path}")
    return 0


# ---------------------------------------------------------------------------


def _search_flags(p) -> None:
    """The search window flags of ``estimate`` and ``replay``, read by
    :func:`_estimator_config`."""
    p.add_argument("--lo", type=float, required=True, help="search low edge, m")
    p.add_argument("--hi", type=float, required=True, help="search high edge, m")
    p.add_argument("--step", type=float, required=True, help="grid step, m")
    p.add_argument("--refine", action="store_true")


def _estimator_config(args) -> EstimatorConfig:
    return EstimatorConfig(search_lo=args.lo, search_hi=args.hi, step=args.step, refine=args.refine)


def build_parser() -> _Parser:
    parser = _Parser(prog="mfirange", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("design", help="design a frequency plan and report on it")
    common(p)
    p.add_argument("--c-mode", choices=tuple(C_MODES), default="exact")
    p.add_argument("--seed", type=int, default=None, help="RNG key (random method)")
    p.add_argument("--method", choices=DESIGN_METHODS, required=True)
    p.add_argument("--f1", type=float, help="base (lowest) frequency, Hz")
    p.add_argument("--fN", type=float, help="top frequency, Hz (towers)")
    p.add_argument("--B", type=float, help="bandwidth, Hz")
    p.add_argument("--N", type=int, help="frequency count")
    p.add_argument("--res", type=float, help="grid resolution, Hz")
    p.add_argument("--i", type=int, default=1, help="1-based prime window start")
    p.add_argument("--umr-requirement", type=float, default=None, help="meters")
    p.add_argument("--label", default=None, help="basename for output files")
    p.add_argument("--snr", type=float, default=None, help="report SNR, dB")
    p.add_argument("--sigma", type=float, default=None, help="report phase std, rad")
    p.add_argument("--skip-sidelobe", action="store_true")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("analyze", help="closed-form report for a plan file")
    common(p)
    p.add_argument("--plan", required=True)
    p.add_argument("--snr", type=float, default=None)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--skip-sidelobe", action="store_true")
    # Default to stdout for analyze; --out still redirects to a file.
    p.set_defaults(func=cmd_analyze, out=None)

    p = sub.add_parser("estimate", help="one LS grid-search estimate (printed to stdout)")
    p.add_argument("--plan", help="plan file (with --phases)")
    p.add_argument("--phases", help="comma-separated wrapped phases, rad")
    p.add_argument("--record", help="phase record file")
    p.add_argument("--experiment", help="experiment id within the record")
    _search_flags(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("simulate", help="run a Monte Carlo campaign config")
    common(p)
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("replay", help="estimate every experiment in a record")
    common(p)
    p.add_argument("--record", required=True)
    _search_flags(p)
    p.set_defaults(func=cmd_replay)

    return parser


_ERROR_CODES = {
    DesignInfeasible: "design-infeasible",
    PrimePoolExhausted: "prime-pool-exhausted",
    RecordFormatError: "record-format",
    CampaignValidationError: "validation",
}


_NEGATIVE_NUMBER = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


def _glue_negatives(argv: list[str]) -> list[str]:
    """Rewrite ``--flag V`` to ``--flag=V`` when V begins with a minus sign
    and then a digit, '.' and a digit, ``inf`` or ``nan``.  argparse reads
    only plain negatives such as ``-2.5`` as values; ``-1e0``, ``-2.5E+0``,
    ``-inf`` or a phase list ``-1.2,0.5`` would be taken for a new flag."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and _NEGATIVE_NUMBER.match(tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_glue_negatives(sys.argv[1:] if argv is None else list(argv)))
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return 2
    except tuple(_ERROR_CODES) as exc:
        print(f"error: {_ERROR_CODES[type(exc)]}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: invalid-value: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy's message names the array it could not allocate.
        print(f"error: out-of-memory: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
