"""Seeded Monte Carlo campaigns over frequency plans.

Campaigns are bit-reproducible: every trial draws its noise from a
counter-based Philox substream keyed by (master seed, plan label, SNR
index, trial index), so results are identical regardless of execution
order or worker count.  :func:`trial_stream` builds one such stream;
:func:`synth_trial_matrix` synthesizes a whole (plan, SNR) block in one
batch call to :func:`~mfirange.core.synth_phases`, re-keying a single
Philox per trial (counter zeroed, buffer emptied) instead of building
one, with the same draws bit for bit.  Curve runners emit
:class:`CurveRow` records that pair the empirical metric with the
closed-form predictions for the same plan and noise level.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import analysis
from .core import FrequencyPlan, NoiseModel, sigma_theta_from_snr_db, synth_phases
from .estimator import EstimatorConfig, ls_cost, ls_estimate_batch, unwrap_ok

_MASK64 = (1 << 64) - 1


class CampaignValidationError(ValueError):
    """All campaign validation failures, collected into one message."""

    def __init__(self, problems: Sequence[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


def _trial_key(seed: int, label: str, snr_index: int, trial_index: int) -> list[int]:
    """Philox key of one trial: (seed, blake2b(label, snr index, trial index))."""
    h = hashlib.blake2b(digest_size=8)
    h.update(label.encode("utf-8"))
    h.update(struct.pack("<qq", snr_index, trial_index))
    return [seed & _MASK64, int.from_bytes(h.digest(), "little")]


def trial_stream(seed: int, label: str, snr_index: int, trial_index: int) -> np.random.Generator:
    """Counter-keyed generator for one trial of one plan at one SNR."""
    key = np.array(_trial_key(seed, label, snr_index, trial_index), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class _TrialStreams:
    """The trial streams of one (seed, label, SNR index), from one Philox.

    Iterating yields the same Generator ``trials`` times; before trial t
    its Philox is re-keyed to :func:`trial_stream`'s key for t, with the
    counter at zero and the output buffer empty, so each trial's draws
    equal ``trial_stream(seed, label, snr_index, t)``'s bit for bit.
    Building a fresh Philox per trial costs more than the trial's draws.
    """

    def __init__(self, seed: int, label: str, snr_index: int, trials: int):
        self.args = (seed, label, snr_index)
        self.trials = trials

    def __len__(self) -> int:
        return self.trials

    def __iter__(self):
        bitgen = np.random.Philox(key=[0, 0])
        gen = np.random.Generator(bitgen)
        state = bitgen.state  # a copy: counter zero, buffer empty
        for t in range(self.trials):
            state["state"]["key"] = _trial_key(*self.args, t)
            bitgen.state = state
            yield gen


def synth_trial_matrix(
    plan: FrequencyPlan,
    q0: float,
    noise: NoiseModel,
    seed: int,
    label: str,
    snr_index: int,
    trials: int,
) -> np.ndarray:
    """(trials x N) wrapped phase matrix; row t is drawn from
    ``trial_stream(seed, label, snr_index, t)``."""
    return synth_phases(plan, q0, noise, _TrialStreams(seed, label, snr_index, trials))


@dataclass(frozen=True)
class CampaignSpec:
    """One seeded simulation campaign over labeled plans and an SNR grid."""

    plans: tuple[tuple[str, FrequencyPlan], ...]
    q0: float
    snr_grid: tuple[float, ...]
    trials: int
    seed: int
    estimator: EstimatorConfig
    noise_kind: str = "phase-gaussian"

    @classmethod
    def build(
        cls,
        plans: Mapping[str, FrequencyPlan] | Iterable[tuple[str, FrequencyPlan]],
        q0: float,
        snr_grid: Sequence[float],
        trials: int,
        seed: int,
        estimator: EstimatorConfig,
        noise_kind: str = "phase-gaussian",
    ) -> "CampaignSpec":
        pairs = tuple(plans.items()) if isinstance(plans, Mapping) else tuple(plans)
        spec = cls(
            plans=pairs,
            q0=float(q0),
            snr_grid=tuple(float(s) for s in snr_grid),
            trials=int(trials),
            seed=int(seed),
            estimator=estimator,
            noise_kind=noise_kind,
        )
        spec.validate()
        return spec

    @staticmethod
    def check(**fields) -> list[str]:
        """Problems with the given field values; a field not given is not
        checked.  A config reader passes what it could parse, so these
        checks and its own parse failures can be reported together."""
        problems = []
        if "plans" in fields:
            labels = [label for label, _ in fields["plans"]]
            if not labels:
                problems.append("at least one labeled plan is required")
            if len(set(labels)) != len(labels):
                problems.append("plan labels must be unique")
        if "snr_grid" in fields and not fields["snr_grid"]:
            problems.append("snr grid must be non-empty")
        if "trials" in fields and fields["trials"] < 1:
            problems.append("trials must be >= 1")
        if "noise_kind" in fields and fields["noise_kind"] not in ("phase-gaussian", "complex-awgn"):
            problems.append("noise_kind must be phase-gaussian or complex-awgn")
        return problems

    def validate(self) -> None:
        problems = self.check(
            plans=self.plans,
            snr_grid=self.snr_grid,
            trials=self.trials,
            noise_kind=self.noise_kind,
        )
        if problems:
            raise CampaignValidationError(problems)

    def noise_at(self, snr_db: float) -> NoiseModel:
        return NoiseModel(kind=self.noise_kind, snr_db=snr_db)


@dataclass(frozen=True)
class CurveRow:
    """One (plan, SNR, metric) result with its closed-form companions."""

    label: str
    snr_db: float
    metric: str
    value: float
    stderr: float
    mmse: float
    hmse: float
    crb: float
    trials: int
    seed: int

    FIELDS = ("label", "snr_db", "metric", "value", "stderr", "mmse", "hmse", "crb", "trials", "seed")


def _theory(plan: FrequencyPlan, snr_db: float) -> tuple[float, float, float]:
    sigma = sigma_theta_from_snr_db(snr_db)
    return (
        analysis.mmse(plan, sigma),
        analysis.hmse(plan, sigma),
        analysis.crb(plan, math.sqrt(2.0) * sigma),
    )


def campaign_errors(spec: CampaignSpec) -> dict[tuple[str, int], np.ndarray]:
    """Estimation errors q_hat - q0 for every (plan label, SNR index)."""
    spec.validate()
    out: dict[tuple[str, int], np.ndarray] = {}
    for label, plan in spec.plans:
        for si, snr in enumerate(spec.snr_grid):
            phases = synth_trial_matrix(
                plan, spec.q0, spec.noise_at(snr), spec.seed, label, si, spec.trials
            )
            q_hat, _, _ = ls_estimate_batch(phases, plan, spec.estimator)
            out[(label, si)] = q_hat - spec.q0
    return out


def _mse_rows(spec, label, plan, si, errors) -> list[CurveRow]:
    snr = spec.snr_grid[si]
    mmse_v, hmse_v, crb_v = _theory(plan, snr)
    sq = errors**2
    rows = [
        CurveRow(
            label=label,
            snr_db=snr,
            metric="mse",
            value=float(sq.mean()),
            stderr=float(sq.std(ddof=1) / math.sqrt(sq.size)) if sq.size > 1 else 0.0,
            mmse=mmse_v,
            hmse=hmse_v,
            crb=crb_v,
            trials=spec.trials,
            seed=spec.seed,
        )
    ]
    # Outliers stay in the headline MSE; the unwrapped-only figure is a
    # diagnostic companion row.
    inlier = unwrap_ok(errors + spec.q0, spec.q0, plan)
    sq_in = sq[inlier]
    rows.append(
        CurveRow(
            label=label,
            snr_db=snr,
            metric="mse_excl_outlier",
            value=float(sq_in.mean()) if sq_in.size else float("nan"),
            stderr=float(sq_in.std(ddof=1) / math.sqrt(sq_in.size)) if sq_in.size > 1 else 0.0,
            mmse=mmse_v,
            hmse=hmse_v,
            crb=crb_v,
            trials=int(sq_in.size),
            seed=spec.seed,
        )
    )
    return rows


def _pf_rows(spec, label, plan, si, errors) -> list[CurveRow]:
    snr = spec.snr_grid[si]
    mmse_v, hmse_v, crb_v = _theory(plan, snr)
    bad = ~unwrap_ok(errors + spec.q0, spec.q0, plan)
    p = float(bad.mean())
    return [
        CurveRow(
            label=label,
            snr_db=snr,
            metric="pf",
            value=p,
            stderr=math.sqrt(p * (1.0 - p) / spec.trials),
            mmse=mmse_v,
            hmse=hmse_v,
            crb=crb_v,
            trials=spec.trials,
            seed=spec.seed,
        )
    ]


def rows_from_errors(
    spec: CampaignSpec, errors: Mapping[tuple[str, int], np.ndarray], metric: str
) -> list[CurveRow]:
    maker = {"mse": _mse_rows, "pf": _pf_rows}[metric]
    rows: list[CurveRow] = []
    for label, plan in spec.plans:
        for si in range(len(spec.snr_grid)):
            rows.extend(maker(spec, label, plan, si, errors[(label, si)]))
    return rows


def run_mse_curve(spec: CampaignSpec) -> list[CurveRow]:
    """Empirical MSE of the grid estimator per SNR, with theory columns."""
    return rows_from_errors(spec, campaign_errors(spec), "mse")


def run_pf_curve(spec: CampaignSpec) -> list[CurveRow]:
    """Incorrect-unwrapping probability P(|q_hat - q0| > lambda_min) per SNR."""
    return rows_from_errors(spec, campaign_errors(spec), "pf")


@dataclass(frozen=True)
class AmbiguitySweep:
    """Per-trial errors from a wide-window sweep plus cluster summary."""

    errors: np.ndarray
    lambda_min: float
    practical_umr: float
    near_rate: float  # unwrap_ok: |error| <= lambda_min
    far_rate: float  # within lambda_min of +-practical UMR
    far_mean: float  # mean error over far-cluster trials (nan if empty)


def run_ambiguity_sweep(
    plan: FrequencyPlan,
    q0: float,
    window: tuple[float, float],
    snr_db: float,
    trials: int,
    seed: int,
    step: float,
    label: str = "sweep",
    noise_kind: str = "phase-gaussian",
) -> AmbiguitySweep:
    """Estimate over a window wide enough to include the practical-UMR alias.

    The error histogram concentrates near 0 and near +-practical UMR; the
    summary reports both cluster rates and the far-cluster mean location.
    """
    dl_p = analysis.practical_umr(plan)
    cfg = EstimatorConfig(search_lo=window[0], search_hi=window[1], step=step)
    phases = synth_trial_matrix(
        plan, q0, NoiseModel(kind=noise_kind, snr_db=snr_db), seed, label, 0, trials
    )
    q_hat, _, _ = ls_estimate_batch(phases, plan, cfg)
    errors = q_hat - q0
    lam = plan.lambda_min
    near = unwrap_ok(q_hat, q0, plan)
    far = (np.abs(errors - dl_p) <= lam) | (np.abs(errors + dl_p) <= lam)
    far_mean = float(errors[far].mean()) if far.any() else float("nan")
    return AmbiguitySweep(
        errors=errors,
        lambda_min=lam,
        practical_umr=dl_p,
        near_rate=float(near.mean()),
        far_rate=float(far.mean()),
        far_mean=far_mean,
    )


# Relative tolerance under which the two PUMR costs count as a tie.
_TIE_RTOL = 1e-9


@dataclass(frozen=True)
class PumrCheck:
    """Empirical confusion at the practical-UMR dip versus the bound."""

    # Fraction of trials with cost(dip) < cost(q0); a trial whose two costs
    # agree within 1e-9 * max(cost(q0), 1) is a tie and counts 1/2.  At
    # zero grid offset the costs are equal in exact arithmetic, so every
    # trial ties and the rate is 0.5 rather than a coin flip on rounding.
    confusion_rate: float
    bound: float
    bound_valid: bool  # False outside f1/B >= 4 or SNR <= 0 dB
    f1_over_b: float
    far_cluster_rate: float | None  # grid-search rate, when a window was given


def run_pumr_check(
    plan: FrequencyPlan,
    snr_db: float,
    trials: int,
    seed: int,
    q0: float = 0.0,
    window: tuple[float, float] | None = None,
    step: float | None = None,
    label: str = "pumr",
    noise_kind: str = "phase-gaussian",
) -> PumrCheck:
    """Compare the costs at q0 and at the practical-UMR dip across trials.

    The headline rate is P(cost at q0 + practical UMR < cost at q0), the
    quantity the closed-form bound addresses, with ties within rounding
    counted as 1/2 (see :class:`PumrCheck`).  When a window and step are
    supplied, a full grid search also reports the fraction of estimates
    landing within lambda_min of either +-dip, which is the observable
    failure rate of a wide search.
    """
    dl_p = analysis.practical_umr(plan)
    bound = analysis.confusion_bound_for_plan(plan, snr_db)
    phases = synth_trial_matrix(
        plan, q0, NoiseModel(kind=noise_kind, snr_db=snr_db), seed, label, 0, trials
    )
    s0 = ls_cost(phases, plan, q0)
    s1 = ls_cost(phases, plan, q0 + dl_p)
    tie = np.abs(s1 - s0) <= _TIE_RTOL * np.maximum(s0, 1.0)
    rate = float(np.where(tie, 0.5, s1 < s0).mean())
    far_rate = None
    if window is not None:
        if step is None:
            raise ValueError("step is required when a search window is given")
        sweep = run_ambiguity_sweep(
            plan, q0, window, snr_db, trials, seed, step, label=label, noise_kind=noise_kind
        )
        far_rate = sweep.far_rate
    return PumrCheck(
        confusion_rate=rate,
        bound=bound.value,
        bound_valid=bound.within_validity,
        f1_over_b=plan.f1 / plan.bandwidth,
        far_cluster_rate=far_rate,
    )
