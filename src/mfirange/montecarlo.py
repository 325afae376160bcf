"""Seeded Monte Carlo campaigns over frequency plans.

A :class:`CampaignSpec` names labeled plans, an SNR grid, the trial
count, the seed and one :class:`~mfirange.estimator.EstimatorConfig`.
Every campaign runs one loop, :func:`run_campaign`: per (plan, SNR
index) it synthesizes one (trials x N) phase block with
:func:`synth_trial_matrix`, and estimates the blocks under
``spec.estimator`` with :func:`~mfirange.estimator.ls_estimate_batch`.
The SNRs of a plan run back to back, so they share one
:class:`~mfirange.estimator.LsSearch`, and consecutive blocks smaller
than its slice (:func:`~mfirange.estimator.batch_slice`) share one call
of up to one slice of trials, which pays the call's fixed cost once.
Each ``simulate`` kind reads what it needs from those blocks: the MSE
and unwrap-failure curves (:func:`rows_from_errors`) and the ambiguity
errors take the errors of :func:`campaign_errors`; the practical-UMR
check takes each block's phases (:func:`pumr_confusion_rate`) and errors
(:func:`far_cluster`).

Campaigns are bit-reproducible: every trial draws its noise from a
counter-based Philox substream keyed by (master seed, plan label, SNR
index, trial index), so results are identical regardless of execution
order.  The key is (seed, blake2b(label, SNR index, trial index)), so
the seed must lie in [0, 2**64); every entry point refuses one outside
with a ValueError.  :func:`trial_stream` builds one such stream;
:func:`synth_trial_matrix` synthesizes a whole (plan, SNR) block in one
batch call to :func:`~mfirange.core.synth_phases`, re-keying a single
Philox per trial (counter zeroed, buffer emptied) instead of building
one, with the same draws bit for bit.  It hashes the label once per
block and derives each trial's key from a copy of that prefix hash.
Curve rows (:class:`CurveRow`) pair the empirical metric with the
closed-form predictions for the same plan and noise level.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

import numpy as np

from . import analysis
from .core import FrequencyPlan, NoiseModel, sigma_theta_from_snr_db, synth_phases
from .estimator import EstimatorConfig, batch_slice, ls_cost, ls_estimate_batch, unwrap_ok

T = TypeVar("T")


class CampaignValidationError(ValueError):
    """All campaign validation failures, collected into one message."""

    def __init__(self, problems: Sequence[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


# The (SNR index, trial index) suffix of every trial's key hash.
_SNR_TRIAL = struct.Struct("<qq")


def _key_seed(seed: int) -> int:
    """``seed`` as the first Philox key word.  One outside [0, 2**64)
    is refused here, for every entry point alike: numpy would wrap it or
    raise, depending on its version and the call."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return seed


def _label_hash(label: str):
    """The blake2b hash of ``label``, the shared prefix of every trial key
    hash of one plan; :func:`_key_word` extends a copy of it."""
    h = hashlib.blake2b(digest_size=8)
    h.update(label.encode("utf-8"))
    return h


def _key_word(label_hash, snr_index: int, trial_index: int) -> int:
    """Second Philox key word of one trial: blake2b(label, snr index, trial
    index), from a copy of the label's :func:`_label_hash`."""
    h = label_hash.copy()
    h.update(_SNR_TRIAL.pack(snr_index, trial_index))
    return int.from_bytes(h.digest(), "little")


def trial_stream(seed: int, label: str, snr_index: int, trial_index: int) -> np.random.Generator:
    """Counter-keyed generator for one trial of one plan at one SNR: a Philox
    keyed (seed, blake2b(label, snr index, trial index))."""
    key = [_key_seed(seed), _key_word(_label_hash(label), snr_index, trial_index)]
    return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))


class _TrialStreams:
    """The trial streams of one (seed, label, SNR index), from one Philox.

    Iterating yields the same Generator ``trials`` times; before trial t
    its Philox is re-keyed to :func:`trial_stream`'s key for t, with the
    counter at zero and the output buffer empty, so each trial's draws
    equal ``trial_stream(seed, label, snr_index, t)``'s bit for bit.
    Building a fresh Philox per trial costs more than the trial's draws,
    so re-keying is kept to two cheap steps per trial.  The label is
    hashed once per block and each trial's key word comes from a copy of
    that hash (:func:`_key_word`, which :func:`trial_stream` shares).  The
    state assigned per trial is one dict, taken from ``Philox.state``
    with its counter and buffer replaced by lists of Python ints, and
    only its key's second word changes: numpy returns them as uint64
    arrays, which the setter reads element by element at about three
    times the cost of a list.
    """

    def __init__(self, seed: int, label: str, snr_index: int, trials: int):
        self.args = (_key_seed(seed), label, snr_index)
        self.trials = trials

    def __len__(self) -> int:
        return self.trials

    def __iter__(self):
        seed, label, snr_index = self.args
        bitgen = np.random.Philox(key=[0, 0])
        gen = np.random.Generator(bitgen)
        state = bitgen.state  # a copy: counter zero, buffer empty
        state["state"]["counter"] = [0] * 4
        state["buffer"] = [0] * 4
        key = state["state"]["key"] = [seed, 0]
        label_hash = _label_hash(label)
        for t in range(self.trials):
            key[1] = _key_word(label_hash, snr_index, t)
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
    """One seeded simulation campaign over labeled plans and an SNR grid.

    Construction runs :meth:`check` on every field and raises one
    :class:`CampaignValidationError` listing all of its problems.
    """

    plans: tuple[tuple[str, FrequencyPlan], ...]
    q0: float
    snr_grid: tuple[float, ...]
    trials: int
    seed: int
    estimator: EstimatorConfig
    noise_kind: str = "phase-gaussian"

    def __post_init__(self):
        problems = self.check(**vars(self))
        if problems:
            raise CampaignValidationError(problems)

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
        return cls(
            plans=pairs,
            q0=float(q0),
            snr_grid=tuple(float(s) for s in snr_grid),
            trials=int(trials),
            seed=int(seed),
            estimator=estimator,
            noise_kind=noise_kind,
        )

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
        for snr in fields.get("snr_grid", ()):
            try:
                sigma_theta_from_snr_db(snr)
            except ValueError as e:
                problems.append(str(e))
        if "q0" in fields and not math.isfinite(fields["q0"]):
            problems.append(f"q0 must be finite, got {fields['q0']!r}")
        if "trials" in fields and fields["trials"] < 1:
            problems.append("trials must be >= 1")
        if "seed" in fields:
            try:
                _key_seed(fields["seed"])
            except ValueError as e:
                problems.append(str(e))
        if "noise_kind" in fields and fields["noise_kind"] not in ("phase-gaussian", "complex-awgn"):
            problems.append("noise_kind must be phase-gaussian or complex-awgn")
        return problems

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


def _row(spec, label, plan, si, metric, value, stderr, trials) -> CurveRow:
    """A :class:`CurveRow` of ``plan`` at SNR index ``si``, with the
    closed-form MMSE, HMSE and CRB at that SNR."""
    snr = spec.snr_grid[si]
    sigma = sigma_theta_from_snr_db(snr)
    mmse, hmse = analysis.mmse(plan, sigma), analysis.hmse(plan, sigma)
    crb = analysis.crb(plan, math.sqrt(2.0) * sigma)
    return CurveRow(label, snr, metric, value, stderr, mmse, hmse, crb, trials, spec.seed)


def _mean_stderr(x: np.ndarray) -> tuple[float, float]:
    """Mean of ``x`` (NaN when empty) and its standard error (0 below two values)."""
    mean = float(x.mean()) if x.size else float("nan")
    return mean, float(x.std(ddof=1) / math.sqrt(x.size)) if x.size > 1 else 0.0


def run_campaign(
    spec: CampaignSpec, measure: Callable[[FrequencyPlan, int, np.ndarray, np.ndarray], T]
) -> dict[tuple[str, int], T]:
    """The campaign loop: for each plan, then each SNR index, one
    :func:`synth_trial_matrix` block, estimated by :func:`ls_estimate_batch`
    with ``spec.estimator``.  Returns ``measure(plan, SNR index, phases,
    errors q_hat - q0)`` per (plan label, SNR index), called in that order
    with each block's own phases and errors.

    A search call pays a fixed cost beside its per-trial work, so the
    consecutive blocks of a plan share one call, up to max(trials, S)
    trials, S being :func:`~mfirange.estimator.batch_slice`; a block of S
    or more trials keeps its own call.  Trials are independent and no
    output bit depends on how they are stacked.  Only the phases of one
    call's blocks are held while they are estimated, so ``measure`` should
    return a summary of them, not the phases."""
    out: dict[tuple[str, int], T] = {}
    for label, plan in spec.plans:
        per_call = max(1, batch_slice(plan, spec.estimator) // spec.trials)
        for first in range(0, len(spec.snr_grid), per_call):
            snrs = range(first, min(first + per_call, len(spec.snr_grid)))
            blocks = [
                synth_trial_matrix(
                    plan, spec.q0, spec.noise_at(spec.snr_grid[si]), spec.seed, label, si,
                    spec.trials,
                )
                for si in snrs
            ]
            stacked = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
            q_hat, _, _ = ls_estimate_batch(stacked, plan, spec.estimator)
            # Only ``blocks`` outlives this call (a for loop's names would
            # keep its last block), so the next call's search holds none.
            del stacked
            errors = np.split(q_hat - spec.q0, len(blocks))
            out.update(
                ((label, si), measure(plan, si, phases, err))
                for si, phases, err in zip(snrs, blocks, errors)
            )
    return out


def campaign_errors(spec: CampaignSpec) -> dict[tuple[str, int], np.ndarray]:
    """Estimation errors q_hat - q0 for every (plan label, SNR index)."""
    return run_campaign(spec, lambda plan, si, phases, errors: errors)


def _mse_rows(spec, label, plan, si, errors) -> list[CurveRow]:
    sq = errors**2
    # Outliers stay in the headline MSE; the unwrapped-only figure is a
    # diagnostic companion row.
    sq_in = sq[unwrap_ok(errors + spec.q0, spec.q0, plan)]
    return [
        _row(spec, label, plan, si, "mse", *_mean_stderr(sq), spec.trials),
        _row(spec, label, plan, si, "mse_excl_outlier", *_mean_stderr(sq_in), int(sq_in.size)),
    ]


def _pf_rows(spec, label, plan, si, errors) -> list[CurveRow]:
    """Incorrect-unwrapping probability P(|q_hat - q0| > lambda_min)."""
    p = float((~unwrap_ok(errors + spec.q0, spec.q0, plan)).mean())
    return [_row(spec, label, plan, si, "pf", p, math.sqrt(p * (1.0 - p) / spec.trials), spec.trials)]


def rows_from_errors(
    spec: CampaignSpec, errors: Mapping[tuple[str, int], np.ndarray], metric: str
) -> list[CurveRow]:
    """Curve rows of ``metric`` from the errors of :func:`campaign_errors`:
    ``mse`` gives the MSE and its outlier-free companion per (plan, SNR),
    ``pf`` the incorrect-unwrapping probability."""
    maker = {"mse": _mse_rows, "pf": _pf_rows}[metric]
    rows: list[CurveRow] = []
    for label, plan in spec.plans:
        for si in range(len(spec.snr_grid)):
            rows.extend(maker(spec, label, plan, si, errors[(label, si)]))
    return rows


def far_cluster(errors: np.ndarray, plan: FrequencyPlan) -> np.ndarray:
    """Trials whose error lies within lambda_min of +-practical UMR: the
    alias cluster that a window wider than the practical UMR can reach."""
    dl_p = analysis.practical_umr(plan)
    lam = plan.lambda_min
    return (np.abs(errors - dl_p) <= lam) | (np.abs(errors + dl_p) <= lam)


# Relative tolerance under which the two PUMR costs count as a tie.
_TIE_RTOL = 1e-9


def pumr_confusion_rate(phases: np.ndarray, plan: FrequencyPlan, q0: float) -> float:
    """Fraction of trials with cost(q0 + practical UMR) < cost(q0), the
    quantity the closed-form confusion bound addresses.

    A trial whose two costs agree within 1e-9 * max(cost(q0), 1) is a tie
    and counts 1/2.  At zero grid offset the costs are equal in exact
    arithmetic, so every trial ties and the rate is 0.5 rather than a coin
    flip on rounding.
    """
    s0 = ls_cost(phases, plan, q0)
    s1 = ls_cost(phases, plan, q0 + analysis.practical_umr(plan))
    tie = np.abs(s1 - s0) <= _TIE_RTOL * np.maximum(s0, 1.0)
    return float(np.where(tie, 0.5, s1 < s0).mean())
