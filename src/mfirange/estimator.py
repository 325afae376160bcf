"""Least-squares grid-search range estimator.

The estimator minimizes the sum of squared wrapped phase residuals over a
regular range grid; a normalized coherent-sum surrogate of the same cost
is provided for cross-checks.  The batch path evaluates many phase
vectors against one grid with chunked numpy kernels and an optional
thread pool (trial-partitioned, so results are identical at any worker
count).
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import TWO_PI, FrequencyPlan, PhaseVector

_INV_TWO_PI = 1.0 / TWO_PI
# Chunk sizing keeps each (trials x grid) temporary around 32 MB.
_TARGET_ELEMS = 4_000_000

WORKERS_ENV = "MFIRANGE_WORKERS"


@dataclass(frozen=True)
class EstimatorConfig:
    """Search window, grid step, and the post-grid refinement switch."""

    search_lo: float
    search_hi: float
    step: float
    refine: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.search_lo) and math.isfinite(self.search_hi)):
            raise ValueError("search bounds must be finite")
        if not self.search_lo < self.search_hi:
            raise ValueError("search_lo must be below search_hi")
        if not self.step > 0:
            raise ValueError("step must be positive")
        if self.search_hi - self.search_lo < self.step:
            raise ValueError("search interval is narrower than one grid step")

    @property
    def size(self) -> int:
        """Number of grid points."""
        return int((self.search_hi - self.search_lo) / self.step + 1e-9) + 1

    def grid(self) -> np.ndarray:
        return self.search_lo + self.step * np.arange(self.size)


@dataclass(frozen=True)
class Estimate:
    q_hat: float
    cost_at_min: float
    grid_index: int
    refined: bool


def _phases_array(phases) -> np.ndarray:
    if isinstance(phases, PhaseVector):
        return phases.as_array()
    return np.asarray(phases, dtype=float)


def _wrap_inplace(d: np.ndarray) -> np.ndarray:
    """Wrap to (-pi, pi] up to the boundary point, in place.

    Used only inside squared-residual sums where the sign of the boundary
    value is irrelevant.
    """
    k = np.rint(d * _INV_TWO_PI)
    k *= TWO_PI
    d -= k
    return d


def ls_cost(phases, plan: FrequencyPlan, q) -> np.ndarray | float:
    """Sum of squared wrapped residuals sum_i wrap(phi_i - 2*pi*q*f_i/c)^2.

    Zero exactly at the true range for noise-free phases, and at every
    UMR-multiple offset.  ``phases`` is (..., N) and ``q`` broadcasts
    against its leading axes; the last axis of the model is the plan's
    frequencies.  This is the one wrapped-residual cost of the package:
    the refine step of :func:`ls_estimate_batch` and the two-point
    comparison of ``montecarlo.run_pumr_check`` call it, and the scan
    kernel :func:`_scan_block` is checked against it.
    """
    ph = _phases_array(phases)
    if ph.shape[-1:] != (plan.n,):
        raise ValueError("phase vector length must match the plan")
    qa = np.asarray(q, dtype=float)
    d = ph - (TWO_PI / plan.c) * qa[..., None] * plan.frequencies
    _wrap_inplace(d)
    out = np.square(d, out=d).sum(axis=-1)
    if out.ndim == 0:
        return float(out)
    return out


def coherence_cost(phases, plan: FrequencyPlan, q) -> np.ndarray | float:
    """Normalized coherent sum |sum_i exp(j(phi_i - 2*pi*q*f_i/c))|^2 / N^2.

    A maximization surrogate for :func:`ls_cost` (larger is better); equals
    1 at the true range for noise-free phases.
    """
    ph = _phases_array(phases)
    if ph.size != plan.n:
        raise ValueError("phase vector length must match the plan")
    qa = np.asarray(q, dtype=float)
    model = (TWO_PI / plan.c) * np.multiply.outer(qa, plan.frequencies)
    s = np.exp(1j * (ph - model)).sum(axis=-1)
    out = (s.real**2 + s.imag**2) / plan.n**2
    if qa.ndim == 0:
        return float(out)
    return out


def _default_workers() -> int:
    try:
        return max(1, int(os.environ.get(WORKERS_ENV, "1")))
    except ValueError:
        return 1


def _scan_block(
    phases: np.ndarray, coef: np.ndarray, grid: np.ndarray, best_val: np.ndarray, best_idx: np.ndarray
) -> None:
    """Fill per-trial (min cost, lowest argmin index) for one trial block.

    Inner kernel: with both the observed phases and the per-chunk model
    phases pre-wrapped to (-pi, pi], the residual lies in (-2*pi, 2*pi)
    and its wrapped square is min(|d|, 2*pi - |d|)^2, which avoids a
    rounding pass per element.  This is the (trials x grid) hot loop, so
    it stays a separate kernel rather than a call to :func:`ls_cost`; the
    tests use :func:`ls_cost` as its reference.
    """
    t = phases.shape[0]
    n_pts = grid.size
    chunk = max(16, min(n_pts, _TARGET_ELEMS // max(1, t)))
    wrapped = np.asarray(phases)  # already in (-pi, pi] by PhaseVector contract
    d = np.empty((t, chunk))
    tmp = np.empty((t, chunk))
    for start in range(0, n_pts, chunk):
        g = grid[start : start + chunk]
        model = coef[:, None] * g[None, :]
        _wrap_inplace(model)  # (N, chunk): cheap relative to the t x chunk work
        if g.size != chunk:
            d = np.empty((t, g.size))
            tmp = np.empty((t, g.size))
        acc = np.zeros((t, g.size))
        for i in range(coef.size):
            np.subtract(wrapped[:, i : i + 1], model[i][None, :], out=d)
            np.abs(d, out=d)
            np.subtract(TWO_PI, d, out=tmp)
            np.minimum(d, tmp, out=d)
            np.multiply(d, d, out=d)
            acc += d
        idx = np.argmin(acc, axis=1)
        val = acc[np.arange(t), idx]
        better = val < best_val  # strict: earlier chunks win ties (lower q)
        best_val[better] = val[better]
        best_idx[better] = idx[better] + start


def ls_estimate_batch(
    phases: np.ndarray, plan: FrequencyPlan, cfg: EstimatorConfig, workers: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Grid-search estimates for a (trials x N) block of phase vectors.

    Returns (q_hat, cost_at_min, grid_index) arrays.  Ties break toward
    the smallest range.  With ``refine`` set, a 3-point parabolic fit
    around each interior grid minimum sharpens q_hat below the grid step;
    the reported cost is re-evaluated at the refined point.  Worker count
    defaults to the MFIRANGE_WORKERS environment variable; partitioning is
    by trial, so results do not depend on it.
    """
    phases = np.asarray(phases, dtype=float)
    if phases.ndim != 2 or phases.shape[1] != plan.n:
        raise ValueError("phases must be (trials, N) matching the plan")
    if cfg.step > plan.lambda_min / 4.0:
        warnings.warn(
            "grid step exceeds lambda_min/4; carrier-period minima may be missed",
            stacklevel=2,
        )
    grid = cfg.grid()
    coef = (TWO_PI / plan.c) * plan.frequencies
    t = phases.shape[0]
    best_val = np.full(t, np.inf)
    best_idx = np.zeros(t, dtype=np.int64)
    if workers is None:
        workers = _default_workers()
    if workers > 1 and t > 1:
        bounds = np.linspace(0, t, workers + 1, dtype=int)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(
                    _scan_block, phases[a:b], coef, grid, best_val[a:b], best_idx[a:b]
                )
                for a, b in zip(bounds[:-1], bounds[1:])
                if b > a
            ]
            for f in futures:
                f.result()
    else:
        _scan_block(phases, coef, grid, best_val, best_idx)

    q_hat = grid[best_idx]
    cost = best_val
    if cfg.refine:
        interior = (best_idx > 0) & (best_idx < grid.size - 1)
        if np.any(interior):
            rows = np.nonzero(interior)[0]
            q3 = grid[best_idx[rows, None] + np.array([-1, 0, 1])]
            c3 = ls_cost(phases[rows, None, :], plan, q3)
            denom = c3[:, 0] - 2.0 * c3[:, 1] + c3[:, 2]
            ok = denom > 0
            delta = np.zeros(rows.size)
            delta[ok] = 0.5 * (c3[ok, 0] - c3[ok, 2]) / denom[ok] * cfg.step
            np.clip(delta, -cfg.step / 2.0, cfg.step / 2.0, out=delta)
            q_ref = q_hat[rows] + delta
            q_hat[rows] = q_ref
            cost[rows] = ls_cost(phases[rows], plan, q_ref)
    return q_hat, cost, best_idx


def ls_estimate(phases, plan: FrequencyPlan, cfg: EstimatorConfig) -> Estimate:
    """Grid argmin of :func:`ls_cost` over the configured window.

    Ties break toward the smallest range; optional parabolic refinement is
    off by default to match a pure grid search.
    """
    ph = _phases_array(phases)
    if ph.size != plan.n:
        raise ValueError("phase vector length must match the plan")
    q_hat, cost, idx = ls_estimate_batch(ph[None, :], plan, cfg, workers=1)
    refined = bool(cfg.refine and 0 < idx[0] < cfg.size - 1)
    return Estimate(
        q_hat=float(q_hat[0]), cost_at_min=float(cost[0]), grid_index=int(idx[0]), refined=refined
    )


# Rounding allowance of unwrap_ok, in ulps of max(|q_hat|, |q0|).
_UNWRAP_ULPS = 4


def unwrap_ok(q_hat, q0, plan: FrequencyPlan):
    """Correct unwrapping: the range error is within one shortest wavelength.

    Closed inequality, so an error of exactly lambda_min still counts as
    correctly unwrapped.  The error q_hat - q0 is itself rounded (with
    q0 = 5 m, (5 + lambda_min) - 5 lands one ulp above lambda_min), so the
    bound is lambda_min plus a few ulps of max(|q_hat|, |q0|).  ``q_hat``
    may be an array (``q0`` broadcasts); the answer is then a bool array.
    """
    q_hat = np.asarray(q_hat, dtype=float)
    slack = _UNWRAP_ULPS * np.spacing(np.maximum(np.abs(q_hat), np.abs(q0)))
    ok = np.abs(q_hat - q0) <= plan.lambda_min + slack
    return bool(ok) if ok.ndim == 0 else ok
