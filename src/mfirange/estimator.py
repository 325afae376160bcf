"""Least-squares grid-search range estimator.

The estimator minimizes the sum of squared wrapped phase residuals
LS(q) = sum_i wrap(phi_i - c_i*q)^2, c_i = 2*pi*f_i/c, over a regular
range grid, and returns the lowest grid index among the cells of least
cost.  A normalized coherent-sum surrogate of the same cost is provided
for cross-checks.

The grid search is an exact branch and bound (B&B).  The grid is split
into blocks of ``max(1, floor(lambda_min / (3*step)))`` consecutive
cells, so no block spans more than lambda_min/3.  For a block with
centre q_c and half-width h, every cell q in it has

    LS(q) >= LB = sum_i max(0, |wrap(phi_i - c_i*q_c)| - c_i*h)^2,

because |wrap(x)| is the distance from x to 2*pi*Z, a 1-Lipschitz
function, and c_i*q moves by at most c_i*h across the block.  Each
trial visits its blocks in increasing LB, 1, 2, 4, ... blocks a round,
and stops at the first block whose LB - 1e-9*max(LB, 1) is above the
best cost found so far.  Visited
cells are costed with the full scan's per-cell arithmetic and ties go to
the lower grid index, so the answers equal a full scan's bit for bit;
:func:`_scan_block` is that full scan, kept as the test reference.  The
batch path chunks every temporary to about 32 MB and can spread trials
over a thread pool, once a batch gives each thread enough trials to pay
for it (trial-partitioned, so results are identical at any worker
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
# Fewest trials a pool thread is given.  The B&B runs many small numpy
# calls per round, which hold the GIL, so threads overlap only on large
# batches.  Two threads on two cores broke even at about 1000 trials each
# for 21- and 31-frequency plans over 601 cells (refine on), and at
# 250-500 each over 30001 cells; below that they were up to 4.5x slower.
_MIN_TRIALS_PER_WORKER = 1000
_warned_workers: set[str] = set()


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
    """Worker count from MFIRANGE_WORKERS: unset or empty is 1; a value
    that is not a positive integer warns once, naming it, and gives 1."""
    raw = os.environ.get(WORKERS_ENV, "").strip()
    if not raw:
        return 1
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers >= 1:
        return workers
    if raw not in _warned_workers:
        _warned_workers.add(raw)
        warnings.warn(
            f"{WORKERS_ENV}={raw!r} is not a positive integer; using 1 worker",
            RuntimeWarning,
            stacklevel=3,
        )
    return 1


def _scan_block(
    phases: np.ndarray, coef: np.ndarray, grid: np.ndarray, best_val: np.ndarray, best_idx: np.ndarray
) -> None:
    """Fill per-trial (min cost, lowest argmin index) by a full grid scan.

    The reference for the branch and bound of :func:`ls_estimate_batch`:
    the tests check that the B&B returns this scan's (cost, index) bit for
    bit, and check this scan against :func:`ls_cost`.  With both the
    observed phases and the per-chunk model phases pre-wrapped to
    (-pi, pi], the residual lies in (-2*pi, 2*pi) and its wrapped square
    is min(|d|, 2*pi - |d|)^2, which avoids a rounding pass per element;
    :func:`_cell_costs` repeats this arithmetic on the cells B&B visits.
    """
    t = phases.shape[0]
    n_pts = grid.size
    chunk = max(16, min(n_pts, _TARGET_ELEMS // max(1, t)))
    wrapped = np.asarray(phases)  # in (-pi, pi]: ls_estimate_batch wraps on entry
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


# A block is pruned only when LB - _PRUNE_RTOL * max(LB, 1) > best cost.
_PRUNE_RTOL = 1e-9


def _block_width(plan: FrequencyPlan, step: float) -> int:
    """Cells per B&B block: the widest block spans at most lambda_min/3."""
    return max(1, int(plan.lambda_min / (3.0 * step)))


def _blocks(coef, grid, width) -> tuple[np.ndarray, np.ndarray]:
    """Wrapped centre model c_i*q_c and shrink c_i*h of each block, (N, blocks).

    The shrink carries a few ulps of the largest model phase, so rounding
    in the cell costs cannot put a cell below its block's bound.
    """
    starts = np.arange(0, grid.size, width)
    ends = np.minimum(starts + width, grid.size) - 1
    centre_model = _wrap_inplace(coef[:, None] * (0.5 * (grid[starts] + grid[ends])))
    reach = np.abs(coef).max() * max(abs(grid[0]), abs(grid[-1])) + TWO_PI
    shrink = coef[:, None] * (0.5 * (grid[ends] - grid[starts])) + 8.0 * np.spacing(reach)
    return centre_model, shrink


def _lower_bounds(phases, centre_model, shrink) -> np.ndarray:
    """(trials x blocks) LB = sum_i max(0, |wrap(phi_i - c_i*q_c)| - c_i*h)^2.

    A term is 0 where c_i*h >= pi: the block then covers a whole carrier
    cycle of frequency i.
    """
    lb = np.zeros((phases.shape[0], centre_model.shape[1]))
    d = np.empty_like(lb)
    tmp = np.empty_like(lb)
    for i in range(centre_model.shape[0]):
        # min(|d|, 2*pi - |d|) is the residual's distance to 2*pi*Z.
        np.subtract(phases[:, i : i + 1], centre_model[i], out=d)
        np.abs(d, out=d)
        np.subtract(TWO_PI - shrink[i], d, out=tmp)
        d -= shrink[i]
        np.minimum(d, tmp, out=d)
        np.maximum(d, 0.0, out=d)
        np.multiply(d, d, out=d)
        lb += d
    return lb


def _cell_costs(phases, model, rows, blocks) -> np.ndarray:
    """(pairs x width) costs of block ``blocks[p]`` for trial ``rows[p]``.

    ``model`` is the wrapped model of each block's cells, (N, blocks,
    width); the per-cell arithmetic and the plan-order sum are those of
    :func:`_scan_block`, so every cost equals the full scan's bit for bit.
    """
    acc = np.zeros((rows.size, model.shape[2]))
    d = np.empty_like(acc)
    tmp = np.empty_like(acc)
    for i in range(model.shape[0]):
        np.take(model[i], blocks, axis=0, out=d, mode="clip")
        np.subtract(phases[rows, i : i + 1], d, out=d)
        np.abs(d, out=d)
        np.subtract(TWO_PI, d, out=tmp)
        np.minimum(d, tmp, out=d)
        np.multiply(d, d, out=d)
        acc += d
    return acc


def _visit(phases, coef, grid, width, rows, blocks, best_val, best_idx) -> None:
    """Cost the (trial, block) pairs and keep each trial's lowest-index minimum."""
    n_pts = grid.size
    span = np.arange(width)
    per_chunk = max(1, _TARGET_ELEMS // (width * coef.size))
    for a in range(0, rows.size, per_chunk):
        r, b = rows[a : a + per_chunk], blocks[a : a + per_chunk]
        uniq, inv = np.unique(b, return_inverse=True)
        # A short last block repeats the last cell, which changes no argmin.
        cells = np.minimum(uniq[:, None] * width + span, n_pts - 1)
        model = _wrap_inplace(coef[:, None, None] * grid[cells])
        acc = _cell_costs(phases, model, r, inv)
        j = np.argmin(acc, axis=1)
        val = acc[np.arange(r.size), j]
        idx = cells[inv, j]
        order = np.lexsort((idx, val, r))  # per trial: least cost, then index
        first = order[np.r_[True, r[order[1:]] != r[order[:-1]]]]
        r, val, idx = r[first], val[first], idx[first]
        better = (val < best_val[r]) | ((val == best_val[r]) & (idx < best_idx[r]))
        best_val[r[better]] = val[better]
        best_idx[r[better]] = idx[better]


def _bnb_scan(phases, coef, grid, width, centre_model, shrink, best_val, best_idx) -> None:
    """Fill per-trial (min cost, lowest argmin index) by branch and bound.

    Each trial first visits its lowest-bound block.  Its other blocks whose
    slackened bound is not above that cost are the candidates; they are
    visited in increasing bound, the next 1, 2, 4, ... per round, and a
    trial closes at its first candidate whose bound is above its best
    cost.  Trials are chunked so (trials x blocks) arrays stay within the
    chunk size.
    """
    n_blk = centre_model.shape[1]
    per_chunk = max(1, _TARGET_ELEMS // n_blk)
    for a in range(0, phases.shape[0], per_chunk):
        ph = phases[a : a + per_chunk]
        t = ph.shape[0]
        val, idx = best_val[a : a + t], best_idx[a : a + t]
        lb = _lower_bounds(ph, centre_model, shrink)
        lb -= _PRUNE_RTOL * np.maximum(lb, 1.0)
        trials = np.arange(t)
        first = np.argmin(lb, axis=1)
        _visit(ph, coef, grid, width, trials, first, val, idx)
        lb[trials, first] = np.inf
        rows, blocks = np.nonzero(lb <= val[:, None])
        bound = lb[rows, blocks]
        del lb
        order = np.lexsort((bound, rows))
        rows, blocks, bound = rows[order], blocks[order], bound[order]
        start = np.searchsorted(rows, trials)
        count = np.bincount(rows, minlength=t)
        pos = np.zeros(t, dtype=np.int64)
        take = 1
        while True:
            live = np.nonzero(pos < count)[0]
            live = live[bound[start[live] + pos[live]] <= val[live]]
            if live.size == 0:
                break
            ahead = pos[live, None] + np.arange(take)
            keep = ahead < count[live, None]
            nxt = np.where(keep, start[live, None] + ahead, 0)
            # Each trial's bounds are sorted, so the kept ones are a prefix.
            keep &= bound[nxt] <= val[live, None]
            pos[live] += keep.sum(axis=1)
            nxt = nxt[keep]
            _visit(ph, coef, grid, width, rows[nxt], blocks[nxt], val, idx)
            take = min(2 * take, n_blk)  # (trials x take) stays within the chunk


def ls_estimate_batch(
    phases: np.ndarray, plan: FrequencyPlan, cfg: EstimatorConfig, workers: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Grid-search estimates for a (trials x N) block of phase vectors.

    Returns (q_hat, cost_at_min, grid_index) arrays.  Phases are wrapped
    to (-pi, pi] on entry (values already there keep their bits) and must
    be finite.  The search is the exact branch and bound of the module
    docstring: blocks of max(1, floor(lambda_min / (3*step))) cells,
    bounded below by LB = sum_i max(0, |wrap(phi_i - c_i*q_c)| - c_i*h)^2
    (|wrap| is 1-Lipschitz and c_i*q moves by at most c_i*h in the block),
    visited in increasing LB until LB - 1e-9*max(LB, 1) exceeds the best
    cost.  c_i*h carries a few ulps of the largest model phase so rounding
    cannot lift LB above a cell's computed cost.  The result equals a full
    scan's bit for bit, and ties break toward the smallest range (lowest
    grid index).  With ``refine`` set, a 3-point parabolic fit around
    each interior grid minimum sharpens q_hat below the grid step; the
    reported cost is re-evaluated at the refined point.  Worker count
    defaults to the MFIRANGE_WORKERS environment variable, and a batch is
    split only as far as each thread gets ``_MIN_TRIALS_PER_WORKER`` trials;
    partitioning is by trial, so results do not depend on it.
    """
    phases = np.array(phases, dtype=float)
    if phases.ndim != 2 or phases.shape[1] != plan.n:
        raise ValueError("phases must be (trials, N) matching the plan")
    if not np.all(np.isfinite(phases)):
        raise ValueError("phases must be finite")
    _wrap_inplace(phases)
    if cfg.step > plan.lambda_min / 4.0:
        warnings.warn(
            "grid step exceeds lambda_min/4; carrier-period minima may be missed",
            stacklevel=2,
        )
    grid = cfg.grid()
    coef = (TWO_PI / plan.c) * plan.frequencies
    width = _block_width(plan, cfg.step)
    t = phases.shape[0]
    best_val = np.full(t, np.inf)
    best_idx = np.zeros(t, dtype=np.int64)
    if workers is None:
        workers = _default_workers()
    args = (coef, grid, width, *_blocks(coef, grid, width))
    workers = min(workers, t // _MIN_TRIALS_PER_WORKER)
    if workers > 1:
        bounds = np.linspace(0, t, workers + 1, dtype=int)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_bnb_scan, phases[a:b], *args, best_val[a:b], best_idx[a:b])
                for a, b in zip(bounds[:-1], bounds[1:])
            ]
            for f in futures:
                f.result()
    else:
        _bnb_scan(phases, *args, best_val, best_idx)

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
