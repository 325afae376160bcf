"""Least-squares grid-search range estimator.

The estimator minimizes the sum of squared wrapped phase residuals
LS(q) = sum_i wrap(phi_i - c_i*q)^2, c_i = 2*pi*f_i/c, over a regular
range grid, and returns the lowest grid index among the cells of least
cost.

The grid search is an exact branch and bound (B&B) over *combs*.  The
cost splits like the paper's two regimes: the frequency spread sets the
envelope and the mean frequency the carrier cycle.  With cbar =
(c_max + c_min)/2 and delta_i = c_i - cbar, the grid is tiled by
super-blocks of consecutive cells.  A cell q = q_s + x of a super-block
with centre q_s gets the carrier class k = round(wrap(cbar*x)/(2*pi/n_u))
mod n_u, with u_k = 2*pi*k/n_u and v = wrap(cbar*x - u_k); a comb is
the cells of one super-block that share one class.  As
phi_i - c_i*q == (phi_i - c_i*q_s - u_k) - v - delta_i*x (mod 2*pi) and
|wrap(x)|, the distance from x to 2*pi*Z, is 1-Lipschitz, every cell q
of a comb has

    LS(q) >= LB = sum_i max(0, |wrap(phi_i - cm_i)| - s_i)^2,
    cm_i = wrap(c_i*q_s + u_k),  s_i = max|v| + |delta_i|*max|x| + pad,

where the maxima run over the comb's cells in a full super-block and the
pad is 16 ulps of the largest model phase, so rounding in the cell costs
cannot put a cell below its comb's bound.  The layout comes from the plan
and the grid alone.  A narrowband plan (4*pi*max|delta_i| < c_max, that is B/f_max <
1/(2*pi)) gets n_u = max(3, round(min(sqrt(G), sqrt(2*pi / (max|delta_i|
* step * sqrt(G)))))) classes and super-blocks of 2*H/step cells (at most
G, the grid size) with max|delta_i|*H = pi/n_u: about sqrt(G) combs of
about sqrt(G) cells, which balances the bound pass (per comb) against a
visit (per cell).  Each tooth of a comb, its cells within one carrier
cycle, spans at most lambda_bar/n_u <= lambda_bar/3, lambda_bar =
2*pi/cbar.  A wideband plan falls back to cbar = 0 and n_u = 1, which
makes the combs contiguous blocks of max(1, floor(lambda_min/(3*step)))
cells with s_i = c_i*h for a block of half-width h.  Each trial is
searched in two passes: it visits its comb of least bound, and then, in
one batch, every other comb whose bound is not above the cost that first
comb gave; no other comb can hold a cell of that cost or less.  Ties go
to the lower grid index.  The grid and the comb layout depend on the
plan and the config alone, so one :class:`LsSearch` per (plan, config)
holds them and searches any number of phase blocks.  It takes a block
in slices of S = min(2^15 // (3*N), 4e6 // combs) trials (520 at N = 21)
with one workspace per run, so its temporaries, about 1.1 MiB on a
601-cell N = 21 grid, do not grow with the block.

Precision rule: every number that only prunes or filters is float32, and
every number that is returned is float64, computed with the full scan's
arithmetic, so the answers equal a full scan's bit for bit;
``full_scan`` in ``tests/test_estimator.py`` is that scan, the reference.

- The bound of a comb is max(0, LB32 - E(N)), where LB32 is LB summed in
  float32 from float32 copies of phi_i, cm_i, s_i and 2*pi - s_i.  It is
  at most LB, and the pad in s_i keeps LB at or below the float64 cost
  of every cell of the comb.
- A visit costs its cells in float32, from the float64-wrapped model
  cast to float32.  Only a cell within 2*E(N) of the float32 minimum of
  its (trial, comb) pair, and within E(N) of the trial's best float64
  cost so far, is costed again in float64 by :func:`_cell_costs`.  A cell of
  least float64 cost passes both tests: its float32 cost is within E(N)
  of its float64 cost, which is at most the float64 cost of any other
  cell of the pair and of the trial's best so far.

With u = 2^-24, each float32 value is within E(N) = N*(N + 18)*pi^2*u of
its float64 counterpart.  The terms of the error, each to first order
in u:

- casting phi and a model or centre phase, both in [-pi, pi], to float32
  moves each by at most pi*u; their difference d, |d| <= 2*pi, is
  rounded once more, so d is within 4*pi*u;
- the distance min(|d|, 2*pi - |d|), with 2*pi rounded to float32 and
  the difference rounded once, is then within 8*pi*u.  So is a bound
  term max(0, min(|d| - s, (2*pi - s) - |d|)) when s < pi, with s and
  2*pi - s cast to float32 (at most pi*u and 2*pi*u); when s >= pi the
  term is 0 in both precisions, since rounding keeps 2*pi - s <= s;
- squaring a value of at most pi, and rounding the square, adds
  2*pi*8*pi*u + pi^2*u = 17*pi^2*u per term;
- a float32 sum of N terms of at most pi^2 each is within
  (N - 1)*N*pi^2*u of the exact sum of the rounded terms.

That is N*(N + 16)*pi^2*u.  The last 2*N*pi^2*u of E(N) covers the
rounding of LB32 - E(N) (at most N*pi^2*u), the float64 sums'
own rounding and the second-order terms, for N up to a few thousand.
The float64 re-cost adds its N terms one after another in plan order,
as the full scan does.  ``np.sum`` and ``np.add.reduce`` over the
frequency axis sum pairwise and change the last bits of the costs, and
with them the argmin of some trials.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import TWO_PI, FrequencyPlan, PhaseVector, _wrap_inplace, check_positive

# A visit's (pairs x cells x N) model and a slice's (trials x combs)
# bounds stay within this many elements.
_TARGET_ELEMS = 4_000_000
# LsSearch.run takes a block in slices whose (trials, 3, N) refine array
# holds at most this many float64 elements: 520 trials at N = 21.
_SLICE_ELEMS = 1 << 15
# The per-frequency loops of the B&B take as many frequencies per numpy
# call as fit in this many elements: a large block runs one frequency at
# a time on cache-sized arrays, and a block of a few trials makes a few
# calls instead of several per frequency.
_GROUP_ELEMS = 1 << 16


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
        check_positive("step", self.step)
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


def ls_cost(phases, plan: FrequencyPlan, q) -> np.ndarray | float:
    """Sum of squared wrapped residuals sum_i wrap(phi_i - 2*pi*q*f_i/c)^2.

    Zero exactly at the true range for noise-free phases, and at every
    UMR-multiple offset.  ``phases`` is (..., N) and ``q`` broadcasts
    against its leading axes; the last axis of the model is the plan's
    frequencies.  This is the one wrapped-residual cost of the package:
    the parabolic refine of :meth:`LsSearch.run` runs its arithmetic,
    :func:`_residual_cost`, and ``montecarlo.pumr_confusion_rate`` calls it
    for its two-point comparison.  The tests
    check the scan kernels against it: the full-scan reference of
    ``tests/test_estimator.py`` and the float64 re-cost :func:`_cell_costs`
    of the branch and bound.  Its frequency sum is numpy's pairwise
    ``sum``, run per row, and the refined estimates' bits depend on it, so
    it is not the scan's plan-order sum.
    """
    ph = _phases_array(phases)
    if ph.shape[-1:] != (plan.n,):
        raise ValueError("phase vector length must match the plan")
    out = _residual_cost(ph, plan, np.asarray(q, dtype=float))
    return float(out) if out.ndim == 0 else out


def _residual_cost(ph, plan, q, work=(None, None)) -> np.ndarray:
    """:func:`ls_cost`'s arithmetic, its residual and the wrap's temporary
    taken from the two flat buffers ``work`` (see :func:`_buffer`)."""
    shape = np.broadcast_shapes(ph.shape, q.shape + (plan.n,))
    d = np.multiply((TWO_PI / plan.c) * q[..., None], plan.frequencies, out=_buffer(work[0], shape))
    np.subtract(ph, d, out=d)
    _wrap_inplace(d, _buffer(work[1], shape))
    return np.square(d, out=d).sum(axis=-1)


def _buffer(flat, shape, dtype=np.float64) -> np.ndarray:
    """A C-ordered array of ``shape`` and ``dtype``: a view of the front of
    the flat float64 buffer ``flat`` where it fits there, else a new one."""
    size = math.prod(shape)
    if flat is None or size * np.dtype(dtype).itemsize > flat.nbytes:
        return np.empty(shape, dtype)
    return flat.view(dtype)[:size].reshape(shape)


def _wrapped_square(d: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """min(|d|, 2*pi - |d|)^2, the wrapped square of a residual d in
    (-2*pi, 2*pi), written into ``d`` and returned; ``tmp`` is overwritten.
    The constant 2*pi takes the dtype of ``d``."""
    np.abs(d, out=d)
    np.subtract(TWO_PI, d, out=tmp)
    np.minimum(d, tmp, out=d)
    return np.multiply(d, d, out=d)


def _allowance(n: int) -> float:
    """E(N) = N*(N + 18)*pi^2*2^-24, the float32 rounding allowance of the
    module docstring: a bound's or a cell cost's float32 value is within
    E(N) of its float64 counterpart."""
    return n * (n + 18) * math.pi**2 * 2.0**-24


def _layout(coef, step, n_pts) -> tuple[float, int, int]:
    """(cbar, n_u, super-block size in cells) of the module docstring's rule."""
    c_max = float(coef.max())
    spread = 0.5 * (c_max - float(coef.min()))
    if 4.0 * math.pi * spread >= c_max:
        # Wideband: contiguous blocks of at most lambda_min/3.
        return 0.0, 1, max(1, int(TWO_PI / (3.0 * c_max * step)))
    # About sqrt(n_pts) combs, with spread*H = pi/n_u for the super-block
    # half-width H, so each tooth of a comb spans at most lambda_bar/n_u.
    root = math.sqrt(n_pts)
    if spread == 0.0:
        return c_max, max(3, round(root)), n_pts
    n_u = max(3, round(min(root, math.sqrt(TWO_PI / (spread * step * root)))))
    return c_max - spread, n_u, min(n_pts, max(1, int(TWO_PI / (n_u * spread * step))))


def _combs(coef, grid, step) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """B&B comb layout of the module docstring for a plan's ``coef`` and a grid.

    Returns the cell table (combs x width), each row a comb's grid indices
    in increasing order, and the centre model and shrink, (N x combs).  One
    super-block's class pattern is tiled over the grid, so no sort runs
    over the whole grid.  A comb with fewer cells than the widest repeats
    its last cell, which changes no argmin.  The clipped last super-block
    keeps its pattern's centre and maxima; its past-the-end cells repeat
    the comb's last real cell, and a comb with no real cell is dropped.
    """
    n_pts = grid.size
    c_bar, n_u, size = _layout(coef, step, n_pts)
    x = (np.arange(size) - 0.5 * (size - 1)) * step
    w = _wrap_inplace(c_bar * x)
    turns = np.rint(w * (n_u / TWO_PI))
    v = w - turns * (TWO_PI / n_u)
    # Class j holds the cells whose turn is j - half, u = (j - half)*2*pi/n_u.
    half = (n_u - 1) // 2
    cls = (turns.astype(np.int64) + half) % n_u
    order = np.argsort(cls, kind="stable")
    counts = np.bincount(cls, minlength=n_u)
    classes = np.nonzero(counts)[0]
    counts = counts[classes]
    first = np.cumsum(counts) - counts
    width = int(counts.max())
    pat = order[first[:, None] + np.minimum(np.arange(width), counts[:, None] - 1)]
    v_max = np.abs(v)[pat].max(axis=1)
    x_max = np.abs(x)[pat].max(axis=1)

    n_super = -(-n_pts // size)
    base = np.arange(n_super) * size
    table = base[:, None, None] + pat  # (super-blocks, classes, width)
    # Clipped last super-block: past-the-end cells repeat the comb's last
    # real cell (rows are ascending), and a comb with no real cell goes.
    n_real = (table[-1] < n_pts).sum(axis=1)
    last_real = table[-1, np.arange(classes.size), np.maximum(n_real - 1, 0)]
    np.minimum(table[-1], last_real[:, None], out=table[-1])
    keep = np.ones((n_super, classes.size), dtype=bool)
    keep[-1] = n_real > 0
    centre = grid[0] + step * (base + 0.5 * (size - 1))
    u = (classes - half) * (TWO_PI / n_u)
    centre_model = _wrap_inplace(coef[:, None, None] * centre[:, None] + u)[:, keep]
    reach = coef.max() * (abs(grid[0]) + abs(grid[-1] - grid[0]) + size * step) + TWO_PI
    shrink = v_max + np.abs(coef - c_bar)[:, None] * x_max + 16.0 * np.spacing(reach)
    shrink = np.broadcast_to(shrink[:, None, :], (coef.size, n_super, classes.size))[:, keep]
    return table[keep], centre_model, shrink


def _bound_arrays(centre_model, shrink) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Float32 cm_i, s_i and 2*pi - s_i, each (N, combs, 1), from the
    float64 (N, combs) centre model and shrink of :func:`_combs`."""
    shape = centre_model.shape + (1,)
    return tuple(
        np.reshape(a, shape).astype(np.float32) for a in (centre_model, shrink, TWO_PI - shrink)
    )


def _frequency_groups(n, acc, work=(None, None)):
    """(frequency slice, d, tmp) for each group of the N frequencies of a
    per-frequency loop that adds into ``acc``: as many frequencies per
    group as fit in ``_GROUP_ELEMS`` elements, with the two (group,
    *acc.shape) buffers reused from group to group, views of the two flat
    buffers ``work`` (see :func:`_buffer`)."""
    group = max(1, min(n, _GROUP_ELEMS // max(1, acc.size)))
    d_buf, tmp_buf = (_buffer(w, (group,) + acc.shape, acc.dtype) for w in work)
    for i in range(0, n, group):
        k = min(group, n - i)
        yield slice(i, i + k), d_buf[:k], tmp_buf[:k]


def _lower_bounds(phases, centre_model, shrink, wrap_shrink, work=(None, None)) -> np.ndarray:
    """(trials x combs) certified LB = max(0, LB32 - E(N)), a view of a
    (combs x trials) float32 array.

    LB32 is sum_i max(0, min(|d_i| - s_i, (2*pi - s_i) - |d_i|))^2 with
    d_i = phi_i - cm_i, all in float32; the arguments are those of
    :func:`_bound_arrays`.  min(|d|, 2*pi - |d|) is the residual's
    distance to 2*pi*Z, and a term is 0 where s_i >= pi: the comb's
    residuals of frequency i then reach every phase.
    """
    n, combs = centre_model.shape[:2]
    ph = np.ascontiguousarray(phases.T, dtype=np.float32)[:, None, :]
    lb = np.zeros((combs, ph.shape[2]), dtype=np.float32)
    for f, d, tmp in _frequency_groups(n, lb, work):
        np.subtract(ph[f], centre_model[f], out=d)
        np.abs(d, out=d)
        np.subtract(wrap_shrink[f], d, out=tmp)
        d -= shrink[f]
        np.minimum(d, tmp, out=d)
        np.maximum(d, 0, out=d)
        for term in np.multiply(d, d, out=d):
            lb += term
    lb -= _allowance(n)
    return np.maximum(lb, 0, out=lb).T


def _cell_costs(phases, model, combs, work=(None, None)) -> np.ndarray:
    """(pairs x width) costs of comb ``combs[p]`` for the phase vector
    ``phases[p]``, in the dtype of ``model``.

    ``model`` is the wrapped model of each comb's cells, (N, combs,
    width), and ``phases`` (pairs x N) is of the same dtype.  The terms
    are :func:`_wrapped_square`'s, added one after another in plan order;
    in float64 every cost equals the full scan's bit for bit.
    """
    acc = np.zeros((combs.size, model.shape[2]), dtype=model.dtype)
    for f, d, tmp in _frequency_groups(model.shape[0], acc, work):
        np.take(model[f], combs, axis=1, out=d, mode="clip")
        np.subtract(phases.T[f, :, None], d, out=d)
        for term in _wrapped_square(d, tmp):
            acc += term
    return acc


def _visit(phases, coef, grid, table, rows, combs, best_val, best_idx, work=(None, None)) -> None:
    """Cost the (trial, comb) pairs and keep each trial's lowest-index minimum.

    Cells are costed in float32.  Only a cell within 2*E(N) of its pair's
    float32 minimum, and within E(N) of its trial's best cost so far, can
    hold or tie the float64 minimum; those alone are costed again by
    :func:`_cell_costs` in float64, each as a comb of one cell, and the
    least (cost, grid index) of each trial wins.
    ``best_val`` and ``best_idx`` are updated in place.  A chunk of pairs
    holds ``_TARGET_ELEMS`` model elements: about 950 pairs on a 30 001-cell
    N = 21 grid, so a 50-trial block's visits are one chunk each.
    """
    e = _allowance(coef.size)
    per_chunk = max(1, _TARGET_ELEMS // (table.shape[1] * coef.size))
    for a in range(0, rows.size, per_chunk):
        r, b = rows[a : a + per_chunk], combs[a : a + per_chunk]
        uniq, inv = np.unique(b, return_inverse=True)
        cells = table[uniq]
        model = _wrap_inplace(coef[:, None, None] * grid[cells]).astype(np.float32)
        ph = phases[r]
        acc = _cell_costs(ph.astype(np.float32), model, inv, work)
        cap = np.minimum(np.add(acc.min(axis=1), 2.0 * e, dtype=np.float64), best_val[r] + e)
        pair, j = np.nonzero(acc <= cap[:, None])
        r, idx = r[pair], cells[inv[pair], j]
        model64 = _wrap_inplace(coef[:, None, None] * grid[idx][:, None])
        val = _cell_costs(ph[pair], model64, np.arange(idx.size), work)[:, 0]
        # Per trial: least cost, then least index; a trial whose cost
        # drops forgets its old index.
        prev = best_val[r]
        np.minimum.at(best_val, r, val)
        low = best_val[r]
        best_idx[r[low < prev]] = np.iinfo(np.int64).max
        hit = val == low
        np.minimum.at(best_idx, r[hit], idx[hit])


class LsSearch:
    """The grid search of one (plan, config), built once for any number of
    phase blocks.

    It holds the plan's ``coef`` c_i = 2*pi*f_i/c, the grid and the comb
    layout of the module docstring, all read-only: ``combs`` is the cell
    table and the float32 cm_i, s_i and 2*pi - s_i of every comb, each
    (N, combs, 1), built once here.  Building it is the one place for
    checks that depend on both the plan and the config: a step above
    lambda_min/4 warns here, once per search.

    :meth:`run` is the exact branch and bound of the module docstring:
    each trial visits its comb of least bound, then every other comb
    whose bound is not above the cost that comb gave.  It follows the
    module's precision rule: bounds and cell costs that only prune or
    filter are float32, and within E(N) = N*(N + 18)*pi^2*2^-24 of their
    float64 values (derived in the module docstring), so a bound is taken
    as max(0, LB32 - E(N)) and a cell is costed again in float64 when its
    float32 cost is within 2*E(N) of its comb's float32 minimum.  The
    float64 re-cost adds the N terms in plan order; ``np.sum`` or
    ``np.add.reduce`` over frequencies would change the bits.  So the
    result equals a full scan's bit for bit, and ties break toward the
    smallest range (lowest grid index).  With ``refine`` set, a 3-point
    parabolic fit around each interior grid minimum sharpens q_hat below
    the grid step; the reported cost is re-evaluated at the refined point.
    """

    def __init__(self, plan: FrequencyPlan, cfg: EstimatorConfig):
        if cfg.step > plan.lambda_min / 4.0:
            warnings.warn(
                "grid step exceeds lambda_min/4; carrier-period minima may be missed",
                stacklevel=2,
            )
        self.plan = plan
        self.cfg = cfg
        self.grid = cfg.grid()
        self.coef = (TWO_PI / plan.c) * plan.frequencies
        table, centre_model, shrink = _combs(self.coef, self.grid, cfg.step)
        self.combs = (table, *_bound_arrays(centre_model, shrink))
        # Trials per slice of run: the refine's (trials, 3, N) array within
        # _SLICE_ELEMS and the (trials x combs) bounds within _TARGET_ELEMS.
        self.slice = max(1, min(_SLICE_ELEMS // (3 * plan.n), _TARGET_ELEMS // table.shape[0]))
        for arr in (self.grid, self.coef, *self.combs):
            arr.setflags(write=False)

    def refines(self, grid_index: np.ndarray) -> np.ndarray:
        """Which estimates :meth:`run` refines: those at an interior grid
        index, when the config sets ``refine``."""
        return self.cfg.refine & (grid_index > 0) & (grid_index < self.grid.size - 1)

    def run(self, phases) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(q_hat, cost_at_min, grid_index) arrays for a (trials x N)
        block of finite phase vectors.

        The block is checked once, then searched in slices of
        ``self.slice`` trials, each copied into one buffer and wrapped to
        (-pi, pi] there (values already there keep their bits).  The refine
        and the per-frequency loops work in one workspace per run, two
        buffers of a slice's refine size.  No output bit depends on the
        slice size: trials are independent and :func:`ls_cost` sums per
        row.  On a 601-cell N = 21 grid with refine on, the traced
        temporaries beside the outputs (24 bytes a trial) take about 1.1 MiB,
        where the whole block took 1.4 / 5.4 / 53.5 MiB at 1 000 / 4 000 /
        40 000 trials."""
        phases = np.asarray(phases, dtype=float)
        if phases.ndim != 2 or phases.shape[1] != self.plan.n:
            raise ValueError("phases must be (trials, N) matching the plan")
        # NaN and inf reach the minimum or maximum: no block-sized temporary.
        if phases.size and not (np.isfinite(phases.min()) and np.isfinite(phases.max())):
            raise ValueError("phases must be finite")
        t = phases.shape[0]
        q_hat, cost, idx = np.empty(t), np.full(t, np.inf), np.zeros(t, dtype=np.int64)
        buf = np.empty((min(t, self.slice), self.plan.n))
        # Sized for the refine of one slice; a group buffer that does not fit is new.
        work = tuple(np.empty(3 * buf.size) for _ in range(2))
        for a in range(0, t, self.slice):
            b, ph = a + self.slice, buf[: t - a]
            np.copyto(ph, phases[a:b])
            self._run_slice(ph, q_hat[a:b], cost[a:b], idx[a:b], work)
        return q_hat, cost, idx

    def _run_slice(self, ph, q_hat, cost, idx, work) -> None:
        """Fill one slice's outputs, ``cost`` from inf and ``idx`` from 0,
        for its phases ``ph``, wrapped here in place.  Each trial visits
        its comb of least bound, then every comb whose certified bound is
        not above the cost that visit found, all trials' in one call; the
        cells of any other comb cost more, so they can neither win nor tie.
        """
        grid, step, table = self.grid, self.cfg.step, self.combs[0]
        _wrap_inplace(ph, _buffer(work[0], ph.shape))
        trials = np.arange(ph.shape[0])
        lb = _lower_bounds(ph, *self.combs[1:], work)
        first = np.argmin(lb, axis=1)
        _visit(ph, self.coef, grid, table, trials, first, cost, idx, work)
        lb[trials, first] = np.inf
        rows, combs = np.nonzero(lb <= cost[:, None])
        del lb
        _visit(ph, self.coef, grid, table, rows, combs, cost, idx, work)
        np.take(grid, idx, out=q_hat)
        rows = np.nonzero(self.refines(idx))[0]
        if rows.size:
            q3 = grid[idx[rows, None] + np.array([-1, 0, 1])]
            c3 = _residual_cost(ph[rows, None, :], self.plan, q3, work)
            denom = c3[:, 0] - 2.0 * c3[:, 1] + c3[:, 2]
            ok = denom > 0
            delta = np.zeros(rows.size)
            delta[ok] = 0.5 * (c3[ok, 0] - c3[ok, 2]) / denom[ok] * step
            np.clip(delta, -step / 2.0, step / 2.0, out=delta)
            q_ref = q_hat[rows] + delta
            q_hat[rows] = q_ref
            cost[rows] = _residual_cost(ph[rows], self.plan, q_ref, work)


# The search of the last (plan, config) asked for.  A campaign loops the
# SNRs inside each plan, so it builds one search per plan, and at most one
# search is held between calls.
_search = functools.lru_cache(maxsize=1)(LsSearch)


def ls_estimate_batch(
    phases: np.ndarray, plan: FrequencyPlan, cfg: EstimatorConfig, workers: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Grid-search estimates for a (trials x N) block of phase vectors:
    ``LsSearch(plan, cfg).run(phases)``, reusing the search of the last
    (plan, cfg).

    ``workers`` is ignored; it stays until the benchmark scripts under
    ``perfbench/`` stop passing it.
    """
    return _search(plan, cfg).run(phases)


def ls_estimate(phases, plan: FrequencyPlan, cfg: EstimatorConfig) -> Estimate:
    """Grid argmin of :func:`ls_cost` over the configured window, for one
    phase vector.

    Ties break toward the smallest range; optional parabolic refinement is
    off by default to match a pure grid search.
    """
    search = _search(plan, cfg)
    q_hat, cost, idx = search.run(_phases_array(phases)[None, ...])
    return Estimate(
        q_hat=float(q_hat[0]),
        cost_at_min=float(cost[0]),
        grid_index=int(idx[0]),
        refined=bool(search.refines(idx)[0]),
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
