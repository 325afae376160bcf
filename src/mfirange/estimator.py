"""Least-squares grid-search range estimator.

The estimator minimizes the sum of squared wrapped phase residuals
LS(q) = sum_i wrap(phi_i - c_i*q)^2, c_i = 2*pi*f_i/c, over a regular
range grid, and returns the lowest grid index among the cells of least
cost.  Two exact searches share that contract: a grid of more than
``_COS_CELLS`` = 2048 cells takes a branch and bound over combs, and a
smaller one a cosine bound over every cell.

The branch and bound (B&B) runs over *combs*.  The
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
with one workspace per run, so its temporaries do not grow with the
block.

The cosine bound.  For |x| <= pi, x^2 >= 2*(1 - cos x), and cos is
2*pi-periodic, so every cell q with wrapped model m_i has

    LS(q) >= 2*N - 2*C(q),  C(q) = sum_i cos(phi_i - m_i) = Z . W(q),

with Z = [cos phi; sin phi] of a trial and W(q) = [cos m; sin m] of the
cell.  C is the real part of the coherent sum behind the paper's
ambiguity function.  A search keeps W of every cell, float32 (2N x
cells) from the float64 wrapped model, so the C of a slice of trials is
one (trials x 2N) @ (2N x cells) float32 matrix product, made in chunks
of at most 2^18 multiply-adds (OpenBLAS runs those on one thread; on a
loaded 2-vCPU machine a threaded product can stall for milliseconds).
Each trial's cell j0 of largest C32 is costed in float64, c0.  A cell of
float64 cost at most c0 has C >= N - c0/2, so its float32 C32 reaches
the float32 threshold N - (c0 + F(N))/2 derived below, and so does j0.
A trial with no other cell at the threshold is done, with j0 and c0.  A
trial with a few more has each costed in float64, and the least (cost,
index) wins; one with candidates in more than a quarter of the cells
(low SNR) is visited like one comb of every cell.  At high SNR few
trials have a second candidate, so there is no second pass over whole
combs, and a one-trial search is one small product.  A slice holds
S = min(2^15 // (3*N), 2^17 // cells) trials (218 on a 601-cell grid),
so the (S x cells) float32 sums stay at 0.5 MiB.

The cut between the two searches is a measured crossover.
``LsSearch.run`` on the uniform N = 21 plan, 2000 trials with random
ranges in the window at 13 and 20 dB, refine off, ran 2.4x the B&B's
speed at 601 cells, 1.7-1.8x at 1201, 1.1x at 2401, 0.5x at 4801 and
0.3x at 9601 (best of 9 alternating runs on a 2-vCPU x86-64 machine).

Precision rule: every number that only prunes or filters is float32, and
every number that is returned is float64, computed with the full scan's
arithmetic, so the answers equal a full scan's bit for bit;
``full_scan`` in ``tests/test_estimator.py`` is that scan, the reference.
One kernel, :func:`_cell_costs`, gives every float64 cost (the re-cost,
the refine, :func:`ls_cost`), so ``cost_at_min`` is ``ls_cost`` at q_hat.

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
- The cosine bound's C32 and its threshold are float32; j0 and every
  candidate are costed in float64 by :func:`_cell_costs`.

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
With the same u, the cosine bound's allowance is F(N) = 8*N*(N + 4)*u.
To first order in u:

- cos and sin of phi_i and m_i, computed in float64 and each in [-1, 1],
  move by at most u when cast to float32, so each product z_k*w_k of the
  2N terms of Z . W moves by at most 2*u*|z_k*w_k|;
- a float32 dot product of 2N terms is within 2*N*u*sum_k |z_k*w_k| of
  the exact dot product of its rounded inputs, in any summation order
  and with or without fused multiply-adds;
- sum_k |z_k*w_k| = sum_i |cos phi_i cos m_i| + |sin phi_i sin m_i| <= N.

So |C32 - C| <= 2*N*(N + 1)*u, and the bound 2*N - 2*C32 is within
4*N*(N + 1)*u of 2*N - 2*C.  The threshold N - (c0 + F(N))/2 lies in
(-4*N, N], since c0 <= N*pi^2, so rounding it to float32 moves it by at
most 4*N*u: 8*N*u on the scale of costs.  That is 4*N*(N + 3)*u.  The
rest of F(N), 4*N*(N + 5)*u, covers the kernel's float64 rounding (its
residuals, squares and sum, within about N*(N + 3)*pi^2*2^-53 of the
exact cost of the float64 phases), the float64 rounding of the
threshold and the second-order terms, for N up to a few thousand.

The kernel adds its N terms one after another in plan order, as the
full scan does.  ``np.sum`` and ``np.add.reduce`` over the
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
# LsSearch.run takes a block in slices of T trials, each of its two
# workspace buffers 3*T*N <= this many float64s: 520 trials at N = 21.
_SLICE_ELEMS = 1 << 15
# LsSearch searches a grid of at most this many cells with the cosine
# bound, and a larger one with the comb B&B (the measured crossover is in
# the module docstring).
_COS_CELLS = 2048
# A cosine-bound slice's (trials x cells) float32 bound holds at most this
# many elements.
_COS_ELEMS = 1 << 17
# One matrix product of the cosine bound makes at most this many
# multiply-adds: OpenBLAS runs a product of up to 65536 * 4 of them on one
# thread, and a threaded one can stall for milliseconds on a loaded core.
_GEMM_ELEMS = 1 << 18
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
        # hi - lo, or its count of steps, can overflow to inf.
        if not math.isfinite((self.search_hi - self.search_lo) / self.step):
            raise ValueError("search window holds too many grid steps to count")
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
    frequencies.  The phases are wrapped, and the cost is that of
    :func:`_cell_costs`, the one wrapped-residual cost kernel: the scan,
    its refine and ``montecarlo.pumr_confusion_rate`` (through this
    function) run its arithmetic, so an estimate's ``cost_at_min`` is
    ``ls_cost`` at its q_hat, bit for bit.
    """
    ph = _phases_array(phases)
    if ph.shape[-1:] != (plan.n,):
        raise ValueError(
            f"phases have shape {ph.shape}, but their last axis must hold the plan's "
            f"{plan.n} frequencies"
        )
    ndim = max(ph.ndim - 1, np.ndim(q))
    ph = _wrap_inplace(np.array(ph, dtype=float, ndmin=ndim + 1))
    q = np.array(q, dtype=float, ndmin=ndim)[..., None]
    out = _cell_costs(ph, _model((TWO_PI / plan.c) * plan.frequencies, q))[..., 0]
    return float(out) if out.ndim == 0 else out


def _model(coef, q) -> np.ndarray:
    """The wrapped model phases wrap(c_i*q), (N, *q.shape)."""
    return _wrap_inplace(np.multiply.outer(coef, q))


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


def _cos_allowance(n: int) -> float:
    """F(N) = 8*N*(N + 4)*2^-24, the allowance of the cosine bound in the
    module docstring: a cell whose float64 cost is at most c has a float32
    coherent sum of at least the float32 threshold N - (c + F(N))/2."""
    return 8 * n * (n + 4) * 2.0**-24


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


def _cell_costs(phases, model, combs=None, work=(None, None)) -> np.ndarray:
    """(..., width) costs of the cells of the wrapped ``model`` (N, ...,
    width) for the wrapped ``phases`` (..., N), in their one dtype; the
    middle axes broadcast.  With ``combs``, phase row p takes comb
    ``combs[p]`` of the (N, combs, width) model.  The terms
    are :func:`_wrapped_square`'s, added one after another in plan order;
    in float64 every cost equals the full scan's bit for bit.
    """
    pt = phases.transpose(-1, *range(phases.ndim - 1))[..., None]
    rows = model.shape[1:] if combs is None else (combs.size,) + model.shape[2:]
    acc = np.zeros(np.broadcast_shapes(pt.shape[1:], rows), dtype=model.dtype)
    for f, d, tmp in _frequency_groups(model.shape[0], acc, work):
        m = model[f] if combs is None else np.take(model[f], combs, axis=1, out=d, mode="clip")
        np.subtract(pt[f], m, out=d)
        for term in _wrapped_square(d, tmp):
            acc += term
    return acc


def _visit(phases, coef, grid, table, rows, combs, best_val, best_idx, work=(None, None)) -> None:
    """Cost the (trial, comb) pairs and keep each trial's lowest-index minimum.

    Cells are costed in float32.  Only a cell within 2*E(N) of its pair's
    float32 minimum, and within E(N) of its trial's best cost so far, can
    hold or tie the float64 minimum; those alone are costed again by
    :func:`_cell_costs` in float64, one model row per cell, and the
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
        model = _model(coef, grid[cells]).astype(np.float32)
        ph = phases[r]
        acc = _cell_costs(ph.astype(np.float32), model, inv, work)
        cap = np.minimum(np.add(acc.min(axis=1), 2.0 * e, dtype=np.float64), best_val[r] + e)
        pair, j = np.nonzero(acc <= cap[:, None])
        r, idx = r[pair], cells[inv[pair], j]
        val = _cell_costs(ph[pair], _model(coef, grid[idx, None]), work=work)[:, 0]
        _keep_least(best_val, best_idx, r, val, idx)


def _keep_least(best_val, best_idx, rows, val, idx) -> None:
    """Fold the float64 costs ``val`` of grid cells ``idx``, one per entry
    of ``rows``, into each trial's (least cost, then least index), in place;
    a trial whose cost drops forgets its old index."""
    prev = best_val[rows]
    np.minimum.at(best_val, rows, val)
    low = best_val[rows]
    best_idx[rows[low < prev]] = np.iinfo(np.int64).max
    hit = val == low
    np.minimum.at(best_idx, rows[hit], idx[hit])


def _coherent_sums(phases, phasors, out, rows_per_product, trig=None) -> np.ndarray:
    """The float32 coherent sums C = Z @ ``phasors``, Z = float32 [cos phi,
    sin phi] of the (trials x N) ``phases``, written into the (trials x
    cells) ``out`` and returned, in matrix products of at most
    ``rows_per_product`` trials.  ``trig`` is a float64 buffer of the
    phases' shape, or None."""
    n = phases.shape[1]
    z = np.empty((phases.shape[0], 2 * n), np.float32)
    z[:, :n] = np.cos(phases, out=trig)
    z[:, n:] = np.sin(phases, out=trig)
    for a in range(0, phases.shape[0], rows_per_product):
        b = a + rows_per_product
        np.matmul(z[a:b], phasors, out=out[a:b])
    return out


class LsSearch:
    """The grid search of one (plan, config), built once for any number of
    phase blocks.

    It holds the plan's ``coef`` c_i = 2*pi*f_i/c and the grid, and the
    read-only arrays of one of the module docstring's two searches.  A grid
    of at most ``_COS_CELLS`` cells takes the cosine bound: ``phasors`` is
    the float32 [cos m; sin m] of the float64 wrapped model m, (2N, cells),
    and ``combs`` is None.  A larger grid takes the comb B&B: ``combs`` is
    the cell table and the float32 cm_i, s_i and 2*pi - s_i of every comb,
    each (N, combs, 1), and ``phasors`` is None.  Building it is the one
    place for checks that depend on both the plan and the config: a step
    above lambda_min/4 warns here, once per search.

    :meth:`run` follows the module's precision rule: bounds and cell costs
    that only prune or filter are float32, each within its allowance of
    its float64 value (E(N) for the B&B, F(N) for the cosine bound), and
    every returned cost is the float64 kernel's, :func:`_cell_costs`, which
    adds the N terms in plan order; ``np.sum`` or ``np.add.reduce`` over
    frequencies would change the bits.  So the result equals a full scan's
    bit for bit, and ties break toward the smallest range (lowest grid
    index).  With ``refine`` set, a 3-point parabolic fit around each
    interior grid minimum sharpens q_hat below the grid step; its centre
    cost is the search's, and the reported cost is :func:`ls_cost` at the
    refined point.
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
        n, cells = plan.n, self.grid.size
        # Trials per slice of run: (trials, 3, N) within _SLICE_ELEMS, and
        # the (trials x cells) or (trials x combs) float32 bounds within
        # _COS_ELEMS or _TARGET_ELEMS.
        if cells <= _COS_CELLS:
            model = _model(self.coef, self.grid)
            self.phasors = np.concatenate([np.cos(model), np.sin(model)]).astype(np.float32)
            self.combs = None
            # Trials per matrix product, at most _GEMM_ELEMS multiply-adds.
            self.gemm_rows = max(1, _GEMM_ELEMS // (2 * n * cells))
            bound_rows = _COS_ELEMS // cells
        else:
            table, centre_model, shrink = _combs(self.coef, self.grid, cfg.step)
            self.combs = (table, *_bound_arrays(centre_model, shrink))
            self.phasors = None
            bound_rows = _TARGET_ELEMS // table.shape[0]
        self.slice = max(1, min(_SLICE_ELEMS // (3 * n), bound_rows))
        for arr in (self.grid, self.coef, *(self.combs or (self.phasors,))):
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
        (-pi, pi] there (values already there keep their bits).  The wrap
        and the per-frequency loops work in one workspace per run, two
        buffers of three times a slice's phases.  No output bit depends on
        the slice size: trials are independent and the cost kernel sums
        per row.  On a 601-cell N = 21 grid with refine on, the traced
        temporaries beside the outputs (24 bytes a trial) take about
        1.0 MiB at 20 dB, where the whole block took 1.4 / 5.4 / 53.5 MiB at
        1 000 / 4 000 / 40 000 trials."""
        phases = np.asarray(phases, dtype=float)
        n = self.plan.n
        if phases.ndim != 2 or phases.shape[1] != n:
            raise ValueError(
                f"phases have shape {phases.shape}, but must be (trials, {n}) for the "
                f"plan's {n} frequencies"
            )
        # NaN and inf reach the minimum or maximum: no block-sized temporary.
        if phases.size and not (np.isfinite(phases.min()) and np.isfinite(phases.max())):
            raise ValueError("phases must be finite")
        t = phases.shape[0]
        q_hat, cost, idx = np.empty(t), np.full(t, np.inf), np.zeros(t, dtype=np.int64)
        buf = np.empty((min(t, self.slice), n))
        # Three slices' phases each; a group buffer that does not fit is new.
        work = tuple(np.empty(3 * buf.size) for _ in range(2))
        # The cosine bound's (slice x cells) coherent sums.
        sums = None if self.phasors is None else np.empty((buf.shape[0], self.grid.size), np.float32)
        for a in range(0, t, self.slice):
            b, ph = a + self.slice, buf[: t - a]
            np.copyto(ph, phases[a:b])
            _wrap_inplace(ph, _buffer(work[0], ph.shape))
            if sums is None:
                self._branch_and_bound(ph, cost[a:b], idx[a:b], work)
            else:
                self._cosine_search(ph, sums[: ph.shape[0]], cost[a:b], idx[a:b], work)
            self._refine(ph, q_hat[a:b], cost[a:b], idx[a:b], work)
        return q_hat, cost, idx

    def _branch_and_bound(self, ph, cost, idx, work) -> None:
        """Fill one slice's ``cost`` (from inf) and ``idx`` for its wrapped
        phases ``ph`` by the comb B&B.  Each trial visits its comb of least
        bound, then every comb whose certified bound is not above the cost
        that visit found, all trials' in one call; the cells of any other
        comb cost more, so they can neither win nor tie.
        """
        grid, table = self.grid, self.combs[0]
        trials = np.arange(ph.shape[0])
        lb = _lower_bounds(ph, *self.combs[1:], work)
        first = np.argmin(lb, axis=1)
        _visit(ph, self.coef, grid, table, trials, first, cost, idx, work)
        lb[trials, first] = np.inf
        rows, combs = np.nonzero(lb <= cost[:, None])
        del lb
        _visit(ph, self.coef, grid, table, rows, combs, cost, idx, work)

    def _cosine_search(self, ph, sums, cost, idx, work) -> None:
        """Fill one slice's ``cost`` and ``idx`` for its wrapped phases
        ``ph`` by the cosine bound, with ``sums`` its (trials x cells)
        float32 workspace.  Each trial's cell of largest coherent sum is
        costed in float64; every cell whose sum reaches the threshold that
        cost sets is a candidate, and a trial with more than one has all of
        its candidates costed, at most ``_SLICE_ELEMS // N`` cells per call,
        or, with candidates in more than a quarter of the cells, is visited
        by :func:`_visit` like one comb of every cell.
        """
        n = self.plan.n
        _coherent_sums(ph, self.phasors, sums, self.gemm_rows, _buffer(work[1], ph.shape))
        np.argmax(sums, axis=1, out=idx)
        cost[:] = _cell_costs(ph, _model(self.coef, self.grid[idx, None]), work=work)[:, 0]
        floor = (n - 0.5 * (cost + _cos_allowance(n))).astype(np.float32)
        # The rows whose largest sum besides the first cell's reaches the floor.
        sums[np.arange(sums.shape[0]), idx] = -np.inf
        multi = np.nonzero(sums.max(axis=1) >= floor)[0]
        is_cand = sums[multi] >= floor[multi, None]
        # Low SNR: float32 costs of a whole row filter many candidates.
        wide = np.count_nonzero(is_cand, axis=1) > self.grid.size // 4
        if wide.any():
            table, rows = np.arange(self.grid.size)[None, :], multi[wide]
            _visit(ph, self.coef, self.grid, table, rows, np.zeros_like(rows), cost, idx, work)
        rows, cells = np.nonzero(is_cand[~wide])
        rows = multi[~wide][rows]
        per_call = max(1, _SLICE_ELEMS // n)
        for a in range(0, rows.size, per_call):
            r, j = rows[a : a + per_call], cells[a : a + per_call]
            val = _cell_costs(ph[r], _model(self.coef, self.grid[j, None]), work=work)[:, 0]
            _keep_least(cost, idx, r, val, j)

    def _refine(self, ph, q_hat, cost, idx, work) -> None:
        """Set one slice's ``q_hat`` from its grid minima ``idx``, and refine
        the estimates :meth:`refines` picks, with their ``cost``."""
        grid, step = self.grid, self.cfg.step
        np.take(grid, idx, out=q_hat)
        rows = np.nonzero(self.refines(idx))[0]
        if rows.size:
            ph_r, q_2 = ph[rows], grid[idx[rows, None] + [-1, 1]]
            c_lo, c_hi = _cell_costs(ph_r, _model(self.coef, q_2), work=work).T
            denom = c_lo - 2.0 * cost[rows] + c_hi
            ok = denom > 0
            delta = np.zeros(rows.size)
            delta[ok] = 0.5 * (c_lo[ok] - c_hi[ok]) / denom[ok] * step
            np.clip(delta, -step / 2.0, step / 2.0, out=delta)
            q_ref = q_hat[rows] + delta
            q_hat[rows] = q_ref
            cost[rows] = _cell_costs(ph_r, _model(self.coef, q_ref[:, None]), work=work)[:, 0]


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


def batch_slice(plan: FrequencyPlan, cfg: EstimatorConfig) -> int:
    """Trials per slice of the search :func:`ls_estimate_batch` runs for
    (plan, cfg), ``LsSearch(plan, cfg).slice``, built here if it is not
    the cached search.  A call searches more trials than this a slice at a
    time, with one slice's temporaries, and pays a fixed cost per call, so
    a caller with many small blocks can stack them up to this many trials
    per call at no extra memory."""
    return _search(plan, cfg).slice


def ls_estimate(phases, plan: FrequencyPlan, cfg: EstimatorConfig) -> Estimate:
    """Grid argmin of :func:`ls_cost` over the configured window, for one
    phase vector.

    Ties break toward the smallest range; optional parabolic refinement is
    off by default to match a pure grid search.  ``phases`` must be one
    vector of the plan's N phases.
    """
    ph = _phases_array(phases)
    if ph.shape != (plan.n,):
        got = f"{ph.size} phases" if ph.ndim == 1 else f"shape {ph.shape}"
        raise ValueError(f"phase vector has {got}, but the plan has {plan.n} frequencies")
    search = _search(plan, cfg)
    q_hat, cost, idx = search.run(ph[None, :])
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
