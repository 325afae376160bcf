"""Least-squares grid-search range estimator.

The estimator minimizes the sum of squared wrapped phase residuals
LS(q) = sum_i wrap(phi_i - c_i*q)^2, c_i = 2*pi*f_i/c, over a regular
range grid, and returns the lowest grid index among the cells of least
cost.  It visits *combs* of cells, and filters each comb's cells by their
coherent sums.  A grid of more than ``_COS_CELLS`` = 1600 cells is laid
out in many combs, with a bound pass that picks the combs to visit; a
smaller grid is one comb of every cell, visited by every trial.

The combs.  The cost splits like the paper's two regimes: the frequency
spread sets the envelope and the mean frequency the carrier cycle.  With
cbar = (c_max + c_min)/2 and delta_i = c_i - cbar, the grid is tiled by
super-blocks of consecutive cells.  A cell q = q_s + x of a super-block
with centre q_s gets the carrier class k = round(wrap(cbar*x)/(2*pi/n_u))
mod n_u, with u_k = 2*pi*k/n_u and v = wrap(cbar*x - u_k); a comb is
the cells of one super-block that share one class.  As
phi_i - c_i*q == (phi_i - c_i*q_s - u_k) - v - delta_i*x (mod 2*pi) and
|wrap(x)|, the distance from x to 2*pi*Z, is 1-Lipschitz, every cell q
of a comb has

    LS(q) >= LB = sum_i max(0, |wrap(phi_i - cm_i)| - s_i)^2,
    cm_i = wrap(c_i*q_s + u_k),  s_i = max|v| + |delta_i|*max|x| + pad,

where the maxima run over the cells of a full super-block and the pad is
16 ulps of the largest model phase, so rounding in the cell costs cannot
put a cell below its comb's bound.  Every comb of a layout has the same
shrinks, one per frequency.  Maxima over each comb's own cells would be
up to 0.12-0.19 rad smaller on the layouts measured below, and the
shared shrinks leave 1-9% more (trial, comb) pairs open (17% more on the
far-cluster shape), but the bound pass then subtracts one scalar per
frequency where it subtracted a (combs x trials) broadcast, a third of
its time.  The bound holds for any super-block and any larger shrinks,
so the layout only sets the speed.

The layout comes from the plan and the grid alone.  With spread =
max|delta_i| and super-blocks of half-width H with spread*H = k*pi/n_u,
a grid of G cells has M = E*n_u^2/k combs of about G/M cells, E =
G*spread*step/(2*pi) being its count of envelope periods, and the
shrinks run from pi/n_u + pad to (1 + k)*pi/n_u + pad.  The cost model:
a trial's bound pass costs about N*M operations, and each comb it visits
about 2*N multiply-adds a cell, one matrix-product column.  At high SNR
a trial visits one or two combs, so the bound pass dominates and fewer,
wider combs win; at low SNR a share of the combs that grows with the
shrinks is visited, so looser bounds lose.  For a given M the mean shrink
over a band of evenly spread frequencies, (1 + k/2)*pi/n_u with n_u =
sqrt(k*M/E), is least at k = 2.  So a narrowband plan (4*pi*spread <
c_max, that is B/f_max < 1/(2*pi)) gets spread*H <= 2*pi/n_u and

    n_u = max(4, round(min(sqrt(G), sqrt(sqrt(2)*2*pi / (spread*step*sqrt(G)))))),

about sqrt(G/2) combs of about sqrt(2*G) cells (125-130 combs of 234-249
cells on the ``campaign-pf`` grid), each shrink at most 3*pi/n_u + pad
<= 3*pi/4 + pad.  The measured trade-off is below.  The super-blocks are
made equal, as many as the rule's half-width needs, so the last one is
clipped by fewer cells than there are super-blocks.  A clipped
super-block keeps the full one's centre and maxima, so its bound
also covers ranges past the grid's end; on a window one UMR long those
alias ranges at its start, and a comb of a few real cells got a bound of
0 for trials there, whose second pass then visited nearly every comb.
Each tooth of a comb, its cells within one carrier cycle, spans at most
lambda_bar/n_u <= lambda_bar/4, lambda_bar = 2*pi/cbar.  A wideband plan
falls back to cbar = 0 and n_u = 1, which makes the combs contiguous
blocks of max(1, floor(lambda_min/(3*step))) cells with s_i = c_i*h for
a block of half-width h.  Each trial is searched in two passes: it
visits its comb of least bound, and then, in one batch, every other comb
whose bound is not above the cost that first comb gave; no other comb
can hold a cell of that cost or less.  Ties go to the lower grid index.
The grid and the comb layout depend on the plan and the config alone, so
one :class:`LsSearch` per (plan, config) holds them and searches any
number of phase blocks.  It takes a block in slices of S = min(2^15 //
(3*N), 4e6 // combs) trials (520 at N = 21), or S = min(2^15 // (3*N),
2^17 // G) on one comb (218 on a 601-cell grid), with one workspace per
run, so its temporaries do not grow with the block.

The coherent visit.  For |x| <= pi, x^2 >= 2*(1 - cos x), and cos is
2*pi-periodic, so every cell q with wrapped model m_i has

    LS(q) >= 2*N - 2*C(q),  C(q) = sum_i cos(phi_i - m_i),

the real part of the coherent sum behind the paper's ambiguity function.
The cells of a comb of super-block s and class k are q = d_s + x, with
d_s = b_s - g_0 for the super-block's first cell b_s and the grid's first
cell g_0, and x = g_0 + step*p over the class's cells p of the first
super-block, as the grid computes them (past the grid's end too).  So

    C(q) = Z . P_k(x),  Z = [cos a; sin a],  a_i = wrap(phi_i - wrap(c_i*d_s)),
                        P_k(x) = [cos m_x; sin m_x],  m_x,i = wrap(c_i*x),

and the sums C32 of a chunk of (trial, comb) pairs of one class are one
float32 (pairs x 2N) @ (2N x width) matrix product against the class
phasors P_k, which the search builds once.  Z and P_k are float32 cos
and sin of angles wrapped in float64.  One comb of every cell has d_s =
0, so its angles are the phases.  A product makes fewer than 2^19
multiply-adds, which OpenBLAS runs on one thread, and a visit's (pairs x
width) float32 sums hold at most 2^17 elements per chunk.  On a trial's
first visit its cell of largest C32 is costed in float64.  A cell of
float64 cost at most the trial's best cost c has C >= N - c/2, so its
C32 reaches the float32 threshold N - (c + F)/2 derived below.  Each
pair's cells at the threshold are counted first: a pair with none is
done, one with candidates in more than a quarter of its comb (low SNR)
is visited by ``_visit``, which costs the comb's cells in float32 and
only the few near its least in float64, and every other candidate is
costed in float64; the least (cost, index) of a trial wins.  At high SNR
few pairs have a candidate.  In the clipped last super-block, a column
past the grid's end names the comb's last real cell in the cell table,
so it can only have that cell costed, never one off the grid.  Combs
narrower than ``_COHERENT_WIDTH`` = 12 cells skip the sums and go to
``_visit`` alone: rotating a pair's N phases costs about as much as
costing a narrow comb's cells.

The layout rule and both cuts are measured (medians of alternating runs
on a 2-vCPU x86-64 machine, every output equal bit for bit).
``LsSearch.run`` with other (n_u, k) layouts, each with equal
super-blocks and one shrink per frequency, 11 interleaved rounds in one
process, in time relative to this rule; n_u0 is the class count of the
sqrt(G) rule (k = 1, n_u >= 3, sqrt(G) combs of sqrt(G) cells), 4 on the
N = 21 windows and 3 on the N = 31 ones:

    layout            pf    20 dB  0 dB  -5 dB  N = 31  100 001  far
    (n_u0, 1)         1.13  1.44   1.02  0.95   1.32    1.09     1.08
    (n_u0 + 1, 1.5)   1.19  1.22   0.90  0.86   1.25    1.00     1.32
    (n_u0 + 1, 2.5)   0.99  0.88   1.22  1.22   0.89    0.97     0.77
    (n_u0, 1.5)       0.83  1.09   1.22  1.16   1.24    1.20     0.88

The columns: the ``campaign-pf`` blocks (three N = 21 plans, 150 trials
at 10-13 dB each, 30 001 cells at 0.01 m); the uniform plan with 300
random ranges over that window at 20 dB and 200 at 0 and -5 dB; the N =
31 replay plan with 300 random ranges over it at 14 dB; the uniform plan
at 13 dB on 100 001 cells; and the far-cluster shape (N = 31, 500 001
cells at 0.05 m, 100 trials at 14 dB).  No layout in the table is faster
on every column: a looser one loses 1.2x at 0 and -5 dB, a tighter one
at high SNR.

``LsSearch.run`` on the uniform N = 21 plan, 2000 trials with random
ranges in the window at 13 / 20 dB, refine off, ran on one comb at 1.6 /
1.8x the speed of the bound pass at 601 cells, 1.0 / 1.1x at 1201, 0.65
/ 0.83x at 1601, 0.73 / 0.77x at 2001 and 0.51 / 0.61x at 2401 cells (on
the N = 31 replay plan 1.7 / 1.7x, 1.3 / 1.0x, 0.77 / 0.93x, 0.73 /
0.82x and 0.54 / 0.64x).  A one-row search ran on one comb at 1.6-2.0x
the bound pass's speed at each of those sizes, on both plans.  So the
cut stays at 1600 cells, though blocks alone would move it to between
1201 and 1601.  Coherent visits against ``_visit`` alone, 200 or 300
trials with random ranges at -35 / 0 / 11 or 20 dB: contiguous wideband
combs (N = 41) of 4 to 9 cells ran 0.6-0.7x / 0.96x / 0.9-1.0x, of 12 to
48 cells 0.7-0.85x / 0.85-0.93x / 1.0-1.24x; narrowband combs of 12
cells (N = 128) 0.85-1.1x / 2.2-2.7x / 1.05-1.2x, of 23 cells (N = 64)
0.9-1.0x / 3.5-3.7x / 1.2-1.3x, and of 28 to 204 cells (N = 21) 0.8-2.7x
/ 1.0-5.7x / 1.2-3.1x.

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
- The coherent sums C32 and their threshold are float32; a trial's first
  cell and every candidate are costed in float64 by :func:`_cell_costs`.
- ``_visit`` costs its cells in float32, from the float64-wrapped model
  cast to float32.  Only a cell within 2*E(N) of the float32 minimum of
  its (trial, comb) pair, and within E(N) of the trial's best float64
  cost so far, is costed again in float64.  A cell of least float64 cost
  passes both tests: its float32 cost is within E(N) of its float64
  cost, which is at most the float64 cost of any other cell of the pair
  and of the trial's best so far.

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
With the same u, the coherent sums' allowance is F = 8*N*(N + 10)*u +
2*N*pad, with the pad above.  To first order in u:

- numpy's float32 cos and sin of a float64 angle in [-pi, pi], cast to
  float32, are within 8*u of the float64 cos and sin of that angle: the
  cast moves the angle by at most pi*u, and the float32 functions add a
  few ulps (``tests/test_estimator.py`` sweeps [-pi, pi] for this
  budget).  So each product z_k*w_k of the 2N terms of Z . P_k moves by
  at most 8*u*(|z_k| + |w_k|), and as sum_k |z_k| + |w_k| <=
  2*sqrt(2)*N, the inputs move C32 by at most 16*sqrt(2)*N*u <= 23*N*u;
- a float32 dot product of 2N terms is within 2*N*u*sum_k |z_k*w_k| of
  the exact dot product of its rounded inputs, in any summation order
  and with or without fused multiply-adds, and sum_k |z_k*w_k| =
  sum_i |cos a_i cos m_x,i| + |sin a_i sin m_x,i| <= N;
- the factored angle a_i - m_x,i differs from the kernel's phi_i -
  wrap(c_i*q), mod 2*pi, by the rounding of the grid values, of the
  products c_i*q, c_i*d_s and c_i*x, and of three wraps: a few ulps of
  the largest model phase, within the pad.  Each cosine term then moves
  by at most the pad, and C by at most N*pad.

So |C32 - C| <= 2*N*(N + 11.5)*u + N*pad, and the bound 2*N - 2*C32 is
within 4*N*(N + 11.5)*u + 2*N*pad of 2*N - 2*C.  The threshold N - (c +
F)/2 lies in (-4*N, N], since c <= N*pi^2, so rounding it to float32
moves it by at most 4*N*u: 8*N*u on the scale of costs.  That is
4*N*(N + 13.5)*u + 2*N*pad.  The rest of F, 4*N*(N + 6.5)*u, covers the
kernel's float64 rounding (its residuals, squares and sum, within about
N*(N + 3)*pi^2*2^-53 of the exact cost of the float64 phases), the
float64 rounding of the threshold and the second-order terms, for N up
to a few thousand.

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
from typing import NamedTuple

import numpy as np

from .core import TWO_PI, FrequencyPlan, PhaseVector, _wrap_inplace, check_positive

# A visit's (pairs x cells x N) model and a slice's (trials x combs)
# bounds stay within this many elements.
_TARGET_ELEMS = 4_000_000
# LsSearch.run takes a block in slices of T trials, each of its two
# workspace buffers 3*T*N <= this many float64s: 520 trials at N = 21.
_SLICE_ELEMS = 1 << 15
# LsSearch searches a grid of at most this many cells as one comb of every
# cell, and a larger one with a bound pass over combs first (the measured
# crossover is in the module docstring).
_COS_CELLS = 1600
# Combs narrower than this many cells are visited by _visit alone: rotating
# a pair's N phasors costs about as much as costing a narrow comb's cells
# (the measured crossover is in the module docstring).
_COHERENT_WIDTH = 12
# A visit chunk's (pairs x width) float32 coherent sums hold at most this
# many elements.
_COS_ELEMS = 1 << 17
# One matrix product of the coherent sums makes at most this many
# multiply-adds, so OpenBLAS runs it on one thread: a threaded product can
# stall for milliseconds on a loaded core.  On the 601-cell N = 21 comb,
# products of up to 32 rows (808 K multiply-adds) used one thread and 48
# rows two; a 218-row slice took 79 us in 20-row products against 108 us
# in 10-row ones (under 2^18 multiply-adds).
_GEMM_ELEMS = (1 << 19) - 1
# The per-frequency loops of the search take as many frequencies per numpy
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
        """search_lo + step*arange(size), bit for bit, built in place."""
        grid = np.arange(self.size, dtype=float)
        grid *= self.step
        grid += self.search_lo
        return grid


class Estimate(NamedTuple):
    """An LS search's answer per phase vector: q_hat, its cost
    (:func:`ls_cost` at q_hat) and the index of the grid minimum; arrays
    for a block, Python scalars from :func:`ls_estimate`."""

    q_hat: np.ndarray | float
    cost_at_min: np.ndarray | float
    grid_index: np.ndarray | int


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


def _cos_allowance(n: int, pad: float) -> float:
    """F = 8*N*(N + 10)*2^-24 + 2*N*pad, the allowance of the coherent sums
    in the module docstring, for a layout whose factored angles are within
    ``pad`` of the kernel's: a cell whose float64 cost is at most c has a
    float32 coherent sum of at least the float32 threshold N - (c + F)/2."""
    return 8 * n * (n + 10) * 2.0**-24 + 2 * n * pad


def _layout(coef, step, n_pts) -> tuple[float, int, int]:
    """(cbar, n_u, super-block size in cells) of the module docstring's rule.

    A narrowband plan gets n_u >= 4 classes and super-blocks of half-width
    H <= 2*pi/(n_u*spread), that is k = 2, which makes the mean shrink
    least for a given comb count: about sqrt(G/2) combs of about sqrt(2*G)
    cells, fewer and wider than the sqrt(G) rule's, as a visited cell
    costs one float32 matrix-product column while the bound pass costs N
    operations a comb.  Each shrink is below 3*pi/n_u + pad <= 3*pi/4 +
    pad.  The super-blocks are made equal, so the last one is clipped by
    fewer cells than there are super-blocks."""
    c_max = float(coef.max())
    spread = 0.5 * (c_max - float(coef.min()))
    if 4.0 * math.pi * spread >= c_max:
        # Wideband: contiguous blocks of at most lambda_min/3.
        return 0.0, 1, max(1, int(TWO_PI / (3.0 * c_max * step)))
    root = math.sqrt(n_pts)
    if spread == 0.0:
        return c_max, max(3, round(root)), n_pts
    # E*n_u^2/2 combs for the grid's E = G*spread*step/(2*pi) envelope
    # periods: sqrt(G/2) at n_u = sqrt(sqrt(2)*2*pi/(spread*step*sqrt(G))).
    n_u = max(4, round(min(root, math.sqrt(math.sqrt(2.0) * TWO_PI / (spread * step * root)))))
    size = min(n_pts, max(1, int(2.0 * TWO_PI / (n_u * spread * step))))
    n_super = -(-n_pts // size)
    return c_max - spread, n_u, -(-n_pts // n_super)


class _Combs(NamedTuple):
    """A comb layout of :func:`_combs`."""

    table: np.ndarray  # (combs, width) int32 grid indices, each row ascending
    centre_model: np.ndarray  # (N, combs) float64 cm_i
    shrink: np.ndarray  # (N, 1) float64 s_i, every comb's
    cls: np.ndarray  # (combs,) each comb's carrier class: its row of phasors
    # (combs, N) float64 wrap(c_i*(b - grid[0])), b the comb's super-block's first cell
    base_model: np.ndarray
    phasors: np.ndarray | None  # (classes, 2N, width) float32 P_k; None below _COHERENT_WIDTH
    pad: float  # 16 ulps of the largest model phase


def _combs(coef, grid, step, layout=None) -> _Combs:
    """Comb layout of the module docstring for a plan's ``coef`` and a grid,
    by the layout rule or by ``layout``, a (cbar, n_u, super-block size)
    triple: (0, 1, G) makes the grid one comb of every cell.

    One super-block's class pattern is tiled over the grid, so no sort runs
    over the whole grid, and the class phasors P_k come from the same
    pattern.  A comb with fewer cells than the widest repeats its last
    cell, which changes no argmin.  The clipped last super-block keeps its
    pattern's centre and maxima; its past-the-end cells repeat the comb's
    last real cell in the table, and a comb with no real cell is dropped.
    """
    n_pts = grid.size
    c_bar, n_u, size = _layout(coef, step, n_pts) if layout is None else layout
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

    n_super = -(-n_pts // size)
    # Cell indices, below 2*G, as int32 where they fit: the table is the
    # largest array a search holds after the grid.
    itype = np.int32 if 2 * n_pts < 2**31 else np.int64
    base = np.arange(n_super, dtype=itype) * size
    table = base[:, None, None] + pat.astype(itype)  # (super-blocks, classes, width)
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
    pad = 16.0 * np.spacing(reach)
    # The maxima of |v| and |x| over a full super-block: one shrink per
    # frequency, the same for every comb.
    shrink = (np.abs(v).max() + np.abs(coef - c_bar) * np.abs(x).max() + pad)[:, None]
    # The factors of the coherent sums: a comb's cells are those of its
    # class in the first super-block, grid[0] + step*p as the grid computes
    # them (also past the end), moved by grid[base_s] - grid[0].
    comb_cls = np.broadcast_to(np.arange(classes.size), keep.shape)[keep]
    base_model = _model(coef, grid[base] - grid[0]).T[:, None, :]
    base_model = np.broadcast_to(base_model, keep.shape + (coef.size,))[keep]
    phasors = None
    if width >= _COHERENT_WIDTH:
        n = coef.size
        phasors = np.empty((classes.size, 2 * n, width), np.float32)
        for k, p in enumerate(pat):  # a class at a time: small temporaries
            m = _model(coef, grid[0] + step * p).astype(np.float32)
            np.cos(m, out=phasors[k, :n])
            np.sin(m, out=phasors[k, n:])
    return _Combs(table[keep], centre_model, shrink, comb_cls, base_model, phasors, float(pad))


def _bound_arrays(centre_model, shrink) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Float32 cm_i, s_i and 2*pi - s_i, each (N, combs, 1), from the
    float64 (N, combs) centre model and shrink; the (N, 1) shrink of
    :func:`_combs`, one per frequency, gives (N, 1, 1) s_i and 2*pi - s_i."""
    return tuple(a.astype(np.float32)[:, :, None] for a in (centre_model, shrink, TWO_PI - shrink))


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
    :func:`_cost_cells`, and the least (cost, grid index) of each trial
    wins.  ``best_val`` and ``best_idx`` are updated in place.  A chunk of
    pairs holds ``_TARGET_ELEMS`` model elements: about 950 pairs on a
    30 001-cell N = 21 grid.
    """
    e = _allowance(coef.size)
    per_chunk = max(1, _TARGET_ELEMS // (table.shape[1] * coef.size))
    for a in range(0, rows.size, per_chunk):
        r, b = rows[a : a + per_chunk], combs[a : a + per_chunk]
        uniq, inv = np.unique(b, return_inverse=True)
        cells = table[uniq]
        model = _model(coef, grid[cells]).astype(np.float32)
        acc = _cell_costs(phases[r].astype(np.float32), model, inv, work)
        cap = np.minimum(np.add(acc.min(axis=1), 2.0 * e, dtype=np.float64), best_val[r] + e)
        pair, j = np.nonzero(acc <= cap[:, None])
        _cost_cells(phases, coef, grid, r[pair], cells[inv[pair], j], best_val, best_idx, work)


def _cost_cells(phases, coef, grid, rows, cells, best_val, best_idx, work=(None, None)) -> None:
    """Cost grid cell ``cells[p]`` of trial ``rows[p]`` in float64 with
    :func:`_cell_costs`, one model row per pair and at most ``_SLICE_ELEMS
    // N`` pairs per call, and fold the costs in with :func:`_keep_least`."""
    per_call = max(1, _SLICE_ELEMS // coef.size)
    for a in range(0, rows.size, per_call):
        r, j = rows[a : a + per_call], cells[a : a + per_call]
        val = _cell_costs(phases[r], _model(coef, grid[j, None]), work=work)[:, 0]
        _keep_least(best_val, best_idx, r, val, j)


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


def _coherent_sums(angles, phasors, classes, out, rows_per_product, z=None) -> np.ndarray:
    """The float32 coherent sums C32 = Z @ P_k, written into the (pairs x
    width) ``out`` and returned.  Row p of Z is float32 [cos a; sin a] of
    row p of the (pairs x N) float64 ``angles``, each in [-pi, pi], and k is
    ``classes[p]``, ascending, the row's class in the (classes, 2N, width)
    ``phasors``.  Each matrix product takes at most ``rows_per_product``
    rows; ``z`` is a (pairs x 2N) float32 workspace, or None."""
    pairs, n = angles.shape
    z = np.empty((pairs, 2 * n), np.float32) if z is None else z
    z[:, n:] = angles
    np.cos(z[:, n:], out=z[:, :n])
    np.sin(z[:, n:], out=z[:, n:])
    ends = np.searchsorted(classes, np.arange(phasors.shape[0] + 1))
    for k in np.nonzero(np.diff(ends))[0]:
        for a in range(ends[k], ends[k + 1], rows_per_product):
            b = min(a + rows_per_product, ends[k + 1])
            np.matmul(z[a:b], phasors[k], out=out[a:b])
    return out


class LsSearch:
    """The grid search of one (plan, config), built once for any number of
    phase blocks.

    It holds the plan's ``coef`` c_i = 2*pi*f_i/c, the grid and the comb
    layout of the module docstring.  ``table`` is the (combs x width) cell
    table; ``comb_class`` and ``base_model`` give each comb's class and
    wrap(c_i*(b - grid[0])) for its super-block's first cell b, and
    ``phasors`` is the float32 (classes, 2N, width) class phasors P_k, or
    None where the combs are narrower than ``_COHERENT_WIDTH``.  A grid of at most
    ``_COS_CELLS`` cells is one comb of every cell and ``bounds`` is None;
    on a larger one ``bounds`` is the float32 cm_i (N, combs, 1) and the
    s_i and 2*pi - s_i every comb shares, each (N, 1, 1).  ``allowance``
    is the coherent sums' F.  Building it is the one place for checks that depend on both the
    plan and the config: a step above lambda_min/4 warns here, once per
    search.

    :meth:`run` follows the module's precision rule: bounds, coherent sums
    and cell costs that only prune or filter are float32, each within its
    allowance of its float64 value, and every returned cost is the float64
    kernel's, :func:`_cell_costs`, which adds the N terms in plan order;
    ``np.sum`` or ``np.add.reduce`` over frequencies would change the bits.
    So the result equals a full scan's bit for bit, and ties break toward
    the smallest range (lowest grid index).  With ``refine`` set, a 3-point
    parabolic fit around each interior grid minimum sharpens q_hat below
    the grid step; its centre cost is the search's, and the reported cost
    is :func:`ls_cost` at the refined point.
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
        one = cells <= _COS_CELLS
        combs = _combs(self.coef, self.grid, cfg.step, (0.0, 1, cells) if one else None)
        self.table, self.comb_class = combs.table, combs.cls
        self.base_model, self.phasors = combs.base_model, combs.phasors
        self.bounds = None if one else _bound_arrays(combs.centre_model, combs.shrink)
        self.allowance = _cos_allowance(n, combs.pad)
        width = self.table.shape[1]
        # Rows per matrix product, at most _GEMM_ELEMS multiply-adds, and
        # (trial, comb) pairs per chunk of a visit: (pairs x width) float32
        # sums within _COS_ELEMS, and (pairs x N) angles within _SLICE_ELEMS.
        self.gemm_rows = max(1, _GEMM_ELEMS // (2 * n * width))
        self.visit_pairs = max(1, min(_COS_ELEMS // width, _SLICE_ELEMS // n))
        # Trials per slice of run: (trials, 3, N) within _SLICE_ELEMS, and
        # the (trials x combs) float32 bounds within _TARGET_ELEMS or, on
        # one comb, the visit's pairs.
        pairs = self.visit_pairs if one else _TARGET_ELEMS // self.table.shape[0]
        self.slice = max(1, min(_SLICE_ELEMS // (3 * n), pairs))
        arrays = (self.grid, self.coef, self.table, self.comb_class, self.base_model, self.phasors)
        for arr in arrays + (self.bounds or ()):
            if arr is not None:
                arr.setflags(write=False)

    def refines(self, grid_index: np.ndarray) -> np.ndarray:
        """Which estimates :meth:`run` refines: those at an interior grid
        index, when the config sets ``refine``."""
        return self.cfg.refine & (grid_index > 0) & (grid_index < self.grid.size - 1)

    def run(self, phases) -> Estimate:
        """The :class:`Estimate` of a (trials x N) block of finite phase
        vectors, each field an array of one entry per trial.

        The block is checked once, then searched in slices of
        ``self.slice`` trials, each copied into one buffer and wrapped to
        (-pi, pi] there (values already there keep their bits).  On a grid
        of more than ``_COS_CELLS`` cells each trial visits its comb of
        least bound, then every comb whose bound is not above the cost that
        visit found, all trials' in one call; the cells of any other comb
        cost more, so they can neither win nor tie.  On a smaller grid each
        trial visits the one comb.  The wrap, the visits and the
        per-frequency loops work in one workspace per run, two buffers of
        three times a slice's phases; a visit's float32 sums are one chunk's.
        No output bit depends on the slice size: trials are
        independent and the cost kernel sums per row.  On a 601-cell N = 21
        grid with refine on, the traced temporaries beside the outputs (24
        bytes a trial) take about 1.0 MiB at 20 dB, where the whole block
        took 1.4 / 5.4 / 53.5 MiB at 1 000 / 4 000 / 40 000 trials."""
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
        for a in range(0, t, self.slice):
            b, ph = a + self.slice, buf[: t - a]
            np.copyto(ph, phases[a:b])
            _wrap_inplace(ph, _buffer(work[0], ph.shape))
            c, i, trials = cost[a:b], idx[a:b], np.arange(ph.shape[0])
            if self.bounds is None:
                self._visit_combs(ph, trials, np.zeros_like(trials), c, i, work, True)
            else:
                lb = _lower_bounds(ph, *self.bounds, work)
                first = np.argmin(lb, axis=1)
                self._visit_combs(ph, trials, first, c, i, work, True)
                lb[trials, first] = np.inf
                rows, combs = np.nonzero(lb <= c[:, None])
                del lb
                self._visit_combs(ph, rows, combs, c, i, work)
            self._refine(ph, q_hat[a:b], c, i, work)
        return Estimate(q_hat, cost, idx)

    def _visit_combs(self, ph, rows, combs, cost, idx, work, first=False) -> None:
        """Visit comb ``combs[p]`` for trial ``rows[p]`` of one slice's
        wrapped phases ``ph``, folding its least cells into ``cost`` and
        ``idx``.

        Narrow combs go to :func:`_visit`.  Otherwise each pair's coherent
        sums C32 come from its phasors rotated by its super-block's first
        cell, one matrix product per class.  On a trial's ``first`` visit
        its cell of largest C32 is costed in float64.  A cell whose sum
        reaches N - (best + F)/2, best the trial's least cost so far, is a
        candidate: a pair with none is done, one with candidates in more
        than a quarter of its comb is visited by :func:`_visit`, and every
        other candidate is costed by :func:`_cost_cells`.
        """
        coef, grid, table = self.coef, self.grid, self.table
        if self.phasors is None:
            _visit(ph, coef, grid, table, rows, combs, cost, idx, work)
            return
        n, width = self.plan.n, table.shape[1]
        cls = self.comb_class[combs]
        if self.phasors.shape[0] > 1:
            order = np.argsort(cls, kind="stable")
            rows, combs, cls = rows[order], combs[order], cls[order]
        wide = []
        for a in range(0, rows.size, self.visit_pairs):
            r, b, k = (x[a : a + self.visit_pairs] for x in (rows, combs, cls))
            ang = np.take(ph, r, axis=0, out=_buffer(work[0], (r.size, n)))
            if len(self.base_model) > 1:  # one comb is not moved
                np.subtract(ang, self.base_model[b], out=ang)
                _wrap_inplace(ang, _buffer(work[1], ang.shape))
            z = _buffer(work[1], (r.size, 2 * n), np.float32)
            sums = np.empty((r.size, width), np.float32)
            s = _coherent_sums(ang, self.phasors, k, sums, self.gemm_rows, z)
            if first:
                # Each trial has one pair here, and no cost yet.
                j0 = np.argmax(s, axis=1)
                idx[r] = cells = table[b, j0]
                cost[r] = _cell_costs(ph[r], _model(coef, grid[cells, None]), work=work)[:, 0]
                s[np.arange(r.size), j0] = -np.inf
            floor = (n - 0.5 * (cost[r] + self.allowance)).astype(np.float32)
            live = np.nonzero(s.max(axis=1) >= floor)[0]
            is_cand = s[live] >= floor[live, None]
            # Low SNR: float32 costs of the whole comb filter many candidates.
            many = np.count_nonzero(is_cand, axis=1) > width // 4
            wide.append(a + live[many])
            p, j = np.nonzero(is_cand[~many])
            if p.size:
                p = live[~many][p]
                _cost_cells(ph, coef, grid, r[p], table[b[p], j], cost, idx, work)
        wide = np.concatenate(wide) if wide else np.empty(0, np.int64)
        if wide.size:
            _visit(ph, coef, grid, table, rows[wide], combs[wide], cost, idx, work)

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
) -> Estimate:
    """The :class:`Estimate` arrays of a (trials x N) block of phase
    vectors: ``LsSearch(plan, cfg).run(phases)``, reusing the search of the
    last (plan, cfg).

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
    """The :class:`Estimate` of one phase vector, the grid argmin of
    :func:`ls_cost` over the configured window: the one-row view of
    :meth:`LsSearch.run`, with a Python ``float``, ``float`` and ``int``.

    Ties break toward the smallest range; optional parabolic refinement is
    off by default to match a pure grid search.  ``phases`` must be one
    vector of the plan's N phases.
    """
    ph = _phases_array(phases)
    if ph.shape != (plan.n,):
        got = f"{ph.size} phases" if ph.ndim == 1 else f"shape {ph.shape}"
        raise ValueError(f"phase vector has {got}, but the plan has {plan.n} frequencies")
    return Estimate._make(x.item() for x in _search(plan, cfg).run(ph[None, :]))


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
