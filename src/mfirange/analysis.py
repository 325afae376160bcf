"""Closed-form performance predictors for a frequency plan.

Unambiguous measurement range (UMR) and its practical correction, the
normalized ambiguity function and sidelobe scan, range-likelihood PDFs,
the spacing quadratic form behind the moderate-SNR MSE, the high-SNR
MSE / Cramer-Rao bound pair, and the co-primality check on normalized
spacings.

The sidelobe scan is an exact branch and bound over its grid.  With
S(x) = sum_i exp(j k_i x), k_i = 2 pi f_i / c, |S(x)| equals
|sum_i exp(j (k_i - k_ref) x)| for any k_ref, so it is Lipschitz with
L = sum_i |k_i - k_ref|; k_ref is the median k_i, which makes L least.
A block of grid points with centre x_c and half-width h therefore has
AF <= (|S(x_c)| + L h + slack)^2 / N^2 at every point.  The centre
values |S(x_c)| only prune, so they are computed cheaply: the phases
k_i x_c are wrapped in float64, and their cos and sin and the two sums
over frequencies are taken in float32.  The slack is 32 N ulps of the
largest phase k_N x the scan reaches, which covers the rounding of the
float64 phases, their wrap, and the exponentials and sums of the visited
points, plus 2 N (N + 20) 2^-24 for the float32 centre values: per term,
pi 2^-24 for the cast of the phase and 16 2^-24 for cos or sin (numpy's
float32 cos and sin are within 1.2 2^-24 on [-pi, pi]); (N - 1) N 2^-24
for each N-term float32 sum of terms of size at most 1, which bounds the
sum taken in any order, so :func:`_block_bounds` adds the terms up one
frequency at a time; a factor sqrt(2) for the two components and
2 N 2^-24 for the float32 modulus.  So the bound also holds for the
computed AF values, which :func:`ambiguity_fn` takes in float64.  The
scan makes two passes: it visits the block of highest bound, then, in
ascending slices, every other block whose bound is not below the best
value that first block gave; a block whose bound is below it holds no
point that can reach it.  Every visited point is costed by
:func:`ambiguity_fn` on its own, so its value is the one a full scan
computes, and the result (the maximum, at the lowest grid location among
equal values) is the full scan's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import (
    TWO_PI, FrequencyPlan, _wrap_inplace, check_positive, sigma_theta_from_snr_db, spacing_gcd,
    wrap_phase,
)

# Points x frequencies per slice of :func:`ambiguity_fn`: each of its
# complex128 temporaries stays near 512 KB, however many points it is given.
# A sidelobe-scan block holds at most one slice, and the scan takes its
# bounds in slices of this many blocks and its visits of this many points.
_SCAN_ELEMS = 1 << 15
# A sidelobe scan of more blocks than this is refused before it allocates:
# the bound pass and the visits took about 0.9 us a block at N = 6
# (0.70 s for 763 633 blocks), so this is about a second; the replay
# workload's N = 31 plan has 16 493 blocks.
_MAX_SIDELOBE_BLOCKS = 1 << 20


def umr(plan: FrequencyPlan) -> float:
    """Unambiguous measurement range c / (spacing GCD in Hz).

    The smallest range offset at which every measurement frequency sees an
    identical wrapped phase, assuming the base frequency sits on the
    spacing-GCD grid.
    """
    return plan.c / (spacing_gcd(plan) * plan.resolution)


def grid_offset(plan: FrequencyPlan) -> float:
    """Fractional offset of f1 on the spacing-GCD grid, in (-0.5, 0.5].

    Writing f1 = (k + eps) * gcd_hz with integer k, returns eps.  Zero
    means the base frequency is an exact multiple of the spacing GCD.
    """
    gcd_hz = spacing_gcd(plan) * plan.resolution
    frac = plan.f1 / gcd_hz
    eps = frac - math.floor(frac)
    if eps > 0.5:
        eps -= 1.0
    return eps


def practical_umr(plan: FrequencyPlan) -> float:
    """Range of the first deep cost-function dip when f1 is off-grid.

    c/gcd_hz - eps * sum(1/lambda_i) / sum(1/lambda_i^2); equals the plain
    UMR when the grid offset eps is zero.  For narrowband plans this, not
    the plain UMR, is the distance at which ambiguous estimates reappear.
    """
    freqs = plan.frequencies
    correction = grid_offset(plan) * plan.c * freqs.sum() / np.square(freqs).sum()
    return float(umr(plan) - correction)


@dataclass(frozen=True)
class ConfusionBound:
    """Lower bound on the probability that the cost at the practical-UMR
    dip undercuts the cost at the true range."""

    value: float
    within_validity: bool  # stated window: f1/B >= 4 and SNR > 0 dB


def confusion_bound(
    f1: float, bandwidth: float, n: int, offset: float, snr_db: float
) -> ConfusionBound:
    """0.5 * erfc(sqrt(N) * W / (2*sqrt(2)*sigma_theta)), W = 2*pi*|eps|*B/f1.

    Outside the stated validity window (f1/B >= 4, SNR > 0 dB) the formula
    value is still returned, flagged as out of window; in the wideband
    regime it badly misjudges the actual confusion rate.
    """
    sigma = sigma_theta_from_snr_db(snr_db)
    w = TWO_PI * abs(offset) * bandwidth / f1
    arg = math.sqrt(n) * w / (2.0 * math.sqrt(2.0) * sigma)
    value = 0.5 * math.erfc(arg)
    return ConfusionBound(value=value, within_validity=(f1 / bandwidth >= 4.0 and snr_db > 0.0))


def confusion_bound_for_plan(plan: FrequencyPlan, snr_db: float) -> ConfusionBound:
    """Convenience wrapper deriving f1, B, N and the grid offset from a plan."""
    return confusion_bound(plan.f1, plan.bandwidth, plan.n, grid_offset(plan), snr_db)


def _array_sum(plan: FrequencyPlan, dq: np.ndarray) -> np.ndarray:
    """S(dq) = sum_i exp(j*2*pi*f_i*dq/c), one complex sum per range offset."""
    phase = (TWO_PI / plan.c) * np.multiply.outer(dq, plan.frequencies)
    return np.exp(1j * phase).sum(axis=-1)


def ambiguity_fn(plan: FrequencyPlan, dq) -> np.ndarray | float:
    """Normalized ambiguity function |sum_i exp(j*2*pi*f_i*dq/c)|^2 / N^2.

    1 at dq = 0 and at every multiple of the UMR; sidelobe levels are
    proportional to the outlier probability at that range offset.  The
    points are taken in slices of ``_SCAN_ELEMS // N``, so the temporaries
    do not grow with their count; each point's value is the same as in one
    pass over all of them.
    """
    arr = np.asarray(dq, dtype=float)
    flat = arr.reshape(-1)
    val = np.empty(flat.size)
    rows = max(1, _SCAN_ELEMS // plan.n)
    for a in range(0, flat.size, rows):
        s = _array_sum(plan, flat[a : a + rows])
        val[a : a + rows] = (s.real**2 + s.imag**2) / plan.n**2
    if arr.ndim == 0:
        return float(val[0])
    return val.reshape(arr.shape)


@dataclass(frozen=True)
class SidelobePeak:
    value: float
    location: float  # meters


def _sidelobe_slope(plan: FrequencyPlan) -> float:
    """L = sum_i |k_i - k_ref|, k_ref the median k_i: |S| changes by at most
    L per meter of range offset."""
    k = (TWO_PI / plan.c) * plan.frequencies
    n = k.size
    # k ascends, so its median is the mean of its middle pair, as np.median
    # computes it; np.median itself imports numpy.ma for its NaN check.
    k_ref = 0.5 * (k[(n - 1) // 2] + k[n // 2])
    return float(np.abs(k - k_ref).sum())


def _sidelobe_block_width(plan: FrequencyPlan, step: float, slope: float) -> int:
    """Grid points per B&B block: L*h about sqrt(N)/2, the size of a typical
    off-peak |S|, so a block's bound stays near its values; at most one chunk."""
    cells = min(_SCAN_ELEMS // plan.n, 1.0 + math.sqrt(plan.n) / (slope * step))
    return max(1, int(cells))


def _block_bounds(
    plan: FrequencyPlan, lo: float, step: float, n_pts: int, width: int, slope: float
) -> np.ndarray:
    """Upper bound on the computed AF over each block of ``width`` grid points
    of ``lo + step*k``, k < n_pts (the last block may be shorter), with
    |S| at the block centres in float32 (see the module docstring).  The
    blocks are taken in slices of ``_SCAN_ELEMS``, so the temporaries do not
    grow with the block count; each bound is the same as in one pass."""
    reach = (TWO_PI / plan.c) * plan.frequencies[-1] * (lo + step * (n_pts - 1)) + TWO_PI
    slack = 32.0 * plan.n * np.spacing(reach) + 2.0 * plan.n * (plan.n + 20) * 2.0**-24
    bounds = np.empty(-(-n_pts // width))
    for a in range(0, bounds.size, _SCAN_ELEMS):
        starts = np.arange(a, min(a + _SCAN_ELEMS, bounds.size)) * width
        ends = np.minimum(starts + width, n_pts) - 1
        centres = lo + step * (0.5 * (starts + ends))
        half = (0.5 * step) * (ends - starts)
        # The float32 sums are taken one frequency at a time, so the
        # temporaries are the length of the slice, not (slice x N).
        cos_sum = np.zeros(starts.size, np.float32)
        sin_sum = np.zeros(starts.size, np.float32)
        phase = np.empty(starts.size)
        phase32 = np.empty(starts.size, np.float32)
        term = np.empty(starts.size, np.float32)
        for f in plan.frequencies:
            np.multiply(centres, f, out=phase)
            phase *= TWO_PI / plan.c
            phase32[:] = _wrap_inplace(phase)
            cos_sum += np.cos(phase32, out=term)
            sin_sum += np.sin(phase32, out=term)
        mag = np.hypot(cos_sum, sin_sum)
        bounds[a : a + starts.size] = np.square((mag + slope * half + slack) / plan.n)
    return bounds


def sidelobe_scan(
    plan: FrequencyPlan,
    mainlobe_width: float | None = None,
    step: float | None = None,
) -> SidelobePeak:
    """Highest ambiguity-function sidelobe outside the mainlobe.

    Returns the maximum of AF on the grid B_m/2 + step*k, k >= 0, up to
    UMR/2, and its location (the lowest location on ties).  The upper half
    of the range adds nothing: f_i * UMR / c is one common phase plus an
    integer for every frequency, and |.| drops that phase, so AF(UMR - dq)
    = AF(dq) and every sidelobe in (UMR/2, UMR - B_m/2] mirrors one
    scanned here.  The mainlobe width defaults to the null-to-null extent
    c/B of the band-limited main peak; the step defaults to lambda_min/20
    so carrier-period structure is resolved.  Both must be finite and
    positive.

    The grid is searched by branch and bound (see the module docstring):
    each block of grid points has the bound
    (|S(x_c)| + L*h + slack)^2 / N^2.  The block of highest bound is
    visited first; then every other block whose bound is not below the
    best value is visited, in ascending slices of about ``_SCAN_ELEMS``
    points.  A visited point with a value equal to the best replaces it
    only if it lies lower, so the result is the full scan's bit for bit.
    The bounds are also taken in slices of ``_SCAN_ELEMS`` blocks, so the
    scan holds one float64 bound and at most one open-list entry a block
    beside its slices' temporaries.  A grid of more than
    ``_MAX_SIDELOBE_BLOCKS`` blocks is refused with a ValueError that
    names its point count, before anything is allocated.
    """
    if mainlobe_width is None:
        mainlobe_width = plan.c / plan.bandwidth
    if step is None:
        step = plan.lambda_min / 20.0
    check_positive("mainlobe_width", mainlobe_width)
    check_positive("step", step)
    lo = mainlobe_width / 2.0
    hi = umr(plan) / 2.0
    if not lo < hi:
        raise ValueError("empty scan interval: mainlobe covers the whole range")
    n_pts = int((hi - lo) / step) + 1
    slope = _sidelobe_slope(plan)
    width = _sidelobe_block_width(plan, step, slope)
    blocks = -(-n_pts // width)
    if blocks > _MAX_SIDELOBE_BLOCKS:
        raise ValueError(
            f"the sidelobe scan would cover {n_pts} grid points in {blocks} blocks, more than "
            f"its limit of {_MAX_SIDELOBE_BLOCKS}; skip it (--skip-sidelobe)"
        )
    bounds = _block_bounds(plan, lo, step, n_pts, width, slope)
    cells = np.arange(width)
    best_val, best_k = -1.0, 0

    def visit(blocks):
        nonlocal best_val, best_k
        k = (blocks[:, None] * width + cells).ravel()
        k = k[k < n_pts]
        vals = ambiguity_fn(plan, lo + step * k)
        i = int(np.argmax(vals))  # k ascends: the lowest among equal maxima
        if vals[i] > best_val or (vals[i] == best_val and k[i] < best_k):
            best_val, best_k = float(vals[i]), int(k[i])

    top = int(np.argmax(bounds))
    visit(np.array([top]))
    # A block whose bound equals the best value may still tie it lower down.
    open_blocks = np.nonzero(bounds >= best_val)[0]
    open_blocks = open_blocks[open_blocks != top]
    # Slices of about _SCAN_ELEMS points: the temporaries do not grow with
    # the open blocks.
    per_slice = max(1, _SCAN_ELEMS // width)
    for a in range(0, open_blocks.size, per_slice):
        visit(open_blocks[a : a + per_slice])
    return SidelobePeak(value=best_val, location=lo + step * best_k)


def quadform(spacings_hz: Sequence[float], method: str = "partial-sum") -> float:
    """Quadratic form of an ordered spacing vector (Hz^2).

    The moderate-SNR MSE denominator: with G the lower-triangular all-ones
    matrix and u the all-ones vector, df' G' (I - u u'/N) G df, where N is
    the frequency count len(df)+1.  Equivalently the variance-style sum
    sum_k (b_k - mean(b))^2 over the partial sums b of [0, df...]; both
    paths are implemented and should agree to float precision.
    """
    df = np.asarray(spacings_hz, dtype=float)
    if df.ndim != 1 or df.size < 1:
        raise ValueError("spacings must be a non-empty 1-D sequence")
    n = df.size + 1
    if method == "partial-sum":
        b = np.concatenate(([0.0], np.cumsum(df)))
        return float(np.sum((b - b.mean()) ** 2))
    if method == "matrix":
        gamma = np.tril(np.ones((n - 1, n - 1)))
        r_inv = np.eye(n - 1) - np.ones((n - 1, n - 1)) / n
        g = gamma @ df
        return float(g @ r_inv @ g)
    raise ValueError("method must be 'partial-sum' or 'matrix'")


def mmse(plan: FrequencyPlan, sigma_theta: float) -> float:
    """Moderate-SNR MSE plateau, c^2 sigma^2 / (4 pi^2 quadform) in m^2.

    This is the plateau the estimator tracks once outliers die out but
    before the carrier phase locks; it is the quantity the min-error
    spacing arrangement minimizes.
    """
    check_positive("sigma_theta", sigma_theta)
    return plan.c**2 * sigma_theta**2 / (4.0 * math.pi**2 * quadform(plan.spacings_hz))


def hmse(plan: FrequencyPlan, sigma_theta: float) -> float:
    """High-SNR MSE, c^2 sigma^2 / (4 pi^2 sum f_k^2) in m^2."""
    check_positive("sigma_theta", sigma_theta)
    return plan.c**2 * sigma_theta**2 / (4.0 * math.pi**2 * float(np.square(plan.frequencies).sum()))


def crb(plan: FrequencyPlan, sigma_n: float) -> float:
    """Cramer-Rao bound for complex-AWGN observations of variance sigma_n^2.

    c^2 sigma_n^2 / (8 pi^2 sum f_k^2); equal to :func:`hmse` when
    sigma_n^2 = 2 sigma_theta^2.
    """
    check_positive("sigma_n", sigma_n)
    return plan.c**2 * sigma_n**2 / (8.0 * math.pi**2 * float(np.square(plan.frequencies).sum()))


def _wrapped_residual(q, q0: float, wavelength: float):
    """Reduce q - q0 modulo one wavelength into (-lambda/2, lambda/2]."""
    return wavelength / TWO_PI * wrap_phase(TWO_PI * (np.asarray(q, dtype=float) - q0) / wavelength)


def log_pdf_single(f: float, q, q0: float, sigma_theta: float, c: float):
    """Log density of the range likelihood from a single frequency.

    Gaussian in the wavelength-wrapped residual with sigma_q = c*sigma/(2*pi*f).
    """
    check_positive("sigma_theta", sigma_theta)
    sigma_q = c * sigma_theta / (TWO_PI * f)
    r = _wrapped_residual(q, q0, c / f)
    return -0.5 * (r / sigma_q) ** 2 - math.log(math.sqrt(TWO_PI) * sigma_q)


def pdf_single(f: float, q, q0: float, sigma_theta: float, c: float):
    return np.exp(log_pdf_single(f, q, q0, sigma_theta, c))


def pdf_pair(f_lo: float, f_hi: float, q, q0: float, sigma_theta: float, c: float):
    """Joint range density of two adjacent frequencies (product of singles);
    periodic in q with period c / (f_hi - f_lo) when f_lo >> f_hi - f_lo."""
    return np.exp(
        log_pdf_single(f_lo, q, q0, sigma_theta, c) + log_pdf_single(f_hi, q, q0, sigma_theta, c)
    )


def log_pdf_multi(plan: FrequencyPlan, q, q0: float, sigma_theta: float):
    """Log joint range density over all plan frequencies (sum of single logs)."""
    total = None
    for f in plan.frequencies:
        term = log_pdf_single(float(f), q, q0, sigma_theta, plan.c)
        total = term if total is None else total + term
    return total


def log_pdf_multi_via_pairs(plan: FrequencyPlan, q, q0: float, sigma_theta: float):
    """Pair-product route to the same joint density.

    0.5 * (sum of adjacent-pair logs + closing-pair log): every frequency
    appears exactly twice under the square root, so this is identically
    :func:`log_pdf_multi` and serves as a consistency cross-check.
    """
    freqs = plan.frequencies
    total = None
    for f_lo, f_hi in zip(freqs[:-1], freqs[1:]):
        term = log_pdf_single(float(f_lo), q, q0, sigma_theta, plan.c) + log_pdf_single(
            float(f_hi), q, q0, sigma_theta, plan.c
        )
        total = term if total is None else total + term
    total = total + log_pdf_single(float(freqs[0]), q, q0, sigma_theta, plan.c) + log_pdf_single(
        float(freqs[-1]), q, q0, sigma_theta, plan.c
    )
    return 0.5 * total


def coprime_check(plan: FrequencyPlan) -> tuple[bool, list[float]]:
    """Pairwise co-primality of spacings after dividing out their GCD.

    When some normalized pair shares a factor, the sharp peaks of the two
    pair likelihoods coincide below the UMR; the exact coincidence ranges
    k_i * c/df_i = k_j * c/df_j (k_i < n_i) are enumerated and returned in
    meters, sorted ascending.
    """
    g = spacing_gcd(plan)
    norm = [k // g for k in plan.spacings]
    full_range = umr(plan)
    coincidences: set[Fraction] = set()
    ok = True
    for a in range(len(norm)):
        for b in range(a + 1, len(norm)):
            gij = math.gcd(norm[a], norm[b])
            if gij > 1:
                ok = False
                for t in range(1, gij):
                    coincidences.add(Fraction(t, gij))
    locations = sorted(float(fr) * full_range for fr in coincidences)
    return ok, locations


@dataclass(frozen=True)
class AnalysisReport:
    """Closed-form summary of one plan at one noise level."""

    umr: float
    practical_umr: float
    grid_offset: float
    mmse: float
    hmse: float
    crb: float
    sidelobe_value: float | None
    sidelobe_location: float | None
    coprime: bool


def analyze(
    plan: FrequencyPlan,
    sigma_theta: float | None = None,
    snr_db: float | None = None,
    include_sidelobe: bool = True,
) -> AnalysisReport:
    """Assemble the full closed-form report for a plan.

    Exactly one of ``sigma_theta``/``snr_db`` selects the noise level; the
    CRB column uses the matching complex-noise std sqrt(2)*sigma_theta.  The
    sidelobe columns come from :func:`sidelobe_scan` at its default mainlobe
    width and step.
    """
    if (sigma_theta is None) == (snr_db is None):
        raise ValueError("give exactly one of sigma_theta or snr_db")
    sigma = sigma_theta if sigma_theta is not None else sigma_theta_from_snr_db(snr_db)
    peak = sidelobe_scan(plan) if include_sidelobe else None
    return AnalysisReport(
        umr=umr(plan),
        practical_umr=practical_umr(plan),
        grid_offset=grid_offset(plan),
        mmse=mmse(plan, sigma),
        hmse=hmse(plan, sigma),
        crb=crb(plan, math.sqrt(2.0) * sigma),
        sidelobe_value=None if peak is None else peak.value,
        sidelobe_location=None if peak is None else peak.location,
        coprime=coprime_check(plan)[0],
    )
