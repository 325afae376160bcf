"""Core domain types and phase/frequency arithmetic for MFI ranging.

Everything else in the package runs through the types defined here.  A
:class:`FrequencyPlan` pins the measurement frequencies to an exact integer
grid (base frequency, grid resolution, integer spacings), which keeps the
GCD/prime structure of the spacings exact.  :class:`PhaseVector` holds one
wrapped phase per frequency and :class:`NoiseModel` describes how phase
noise is generated, with the SNR convention SNR = 1/(2*sigma_theta^2).
"""

from __future__ import annotations

import math
from collections.abc import Sized
from dataclasses import dataclass
from functools import reduce
from numbers import Integral

import numpy as np

TWO_PI = 2.0 * math.pi
_INV_TWO_PI = 1.0 / TWO_PI

# Propagation speed: exact SI value, plus the rounded constant used in most
# textbook numeric examples ("paper-repro" mode in the CLI).
C_EXACT = 299_792_458.0
C_PAPER = 3.0e8

NOISE_KINDS = ("phase-gaussian", "complex-awgn", "none")


def wrap_phase(x):
    """Reduce an angle (or array of angles) to the interval (-pi, pi].

    The interval is half-open on the left: ``wrap_phase(-pi) == pi``.
    Accepts scalars or ndarrays; rejects non-finite input.
    """
    r = _wrap_phase_inplace(np.array(x, dtype=float))
    if r.ndim == 0:
        return float(r)
    return r


def _wrap_phase_inplace(arr: np.ndarray) -> np.ndarray:
    """:func:`wrap_phase` on a float array, overwriting it."""
    if not np.all(np.isfinite(arr)):
        raise ValueError("wrap_phase: input must be finite")
    # np.remainder is fmod-based and therefore exact up to one rounding of
    # the sign correction, which matters for multi-million-radian inputs.
    np.remainder(arr, TWO_PI, out=arr)
    np.subtract(arr, TWO_PI, out=arr, where=arr > math.pi)
    return arr


def _wrap_inplace(d: np.ndarray, tmp: np.ndarray | None = None) -> np.ndarray:
    """Wrap to [-pi, pi] in place, d - 2*pi*rint(d/(2*pi)), and return ``d``;
    a value on the boundary may come out as -pi or as pi.  ``tmp``, an
    array of the shape of ``d``, holds the temporary if given.

    Its users are the estimator (``ls_cost``, the model phases of the scan,
    the re-cost, the refine and the comb layout, and the phases
    ``LsSearch.run`` takes) and the sidelobe bound of
    ``analysis._block_bounds``.  Each needs a
    phase only up to a multiple of 2*pi, so either boundary sign serves.
    :func:`wrap_phase` is not used there: its finiteness check and exact
    remainder cost more, and this is one multiply, a rounding and a
    subtract per element, with one temporary.
    """
    k = np.multiply(d, _INV_TWO_PI, out=tmp)
    np.rint(k, out=k)
    k *= TWO_PI
    d -= k
    return d


def check_positive(name: str, value: float) -> float:
    """``value`` if it is finite and above zero, else a ValueError naming it.
    Every noise level, bandwidth, grid resolution and step is checked here:
    NaN fails every comparison, so a bare ``value <= 0`` test lets it through."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")
    return value


def _check_phases(arr: np.ndarray) -> None:
    """Raise unless every entry is finite and in (-pi, pi]."""
    if not np.all(np.isfinite(arr)):
        raise ValueError("phases must be finite")
    if np.any(arr <= -math.pi) or np.any(arr > math.pi):
        raise ValueError("phases must lie in (-pi, pi]")


def sigma_theta_from_snr_db(snr_db: float) -> float:
    """Phase-noise standard deviation for a given SNR in dB.

    Uses SNR = 1/(2*sigma_theta^2), i.e. the phase noise at high SNR is the
    quadrature component of a unit carrier plus complex noise of variance
    sigma^2 = 2*sigma_theta^2.  An SNR is refused when sigma_theta would not
    be finite and positive: NaN, +-inf, below about -3082.5 dB (the power
    overflows) and above about 3231.3 dB (it underflows to 0).
    """
    try:
        return check_positive("sigma_theta", math.sqrt(10.0 ** (-snr_db / 10.0) / 2.0))
    except (OverflowError, ValueError):
        msg = f"snr_db must be finite and give a finite, positive sigma_theta, got {snr_db!r}"
        raise ValueError(msg) from None


def snr_db_from_sigma_theta(sigma_theta: float) -> float:
    """Inverse of :func:`sigma_theta_from_snr_db`."""
    check_positive("sigma_theta", sigma_theta)
    return -10.0 * math.log10(2.0 * sigma_theta**2)


@dataclass(frozen=True)
class FrequencyPlan:
    """A set of measurement frequencies on an exact integer grid.

    Frequencies are ``f1 + resolution * cumsum(spacings)``.  Spacings are
    positive integers in units of ``resolution`` so that their GCD (and any
    prime structure) is exact; floating-point frequencies are never GCD'd.
    The base frequency ``f1`` itself may sit off the spacing-GCD grid, which
    is what the fractional grid offset in the analysis module measures.

    The plan also carries the propagation speed ``c`` so that every derived
    quantity (wavelengths, range formulas) is unambiguous.
    """

    f1: float
    resolution: float
    spacings: tuple[int, ...]
    c: float = C_EXACT

    def __post_init__(self):
        for name in ("f1", "resolution", "c"):
            check_positive(name, getattr(self, name))
        ks = tuple(int(k) for k in self.spacings)
        if len(ks) < 1:
            raise ValueError("plan needs at least one spacing (N >= 2)")
        for k, orig in zip(ks, self.spacings):
            if not isinstance(orig, Integral) or k < 1:
                raise ValueError("spacings must be integers >= 1 (grid units)")
        object.__setattr__(self, "spacings", ks)
        freqs = self.f1 + self.resolution * np.concatenate(
            ([0.0], np.cumsum(np.asarray(ks, dtype=float)))
        )
        freqs.setflags(write=False)
        object.__setattr__(self, "_frequencies", freqs)

    @property
    def n(self) -> int:
        """Number of measurement frequencies N."""
        return len(self.spacings) + 1

    @property
    def frequencies(self) -> np.ndarray:
        """Ascending frequencies in Hz (read-only array of length N)."""
        return self._frequencies

    @property
    def bandwidth(self) -> float:
        """f_N - f1 in Hz, exact in grid units."""
        return self.resolution * sum(self.spacings)

    @property
    def spacings_hz(self) -> np.ndarray:
        """Adjacent-frequency spacings in Hz, in plan order."""
        return self.resolution * np.asarray(self.spacings, dtype=float)

    @property
    def lambda_min(self) -> float:
        """Shortest wavelength c/f_N in meters."""
        return self.c / float(self._frequencies[-1])


def spacing_gcd(plan: FrequencyPlan) -> int:
    """GCD of the integer spacings, in grid units.

    The effective spacing GCD in Hz is ``spacing_gcd(plan) * plan.resolution``.
    """
    return reduce(math.gcd, plan.spacings)


@dataclass(frozen=True)
class PhaseVector:
    """Wrapped phase observations, one per plan frequency, each in (-pi, pi]."""

    phases: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.phases, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("phases must be a 1-D sequence")
        _check_phases(arr)
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "phases", arr)

    def as_array(self) -> np.ndarray:
        return self.phases


@dataclass(frozen=True)
class NoiseModel:
    """Phase-noise specification for synthetic measurements.

    ``kind`` is one of ``phase-gaussian`` (i.i.d. Gaussian phase error of
    std ``sigma_theta``), ``complex-awgn`` (phase extracted from a unit
    carrier plus complex Gaussian noise of variance 2*sigma_theta^2), or
    ``none``.  Exactly one of ``sigma_theta`` / ``snr_db`` is given for the
    noisy kinds.  ``bias`` is an optional fixed per-frequency phase offset
    in radians, a stand-in for non-Gaussian field effects in replay
    experiments.
    """

    kind: str
    sigma_theta: float | None = None
    snr_db: float | None = None
    bias: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"noise kind must be one of {NOISE_KINDS}")
        given = (self.sigma_theta is not None) + (self.snr_db is not None)
        if self.kind == "none":
            if given:
                raise ValueError("noise kind 'none' takes no sigma_theta/snr_db")
        elif given != 1:
            raise ValueError("give exactly one of sigma_theta or snr_db")
        if self.kind != "none":
            check_positive("sigma_theta", self.sigma)
        if self.bias is not None:
            bias = tuple(float(b) for b in self.bias)
            if not all(math.isfinite(b) for b in bias):
                raise ValueError("bias entries must be finite")
            object.__setattr__(self, "bias", bias)

    @classmethod
    def none(cls) -> "NoiseModel":
        return cls(kind="none")

    @classmethod
    def phase_gaussian(cls, *, sigma_theta=None, snr_db=None, bias=None) -> "NoiseModel":
        return cls(kind="phase-gaussian", sigma_theta=sigma_theta, snr_db=snr_db, bias=bias)

    @classmethod
    def complex_awgn(cls, *, sigma_theta=None, snr_db=None, bias=None) -> "NoiseModel":
        return cls(kind="complex-awgn", sigma_theta=sigma_theta, snr_db=snr_db, bias=bias)

    @property
    def sigma(self) -> float:
        """Effective phase-noise std in radians (0 for kind 'none')."""
        if self.kind == "none":
            return 0.0
        if self.sigma_theta is not None:
            return float(self.sigma_theta)
        return sigma_theta_from_snr_db(float(self.snr_db))


def synth_phases(
    plan: FrequencyPlan, q0: float, noise: NoiseModel, rng=None
) -> PhaseVector | np.ndarray:
    """Synthesize wrapped phase vectors for a true range ``q0``.

    phi(i) = wrap(2*pi*q0*f_i/c + theta_e(i) + bias_i) with theta_e drawn
    per ``noise``: i.i.d. N(0, sigma_theta^2) for ``phase-gaussian``, the
    phase of exp(j*phi0) + n with complex n of variance 2*sigma_theta^2 for
    ``complex-awgn``, and 0 for ``none``.

    ``rng`` is a numpy Generator (required for the noisy kinds), and the
    result is one :class:`PhaseVector`.  ``rng`` may instead be an
    iterable of Generators, one per trial, and the result is then a
    (trials, N) array whose row t equals, bit for bit, the single result
    for the t-th Generator.  Each trial's normals (N of them, or 2N for
    ``complex-awgn``: the real parts, then the imaginary parts) are drawn
    into one row of a preallocated buffer, in trial order, and the
    formula, the wrap and the range check then run once on the whole
    buffer.  A sized iterable is read one Generator at a time, each drawn
    from before the next is taken, so it may hand out one re-keyed
    Generator (as :func:`mfirange.montecarlo.synth_trial_matrix` does).
    """
    if not math.isfinite(q0):
        raise ValueError("q0 must be finite")
    ideal = TWO_PI * q0 * plan.frequencies / plan.c
    if noise.bias is not None:
        if len(noise.bias) != plan.n:
            raise ValueError("bias length must equal the plan frequency count")
        ideal = ideal + np.asarray(noise.bias)
    single = rng is None or isinstance(rng, np.random.Generator)
    if single:
        streams = (rng,)
    else:
        streams = rng if isinstance(rng, Sized) else list(rng)
    n = plan.n
    if noise.kind == "none":
        out = np.empty((len(streams), n))
        out[:] = ideal
    else:
        draws = n if noise.kind == "phase-gaussian" else 2 * n
        buf = np.empty((len(streams), draws))
        for row, g in zip(buf, streams, strict=True):
            if g is None:
                raise ValueError("rng is required for noisy synthesis")
            g.standard_normal(out=row)
        sigma = noise.sigma
        if noise.kind == "phase-gaussian":
            buf *= sigma
            buf += ideal
            out = buf
        else:  # complex-awgn: per-component std is sigma_theta
            z = np.exp(1j * wrap_phase(ideal))
            z = z + sigma * (buf[:, :n] + 1j * buf[:, n:])
            out = np.angle(z)
    _wrap_phase_inplace(out)
    if single:
        return PhaseVector(out[0])
    _check_phases(out)
    return out
