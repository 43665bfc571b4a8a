"""Observable extraction: moments, correlators, distributions, spectra."""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .analytic import UNDEFINED_N1_FLOOR, amplitude_arrays, analytic_observables
from .hilbert import build_basis, mode_operator
from .liouvillian import DensityMatrix, build_liouvillian, steady_state
from .model import SystemParams

__all__ = [
    "PhotonStatistics",
    "PoissonComparison",
    "SpectrumResult",
    "photon_statistics",
    "poisson_comparison",
    "excitation_spectrum",
    "detect_peaks",
    "n0_normalization",
]


@dataclass(frozen=True)
class PhotonStatistics:
    """Occupations, equal-time correlators, and diagonal distributions."""

    n1: float
    n2: float
    g2: float
    g3: float
    p_mn: dict[tuple[int, int], float]
    p_m: np.ndarray


@dataclass(frozen=True)
class PoissonComparison:
    """Photon distribution against the same-mean Poisson reference."""

    mu: float
    p_m: np.ndarray
    poisson: np.ndarray
    deviation: np.ndarray
    ratio: np.ndarray


@dataclass(frozen=True)
class SpectrumResult:
    """Drive-normalized excitation spectrum over a detuning grid."""

    delta: np.ndarray
    s1: np.ndarray
    peak_indices: tuple[int, ...]
    peak_deltas: tuple[float, ...]
    skipped: tuple[int, ...]

    @property
    def peak_count(self) -> int:
        return len(self.peak_indices)


def photon_statistics(rho: DensityMatrix) -> PhotonStatistics:
    """Moments via operator expectation values on the truncated basis.

    g2 = <a1'^2 a1^2> / N1^2 and g3 = <a1'^3 a1^3> / N1^3; raises when N1
    is too small for the correlators to be defined.
    """
    basis = rho.basis
    a1 = mode_operator(basis, 1, "annihilate").data
    a1d = a1.conj().T
    n1 = rho.expectation(mode_operator(basis, 1, "number").data).real
    n2 = rho.expectation(mode_operator(basis, 2, "number").data).real
    if n1 < UNDEFINED_N1_FLOOR:
        raise ValueError("N1 vanishes: correlation functions are undefined")
    m2 = rho.expectation(a1d @ a1d @ a1 @ a1).real
    m3 = rho.expectation(a1d @ a1d @ a1d @ a1 @ a1 @ a1).real
    return PhotonStatistics(
        n1=n1, n2=n2, g2=m2 / n1**2, g3=m3 / n1**3,
        p_mn=rho.populations(), p_m=rho.mode1_marginal(),
    )


def poisson_comparison(p_m) -> PoissonComparison:
    """Deviation of P_m from the Poisson distribution with the same mean."""
    p = np.asarray(p_m, dtype=float)
    mu = float(np.sum(np.arange(len(p)) * p))
    ref = np.array([np.exp(-mu) * mu**m / factorial(m) for m in range(len(p))])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(ref > 0, p / ref, np.inf)
    return PoissonComparison(mu=mu, p_m=p, poisson=ref, deviation=p - ref, ratio=ratio)


def n0_normalization(p: SystemParams) -> float:
    """Spectrum normalization n0 = Omega^2 / (gamma_1' + gamma_2')^2."""
    return p.omega_drive_amp**2 / (p.gamma1_prime + p.gamma2_prime) ** 2


def detect_peaks(y, saddle_ratio: float = 1.05, min_separation: int = 2) -> list[int]:
    """Indices of resolved local maxima.

    Strict interior maxima are merged when closer than ``min_separation``
    grid points or when the lower of an adjacent pair does not rise above
    ``saddle_ratio`` times the saddle between them; the taller survives.
    """
    y = np.asarray(y, dtype=float)
    idx = [i for i in range(1, len(y) - 1) if y[i] > y[i - 1] and y[i] > y[i + 1]]
    changed = True
    while changed and len(idx) > 1:
        changed = False
        for k in range(len(idx) - 1):
            i, j = idx[k], idx[k + 1]
            saddle = y[i:j + 1].min()
            if (j - i) < min_separation or min(y[i], y[j]) < saddle_ratio * saddle:
                idx.pop(k if y[i] < y[j] else k + 1)
                changed = True
                break
    return idx


def excitation_spectrum(p: SystemParams, delta_grid, backend: str = "analytic",
                        *, cutoff: tuple[int, int] = (5, 5)) -> SpectrumResult:
    """S1(delta) = N1(delta) / n0 over a detuning grid, with peak detection.

    backend 'analytic' evaluates the closed-form amplitudes (singular grid
    points and points where N1 vanishes are NaN and listed in ``skipped``);
    'lindblad' solves the master equation steady state per point.
    """
    deltas = np.asarray(delta_grid, dtype=float)
    if deltas.size == 0:
        raise ValueError("delta grid must be nonempty")
    n0 = n0_normalization(p)
    if n0 == 0.0:
        raise ValueError("no drive: S1 = N1 / n0 is undefined")
    s1 = np.full(deltas.shape, np.nan)
    skipped = []
    if backend == "analytic":
        amps, singular = amplitude_arrays(p, deltas, p.gamma2_prime)
        n1 = analytic_observables(amps).n1
        defined = ~singular & (n1 >= UNDEFINED_N1_FLOOR)
        s1[defined] = n1[defined] / n0
        skipped = np.flatnonzero(~defined).tolist()
    elif backend == "lindblad":
        basis = build_basis(per_mode=cutoff)
        num1 = mode_operator(basis, 1, "number").data
        for i, d in enumerate(deltas):
            sop = build_liouvillian(p.with_(delta=float(d)), basis, driven=True)
            rho = steady_state(sop)
            s1[i] = rho.expectation(num1).real / n0
    else:
        raise ValueError("backend must be 'analytic' or 'lindblad'")

    finite = np.where(np.isnan(s1), -np.inf, s1)
    peaks = detect_peaks(finite)
    return SpectrumResult(
        delta=deltas, s1=s1, peak_indices=tuple(peaks),
        peak_deltas=tuple(float(deltas[i]) for i in peaks),
        skipped=tuple(skipped),
    )
