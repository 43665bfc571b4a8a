"""Observable extraction: moments, correlators, distributions, spectra."""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .analytic import UNDEFINED_N1_FLOOR, amplitude_arrays, analytic_observables
from .hilbert import build_basis, mode_operator
from .liouvillian import DEFAULT_CUTOFF, DegenerateSteadyStateError, DensityMatrix, solve_points
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

PEAK_SADDLE_RATIO = 1.05
PEAK_MIN_SEPARATION = 2


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
    skipped: tuple[int, ...]

    @property
    def peak_count(self) -> int:
        return len(self.peak_indices)

    @property
    def peak_deltas(self) -> tuple[float, ...]:
        return tuple(float(self.delta[i]) for i in self.peak_indices)


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


def detect_peaks(y) -> list[int]:
    """Indices of resolved local maxima.

    A NaN cell (a skipped point) is never a maximum, and neither is its
    neighbour: a maximum needs both neighbours defined and lower. Strict
    interior maxima are merged when closer than ``PEAK_MIN_SEPARATION``
    grid points or when the lower of an adjacent pair does not rise above
    ``PEAK_SADDLE_RATIO`` times the saddle between them; the taller survives.
    """
    y = np.asarray(y, dtype=float)
    idx = (np.flatnonzero((y[1:-1] > y[:-2]) & (y[1:-1] > y[2:])) + 1).tolist()
    changed = True
    while changed and len(idx) > 1:
        changed = False
        for k in range(len(idx) - 1):
            i, j = idx[k], idx[k + 1]
            saddle = y[i:j + 1].min()
            if (j - i) < PEAK_MIN_SEPARATION or min(y[i], y[j]) < PEAK_SADDLE_RATIO * saddle:
                idx.pop(k if y[i] < y[j] else k + 1)
                changed = True
                break
    return idx


def excitation_spectrum(p: SystemParams, delta_grid, backend: str = "analytic",
                        *, cutoff: tuple[int, int] = DEFAULT_CUTOFF) -> SpectrumResult:
    """S1(delta) = N1(delta) / n0 over a detuning grid, with peak detection.

    backend 'analytic' evaluates the closed-form amplitudes (singular grid
    points and points where N1 vanishes are NaN and listed in ``skipped``);
    'lindblad' solves the master-equation steady state per point through
    ``liouvillian.solve_points`` (see there for the ``__main__`` guard it
    needs) and raises DegenerateSteadyStateError if any point fails.
    """
    return _spectra([p], np.asarray(delta_grid, dtype=float), backend, cutoff)[1][0]


def _spectra(rows: list[SystemParams], deltas: np.ndarray, backend: str,
             cutoff: tuple[int, int]) -> tuple[np.ndarray, list[SpectrumResult]]:
    """S1 over ``rows`` x ``deltas``, and each row's ``excitation_spectrum``
    result (its s1 a view of that row). The analytic backend evaluates one
    row at a time, so its arrays stay row-sized; the Lindblad backend solves
    every cell in one ``solve_points`` pool."""
    if deltas.size == 0:
        raise ValueError("delta grid must be nonempty")
    n0 = np.array([n0_normalization(pg) for pg in rows])
    if np.any(n0 == 0.0):
        raise ValueError("no drive: S1 = N1 / n0 is undefined")
    s1 = np.full((len(rows), deltas.size), np.nan)
    skipped = [()] * len(rows)
    if backend == "analytic":
        for i, pg in enumerate(rows):
            amps, singular = amplitude_arrays(pg, deltas, pg.gamma2_prime)
            n1 = analytic_observables(amps).n1
            defined = ~singular & (n1 >= UNDEFINED_N1_FLOOR)
            s1[i, defined] = n1[defined] / n0[i]
            skipped[i] = tuple(np.flatnonzero(~defined).tolist())
    elif backend == "lindblad":
        cells = [pg.with_(delta=float(d)) for pg in rows for d in deltas]
        solved = solve_points(cells, build_basis(per_mode=cutoff), _mode1_occupation)
        for pc, (_, failure) in zip(cells, solved):
            if failure:
                raise DegenerateSteadyStateError(
                    f"lindblad point gamma_tip={pc.gamma_tip!r}, delta={pc.delta!r} "
                    f"failed: {failure[0]}: {failure[1]}")
        s1[:] = np.reshape([n1 for n1, _ in solved], s1.shape) / n0[:, None]
    else:
        raise ValueError("backend must be 'analytic' or 'lindblad'")

    return s1, [SpectrumResult(delta=deltas, s1=row, peak_indices=tuple(detect_peaks(row)),
                               skipped=row_skipped) for row, row_skipped in zip(s1, skipped)]


def _mode1_occupation(rho: DensityMatrix) -> float:
    """N1 = <a1' a1> of a steady state: the Lindblad spectrum's reduction."""
    return rho.expectation(mode_operator(rho.basis, 1, "number").data).real
