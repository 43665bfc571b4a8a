"""Observable extraction: moments, correlators, distributions, spectra."""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .hilbert import mode1_moment, mode_operator
from .liouvillian import (
    DEFAULT_CUTOFF,
    DegenerateSteadyStateError,
    DensityMatrix,
    driven_basis,
    solve_points,
)
from .model import AMPLITUDE_STATES, UNDEFINED_N1_FLOOR, SystemParams

__all__ = [
    "PhotonStatistics",
    "PoissonComparison",
    "SpectrumResult",
    "photon_statistics",
    "poisson_comparison",
    "excitation_spectrum",
    "detect_peaks",
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

    @property
    def peak_count(self) -> int:
        return len(self.peak_indices)

    @property
    def peak_deltas(self) -> tuple[float, ...]:
        return tuple(float(self.delta[i]) for i in self.peak_indices)


def photon_statistics(rho: DensityMatrix) -> PhotonStatistics:
    """Moments read from the state's populations on the truncated basis: each
    moment's operator is diagonal in the Fock basis, so its mean is the
    populations weighted by that diagonal, summed as complex numbers in
    np.trace's order (bit for bit np.trace(op @ rho).real). g2 = <a1'^2 a1^2>
    / N1^2 and g3 = <a1'^3 a1^3> / N1^3; raises when N1 is too small for the
    correlators to be defined.
    """
    basis, pops = rho.basis, np.diagonal(rho.data)
    n1, n2, m2, m3 = (float((np.diagonal(op.data) * pops).sum().real) for op in (
        mode_operator(basis, 1, "number"), mode_operator(basis, 2, "number"),
        mode1_moment(basis, 2), mode1_moment(basis, 3)))
    if n1 < UNDEFINED_N1_FLOOR:
        raise ValueError("N1 vanishes: correlation functions are undefined")
    return PhotonStatistics(
        n1=n1, n2=n2, g2=m2 / n1**2, g3=m3 / n1**3,
        p_mn=rho.populations(), p_m=rho.mode1_marginal(),
    )


def poisson_comparison(p_m) -> PoissonComparison:
    """Deviation of P_m from the Poisson distribution with the same mean.

    ``p_m`` must be trace-normalized (it sums to 1): the m = 0 deviation,
    P_0 - e^(-mu), is a difference of two numbers near 1 at weak drive, so it
    is computed as -expm1(-mu) - sum(P_m, m >= 1), which keeps full precision.
    """
    p = np.asarray(p_m, dtype=float)
    mu = float(np.sum(np.arange(len(p)) * p))
    ref = np.array([np.exp(-mu) * mu**m / factorial(m) for m in range(len(p))])
    deviation = p - ref
    deviation[0] = -np.expm1(-mu) - np.sum(p[1:])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(ref > 0, p / ref, np.inf)
    return PoissonComparison(mu=mu, p_m=p, poisson=ref, deviation=deviation, ratio=ratio)


def _n0(omega: float, loss: float, gamma_tip: float) -> float:
    """Spectrum normalization n0 = Omega^2 / loss^2 at ``gamma_tip``, where
    loss = gamma_1' + gamma_2', on floats (libm pow; numpy's array ** 2 is
    x * x). ValueError where loss^2 is 0: no loss, or one so small that its
    square underflows. Within ``SystemParams``' range neither square overflows."""
    den = float(loss) ** 2
    if den == 0.0:
        raise ValueError(f"no loss at gamma_tip={gamma_tip!r}: S1 = N1 / n0 is undefined")
    return float(omega) ** 2 / den


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
    points and points where N1 vanishes are NaN);
    'lindblad' solves the master-equation steady state per point on
    ``liouvillian.driven_basis(cutoff)`` through
    ``liouvillian.solve_points`` and raises DegenerateSteadyStateError if
    any point fails.
    """
    return _spectra(p, np.array([p.gamma_tip], dtype=float),
                    np.asarray(delta_grid, dtype=float), backend, cutoff)[1][0]


# Cells per analytic block of whole gamma_tip rows. On the preset map (121 x
# 501, perfbench fig2c_map; 2-core Xeon VM, numpy 2.4.6), the peak RSS of a
# whole map command and the median time of its _spectra call, by block size:
#   cells              1024   2048   4096   8192   16384   the whole map
#   peak RSS (MiB)     32.4   32.4   32.4   34.1   37.5    55.6
#   _spectra (ms)      53.3   40.7   35.4   31.8
# 8192 cells would be +5.2 % in peak_rss_mb, over that metric's 5 % bound.
ANALYTIC_BLOCK_CELLS = 4096


def _spectra(p: SystemParams, gamma_tips: np.ndarray, deltas: np.ndarray, backend: str,
             cutoff: tuple[int, int]) -> tuple[np.ndarray, list[SpectrumResult]]:
    """S1 over ``gamma_tips`` x ``deltas`` at ``p`` with its gamma_tip replaced
    per row, and each row's ``excitation_spectrum`` result (its s1 a view of
    that row). The analytic backend evaluates blocks of whole rows of at most
    ``ANALYTIC_BLOCK_CELLS`` cells (at least one row) in one
    ``analytic.n1_arrays`` call each. The Lindblad backend solves every cell in
    one ``solve_points`` pool."""
    if deltas.size == 0:
        raise ValueError("delta grid must be nonempty")
    # the grids skip SystemParams: checked once, at their largest magnitudes
    p.with_(gamma_tip=float(gamma_tips[np.argmax(np.abs(gamma_tips))]),
            delta=float(deltas[np.argmax(np.abs(deltas))]))
    g2p = p.gamma_2 + gamma_tips
    n0 = np.array([_n0(p.omega_drive_amp, loss, gt) for gt, loss
                   in zip(gamma_tips.tolist(), (p.gamma1_prime + g2p).tolist())])
    if np.any(n0 == 0.0):
        raise ValueError("no drive: S1 = N1 / n0 is undefined")
    s1 = np.full((gamma_tips.size, deltas.size), np.nan)
    if backend == "analytic":
        # here: the sweep workers, which import this module, load no analytic
        from .analytic import n1_arrays

        step = max(1, ANALYTIC_BLOCK_CELLS // deltas.size)
        for lo in range(0, gamma_tips.size, step):
            g = g2p[lo:lo + step]
            n1, singular = n1_arrays(p, deltas[None, :], g[:, None])
            np.divide(n1, n0[lo:lo + g.size, None], out=s1[lo:lo + g.size],
                      where=~singular & (n1 >= UNDEFINED_N1_FLOOR))
    elif backend == "lindblad":
        basis = driven_basis(cutoff)  # an oversized cutoff fails before any cell
        cells = [p.with_(gamma_tip=gt, delta=d)
                 for gt in gamma_tips.tolist() for d in deltas.tolist()]
        # at the ceiling: solve_points escalates every point when one misses
        # its estimate, so a map with any resonant cell would reach it anyway
        solved = solve_points(cells, basis, _mode1_occupation).results
        for pc, (_, failure) in zip(cells, solved):
            if failure:
                raise DegenerateSteadyStateError(
                    f"lindblad point gamma_tip={pc.gamma_tip!r}, delta={pc.delta!r} "
                    f"failed: {failure[0]}: {failure[1]}")
        s1[:] = np.reshape([n1 for n1, _ in solved], s1.shape) / n0[:, None]
    else:
        raise ValueError("backend must be 'analytic' or 'lindblad'")

    return s1, [SpectrumResult(delta=deltas, s1=row, peak_indices=tuple(detect_peaks(row)))
                for row in s1]


def _mode1_occupation(rho: DensityMatrix) -> float:
    """N1 = <a1' a1> of a steady state: the Lindblad spectrum's reduction."""
    number = np.diagonal(mode_operator(rho.basis, 1, "number").data)
    return float((number * np.diagonal(rho.data)).sum().real)  # as photon_statistics' N1


def _lindblad_columns(rho: DensityMatrix) -> dict:
    """Lindblad columns of one sweep row from its steady state; a reported
    population outside its basis is 0.
    ``experiments.sweep_loss``' reduction, kept here so that its workers
    need not import ``experiments``."""
    stats = photon_statistics(rho)
    columns = {"lindblad_n1": stats.n1, "lindblad_n2": stats.n2,
               "lindblad_g2": stats.g2, "lindblad_g3": stats.g3}
    columns.update({f"lindblad_p{m}{n}": stats.p_mn.get((m, n), 0.0)
                    for m, n in AMPLITUDE_STATES})
    columns["lindblad_failed"] = 0
    return columns
