"""Perturbative closed-form steady-state amplitudes and correlators.

Weak-drive solution of the driven, lossy resonator pair restricted to at
most three total excitations. Serves as an independent oracle for the
master-equation pipeline: populations are |C_mn|^2 with C00 = 1. The one
copy of the formulas runs on scalars (``steady_amplitudes``) or elementwise
on arrays of delta and gamma_2' (``amplitude_arrays``), with the same
rounding in both.
"""

from __future__ import annotations

import warnings
from contextlib import nullcontext
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .model import AMPLITUDE_STATES, UNDEFINED_N1_FLOOR, SystemParams

__all__ = [
    "Intermediates",
    "AmplitudeSet",
    "AnalyticObservables",
    "SingularParameterError",
    "steady_amplitudes",
    "amplitude_arrays",
    "n1_arrays",
    "analytic_observables",
    "shell_ratio",
]

WEAK_DRIVE_WARNING_RATIO = 0.1
# the largest N1 whose cube, the denominator of g3, stays within the float
# range; beyond it (a drive far past the weak-drive regime) g2 and g3 are
# undefined, as where N1 vanishes
N1_CEILING = np.finfo(float).max ** (1 / 3)
SQRT2, SQRT6 = np.sqrt(2), np.sqrt(6)


class SingularParameterError(ValueError):
    """A closed-form denominator vanished; carries the offending factor."""

    def __init__(self, factor: str, value: complex):
        self.factor = factor
        self.value = value
        super().__init__(f"singular parameter point: |{factor}| = {abs(value):.3e}")


@dataclass(frozen=True)
class Intermediates:
    """Detuning combinations and denominators of the closed-form solution.

    Scalars from ``steady_amplitudes``; arrays from ``amplitude_arrays``.
    """

    d1: complex
    d2: complex
    d3: complex
    d4: complex
    d5: complex
    d6: complex
    eta1: complex
    eta2: complex
    eta3: complex
    xi1: complex
    xi2: complex
    mu: complex


@dataclass(frozen=True)
class AmplitudeSet:
    """Steady-state probability amplitudes C_mn up to N = m + n = 3.

    Scalars from ``steady_amplitudes``; arrays from ``amplitude_arrays``.
    """

    c00: complex
    c01: complex
    c10: complex
    c02: complex
    c11: complex
    c20: complex
    c03: complex
    c12: complex
    c21: complex
    c30: complex
    intermediates: Intermediates

    def amplitude(self, m: int, n: int) -> complex:
        return getattr(self, f"c{m}{n}")

    def populations(self) -> dict[tuple[int, int], float]:
        """P_mn = |C_mn|^2 for every retained state."""
        amps = (self.c00, self.c01, self.c10, self.c02, self.c11, self.c20,
                self.c03, self.c12, self.c21, self.c30)
        return {state: _pow(_abs(c), 2) for state, c in zip(AMPLITUDE_STATES, amps)}


@dataclass(frozen=True)
class AnalyticObservables:
    n1: float
    n2: float
    g2: float
    g2_approx: float
    g3: float


def _cmul(a, b):
    """Complex product by the scalar formula, elementwise on arrays.

    re = ar*br - ai*bi and im = ar*bi + ai*br, each operation rounded, as
    Python's and numpy's scalar complex products compute it. numpy's
    vectorised complex multiply fuses these operations on some CPUs, so its
    array results can differ from the scalar ones in the last bit.
    """
    if type(a) is not np.ndarray and type(b) is not np.ndarray:
        return a * b
    ar, ai, br, bi = np.real(a), np.imag(a), np.real(b), np.imag(b)
    out = np.empty(np.broadcast(ar, br).shape, dtype=complex)
    out.real = ar * br - ai * bi
    out.imag = ar * bi + ai * br
    return out


def _abs(z):
    """|z| as hypot(re, im), which is what scalar ``abs`` computes."""
    return np.hypot(z.real, z.imag) if type(z) is np.ndarray else abs(z)


def _pow(x, k):
    """x**k through libm pow, as for scalars; numpy computes ``array**2`` as x*x."""
    return np.float_power(x, k) if type(x) is np.ndarray else x**k


def _mode1_sum(populations: dict):
    """N1 = sum of m * P_mn over the populations with m >= 1, in the order of
    ``populations`` (``AMPLITUDE_STATES``').

    Left to right, as the sum over all ten populations, whose m = 0 terms
    are 0 * P = +0.0 and leave a sum of non-negative numbers unchanged: the
    bits are the same wherever the m = 0 populations are finite. Where one
    of them is not (inf or NaN), the ten-term sum is NaN and N1 here is the
    sum of its own terms: finite where they are.
    """
    return sum(m * pr for (m, _), pr in populations.items() if m)


def _intermediates(p: SystemParams, delta, g2p) -> Intermediates:
    d1 = delta - 0.5j * p.gamma1_prime
    d2 = delta - 0.5j * g2p
    d3 = d1 + p.chi
    d4 = d1 + 2 * p.chi
    d5 = 2 * d3 + d2
    d6 = d1 + 2 * d2
    J2 = float(p.J) ** 2
    eta1 = _cmul(d1, d2) - J2
    xi1 = _cmul(d1, d3) + _cmul(d2, d3) - J2
    eta2 = _cmul(2 * xi1, d2) - 2 * J2 * d3
    eta3 = J2 - _cmul(d2, d6)
    xi2 = J2 - _cmul(4 * d2, d4) - _cmul(d4, d5)
    mu = J2 * xi2 - _cmul(J2 * d2, d6) + _cmul(_cmul(_cmul(d2, d4), d5), d6)
    return Intermediates(d1, d2, d3, d4, d5, d6, eta1, eta2, eta3, xi1, xi2, mu)


def _singular_factors(p: SystemParams, t: Intermediates, delta, g2p):
    """(name, value, mask) for eta1, eta2 and mu: |value| < 1e-12 * scale**power."""
    scales = (abs(delta), p.J, abs(p.chi), p.gamma1_prime, g2p, 1e-300)
    if type(delta) is np.ndarray or type(g2p) is np.ndarray:
        base = reduce(np.maximum, scales)
    else:
        base = max(scales)
    return [(name, value, _abs(value) < 1e-12 * _pow(base, power))
            for name, value, power in (("eta1", t.eta1, 2), ("eta2", t.eta2, 3),
                                       ("mu", t.mu, 4))]


def _shared_terms(p: SystemParams, t: Intermediates) -> tuple:
    """The drive powers Omega e^(i phase), its square and cube, and the
    products d2^2, eta1 eta2, eta1 eta2 mu, 3 eta1 eta2 mu and w3, which the
    m >= 1 amplitudes share with c01, c02 and c03."""
    # Each product is taken in the left-to-right order of the written
    # formula; with _cmul, _abs and _pow, array elements then round exactly
    # as scalar evaluation does.
    om = p.omega_drive_amp * np.exp(1j * p.drive_phase)
    d2sq = _cmul(t.d2, t.d2)
    e12 = _cmul(t.eta1, t.eta2)
    e12mu = _cmul(e12, t.mu)
    e12mu3 = _cmul(_cmul(3 * t.eta1, t.eta2), t.mu)
    w3 = _cmul(t.xi2, t.d2 + t.d3) - _cmul(2 * d2sq, t.d1 + t.d2)
    return om, om**2, om**3, d2sq, e12, e12mu, e12mu3, w3


def _mode1_amplitudes(p: SystemParams, t: Intermediates, shared: tuple) -> dict:
    """C_mn of the states with m >= 1, keyed (m, n) in ``AMPLITUDE_STATES`` order."""
    om, om2, om3, d2sq, e12, e12mu, e12mu3, w3 = shared
    J = p.J
    d1, d2, d3, d4, d5, d6 = t.d1, t.d2, t.d3, t.d4, t.d5, t.d6
    eta1, eta3 = t.eta1, t.eta3
    c10 = _cmul(-om, d2) / eta1
    c11 = _cmul(_cmul(-2 * om2, d2) * J, d3 + d2) / e12
    c20 = _cmul(_cmul(SQRT2 * om2, d2sq), d1 + d2) / e12
    c12 = _cmul(_cmul(SQRT2 * J**2 * om3, d2), w3) / e12mu
    u3 = (_cmul(_cmul(d2sq, eta3), d1 + d2)
          - _cmul(_cmul(_cmul(2 * d2sq, d4), d6), d2 + d3))
    c21 = _cmul(-SQRT2 * J * om3, u3) / e12mu
    v3 = (_cmul(_cmul(d2sq, 4 * J**2 * d2 + _cmul(d5, eta3)), d1 + d2)
          - _cmul(_cmul(2 * J**2 * d2sq, d6), d2 + d3))
    c30 = _cmul(SQRT6 * om3, v3) / e12mu3
    return {(1, 0): c10, (1, 1): c11, (2, 0): c20, (1, 2): c12, (2, 1): c21, (3, 0): c30}


def _amplitudes(p: SystemParams, t: Intermediates) -> AmplitudeSet:
    shared = _shared_terms(p, t)
    om, om2, om3, _, e12, _, e12mu3, w3 = shared
    J = p.J
    c01 = J * om / t.eta1
    c02 = _cmul(SQRT2 * om2 * J**2, t.d3 + t.d2) / e12
    c03 = _cmul(-SQRT6 * J**3 * om3, w3) / e12mu3
    mode1 = {f"c{m}{n}": c for (m, n), c in _mode1_amplitudes(p, t, shared).items()}
    return AmplitudeSet(c00=1.0 + 0.0j, c01=c01, c02=c02, c03=c03, **mode1,
                        intermediates=t)


def _warn_strong_drive(p: SystemParams) -> None:
    if p.omega_drive_amp > WEAK_DRIVE_WARNING_RATIO * p.gamma1_prime:
        warnings.warn(
            "drive exceeds 0.1*gamma_1'; perturbative amplitudes degrade",
            stacklevel=3,
        )


def steady_amplitudes(p: SystemParams) -> AmplitudeSet:
    """Closed-form steady amplitudes for the weak-drive regime.

    Raises SingularParameterError naming the vanishing denominator (eta1,
    eta2 or mu) instead of regularizing; warns when Omega exceeds a tenth
    of gamma_1', where the perturbative ladder starts to degrade.
    """
    _warn_strong_drive(p)
    t = _intermediates(p, p.delta, p.gamma2_prime)
    for name, value, singular in _singular_factors(p, t, p.delta, p.gamma2_prime):
        if singular:
            raise SingularParameterError(name, value)
    return _amplitudes(p, t)


def _array_intermediates(p: SystemParams, delta, gamma2_prime) -> tuple[Intermediates, np.ndarray]:
    """Intermediates over arrays of delta and gamma_2', and the singular mask."""
    delta = np.asarray(delta, dtype=float)
    g2p = np.asarray(gamma2_prime, dtype=float)
    t = _intermediates(p, delta, g2p)
    singular = np.zeros(np.broadcast(delta, g2p).shape, dtype=bool)
    for _, _, mask in _singular_factors(p, t, delta, g2p):
        singular |= mask
    return t, singular


def amplitude_arrays(p: SystemParams, delta, gamma2_prime) -> tuple[AmplitudeSet, np.ndarray]:
    """The closed form of ``steady_amplitudes`` over arrays of delta and gamma_2'.

    ``delta`` and ``gamma2_prime`` broadcast against each other and replace
    ``p.delta`` and ``p.gamma2_prime``. Returns amplitudes whose fields are
    arrays (c00 stays the scalar 1) and a mask of the elements where eta1,
    eta2 or mu vanishes; the amplitudes there are not meaningful. Every
    element is bit-identical to the scalar evaluation at that point. Warns
    as ``steady_amplitudes`` does when the drive is strong.
    """
    _warn_strong_drive(p)
    t, singular = _array_intermediates(p, delta, gamma2_prime)
    with np.errstate(all="ignore"):
        return _amplitudes(p, t), singular


def n1_arrays(p: SystemParams, delta, gamma2_prime) -> tuple[np.ndarray, np.ndarray]:
    """N1 of ``analytic_observables(amplitude_arrays(...)[0])`` and the same
    singular mask, from the six m >= 1 amplitudes alone (see ``_mode1_sum``
    for where the m = 0 populations are not finite). Warns as
    ``amplitude_arrays`` does."""
    _warn_strong_drive(p)
    t, singular = _array_intermediates(p, delta, gamma2_prime)
    with np.errstate(all="ignore"):
        amps = _mode1_amplitudes(p, t, _shared_terms(p, t))
        return _mode1_sum({state: _pow(_abs(c), 2) for state, c in amps.items()}), singular


def shell_ratio(p: SystemParams, delta, gamma2_prime) -> float:
    """The largest ratio of the populations of the shells N + 1 and N (P_N,
    the sum of P_mn over m + n = N), for N = 1 and 2, over the elements of
    ``delta`` and ``gamma2_prime`` (as for ``amplitude_arrays``) where the
    closed form is not singular; NaN where no element is. It does not warn
    about a strong drive: a run that reports no analytic column predicts its
    excitation cap from it."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        amps, singular = amplitude_arrays(p, delta, gamma2_prime)
    pops = amps.populations()
    p1, p2, p3 = (sum(pr for (m, n), pr in pops.items() if m + n == N) for N in (1, 2, 3))
    with np.errstate(all="ignore"):
        ratios = np.broadcast_to(np.maximum(p2 / p1, p3 / p2), singular.shape)[~singular]
    return float(np.max(ratios)) if ratios.size else float("nan")


def analytic_observables(amps: AmplitudeSet) -> AnalyticObservables:
    """Mean occupations and equal-time correlators from the amplitudes.

    g2 carries the full numerator 2*P20 + 6*P30 + 2*P21 over the full N1
    (the form matching the master-equation numerics); g2_approx is the
    leading-order 2*P20/P10^2, whose algebra collapses to exactly 1 for a
    linear system. g3 = 6*P30 / N1^3.

    Scalar amplitudes raise ValueError where N1 vanishes or exceeds
    ``N1_CEILING``. Array amplitudes give array observables; there the
    caller masks elements whose N1 is not within [UNDEFINED_N1_FLOOR,
    N1_CEILING], whose correlators are not finite or not meaningful.
    """
    array = type(amps.c10) is np.ndarray
    with np.errstate(all="ignore") if array else nullcontext():
        P = amps.populations()
        n1 = _mode1_sum(P)
        n2 = sum(n * pr for (m, n), pr in P.items())
        p10 = P[(1, 0)]
        if array:
            p10 = np.where(p10 > 0, p10, np.nan)
        elif n1 < UNDEFINED_N1_FLOOR:
            raise ValueError("N1 vanishes: correlation functions are undefined")
        elif not n1 <= N1_CEILING:
            raise ValueError(f"N1 = {n1:.3e} exceeds {N1_CEILING:.3e}: N1^3, the "
                             "denominator of g3, is beyond the float range")
        elif not p10 > 0:
            p10 = np.nan
        g2 = (2 * P[(2, 0)] + 6 * P[(3, 0)] + 2 * P[(2, 1)]) / _pow(n1, 2)
        g2_approx = 2 * P[(2, 0)] / _pow(p10, 2)
        g3 = 6 * P[(3, 0)] / _pow(n1, 3)
    return AnalyticObservables(n1=n1, n2=n2, g2=g2, g2_approx=g2_approx, g3=g3)
