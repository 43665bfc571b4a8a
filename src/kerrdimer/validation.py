"""Named cross-check suite behind the ``validate`` CLI command.

Every module-level invariant of the analytic, liouvillian, and observables
modules maps to exactly one named check here, so a validate report is an
exhaustive pass/fail list of those guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import analytic_observables, steady_amplitudes
from .hilbert import build_basis
from .liouvillian import (
    DEFAULT_CUTOFF,
    DensityMatrix,
    build_liouvillian,
    driven_basis,
    excitation_cap,
    steady_state,
)
from .model import SystemParams
from .observables import excitation_spectrum, photon_statistics
from .experiments import loss_point

__all__ = ["CheckResult", "run_validation"]

# per-mode cutoff of the cutoff-convergence reference, solved on its driven basis
REFERENCE_CUTOFF = (7, 7)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    value: float | None = None


def _check_amplitude_scaling(p: SystemParams) -> CheckResult:
    # halving Omega multiplies each order-N amplitude by 2^-N
    pg = loss_point(p, 1.0)
    a_full = steady_amplitudes(pg)
    a_half = steady_amplitudes(pg.with_(omega_drive_amp=pg.omega_drive_amp / 2))
    worst = 0.0
    for (m, n) in ((0, 1), (1, 0), (0, 2), (1, 1), (2, 0), (0, 3), (1, 2), (2, 1), (3, 0)):
        expected = abs(a_full.amplitude(m, n)) * 0.5 ** (m + n)
        got = abs(a_half.amplitude(m, n))
        worst = max(worst, abs(got - expected) / expected)
    return CheckResult("analytic_amplitude_scaling", worst < 1e-10,
                       f"max relative deviation from 2^-N scaling: {worst:.3e}", worst)


def _check_g2_approx_limit(p: SystemParams) -> CheckResult:
    pg = loss_point(p, 1.0).with_(omega_drive_amp=1e-3 * p.gamma1_prime)
    obs = analytic_observables(steady_amplitudes(pg))
    dev = abs(obs.g2_approx / obs.g2 - 1.0)
    return CheckResult("analytic_g2_approx_limit", dev < 1e-3,
                       f"|g2_approx/g2 - 1| = {dev:.3e} at Omega = 1e-3", dev)


def _check_intermediates(p: SystemParams) -> CheckResult:
    t = steady_amplitudes(loss_point(p, 2.0)).intermediates
    J2 = p.J**2
    residues = [
        abs(t.d3 - (t.d1 + p.chi)),
        abs(t.d4 - (t.d1 + 2 * p.chi)),
        abs(t.d5 - (2 * t.d3 + t.d2)),
        abs(t.d6 - (t.d1 + 2 * t.d2)),
        abs(t.eta1 - (t.d1 * t.d2 - J2)),
        abs(t.xi1 - (t.d1 * t.d3 + t.d2 * t.d3 - J2)),
        abs(t.eta2 - (2 * t.xi1 * t.d2 - 2 * J2 * t.d3)),
        abs(t.eta3 - (J2 - t.d2 * t.d6)),
        abs(t.xi2 - (J2 - 4 * t.d2 * t.d4 - t.d4 * t.d5)),
        abs(t.mu - (J2 * t.xi2 - J2 * t.d2 * t.d6 + t.d2 * t.d4 * t.d5 * t.d6)),
    ]
    worst = max(residues)
    return CheckResult("analytic_intermediates_selfconsistent", worst < 1e-9,
                       f"max defining-identity residue: {worst:.3e}", worst)


def _check_loss_swap(p: SystemParams) -> CheckResult:
    # chi = 0, swap the loss labels: eta1 invariant, {d5, d6} exchange
    pa = p.with_(chi=0.0, gamma_tip=0.0, delta=0.7)
    pb = pa.with_(gamma_1=pa.gamma_2 / 2, gamma_ex=pa.gamma_2 / 2,
                  gamma_2=pa.gamma1_prime)
    ta = steady_amplitudes(pa).intermediates
    tb = steady_amplitudes(pb).intermediates
    dev = max(
        abs(ta.eta1 - tb.eta1),
        abs(ta.d5 - tb.d6),
        abs(ta.d6 - tb.d5),
    )
    return CheckResult("analytic_loss_swap_symmetry", dev < 1e-12,
                       f"max intermediate mismatch under loss swap: {dev:.3e}", dev)


def _check_populations(p: SystemParams, rho0: DensityMatrix) -> CheckResult:
    basis = driven_basis(DEFAULT_CUTOFF)
    worst = 0.0
    for gt in (0.0, 4.0, 8.9):
        pg = loss_point(p, gt)
        rho = rho0 if gt == 0.0 else steady_state(build_liouvillian(pg, basis, driven=True))
        num = rho.populations()
        ana = steady_amplitudes(pg).populations()
        for state, pa in ana.items():
            if pa > 1e-14:
                worst = max(worst, abs(num[state] - pa) / pa)
    return CheckResult("liouvillian_populations_match_analytic", worst < 0.01,
                       f"max relative P_mn deviation: {worst:.3e}", worst)


def _check_cutoff(p: SystemParams, rho0: DensityMatrix) -> CheckResult:
    # the basis the datasets use against the capped basis of per-mode 7: it
    # holds every default state plus two more levels per mode and two more
    # shells, and gives the columns of the full per-mode 7 square to 1e-14
    rho_ref = steady_state(build_liouvillian(loss_point(p, 0.0), driven_basis(REFERENCE_CUTOFF)))
    got, ref = photon_statistics(rho0), photon_statistics(rho_ref)
    dev = max(abs(got.n1 - ref.n1) / ref.n1, abs(got.g2 - ref.g2) / ref.g2,
              abs(got.g3 - ref.g3) / ref.g3)
    (c1, c2), (r1, r2) = DEFAULT_CUTOFF, REFERENCE_CUTOFF
    return CheckResult("liouvillian_cutoff_convergence", dev < 1e-6,
                       f"cutoff {c1},{c2} with m+n <= {excitation_cap(DEFAULT_CUTOFF)} -> "
                       f"cutoff {r1},{r2} with m+n <= {excitation_cap(REFERENCE_CUTOFF)} "
                       f"relative change in N1, g2, g3: {dev:.3e}", dev)


def _check_phase_invariance(p: SystemParams) -> CheckResult:
    basis = build_basis(per_mode=(4, 4))
    pg = loss_point(p, 2.0)
    base = photon_statistics(steady_state(build_liouvillian(pg, basis)))
    rot = photon_statistics(steady_state(
        build_liouvillian(pg.with_(drive_phase=0.9), basis)))
    dev = max(abs(base.n1 - rot.n1) / base.n1,
              abs(base.g2 - rot.g2) / base.g2,
              abs(base.g3 - rot.g3) / max(base.g3, 1e-30))
    return CheckResult("liouvillian_drive_phase_invariance", dev < 1e-10,
                       f"max relative change under drive phase rotation: {dev:.3e}", dev)


def _check_g2_diagonal(p: SystemParams) -> CheckResult:
    basis = build_basis(per_mode=(4, 4))
    rho = steady_state(build_liouvillian(loss_point(p, 1.0), basis))
    stats = photon_statistics(rho)
    pops = rho.populations()
    n1 = sum(m * pr for (m, n), pr in pops.items())
    m2 = sum(m * (m - 1) * pr for (m, n), pr in pops.items())
    dev = abs(stats.g2 - m2 / n1**2) / stats.g2
    return CheckResult("observables_g2_diagonal_sufficiency", dev < 1e-10,
                       f"moment vs diagonal g2 deviation: {dev:.3e}", dev)


def _check_s1_drive_invariance(p: SystemParams) -> CheckResult:
    deltas = np.linspace(-3, 3, 61)
    # chi = 0: the linear-response normalization cancels; the truncated
    # amplitude ladder realizes it up to its own O(N1) corrections, so the
    # residual scaling must shrink quadratically with the drive
    p0 = p.with_(chi=0.0, gamma_tip=0.0)
    devs = []
    for om in (p.omega_drive_amp, 0.1 * p.omega_drive_amp):
        s_a = excitation_spectrum(p0.with_(omega_drive_amp=om), deltas).s1
        s_b = excitation_spectrum(p0.with_(omega_drive_amp=3 * om), deltas).s1
        devs.append(np.nanmax(np.abs(s_a - s_b) / s_a))
    linear_ok = devs[0] < 0.01 and devs[1] < 2e-2 * devs[0]
    # chi > 0 at the preset drive: doubling Omega moves S1 by < 1 %
    p1 = p.with_(gamma_tip=0.0)
    s_c = excitation_spectrum(p1, deltas).s1
    s_d = excitation_spectrum(p1.with_(omega_drive_amp=2 * p1.omega_drive_amp), deltas).s1
    weak_dev = np.nanmax(np.abs(s_c - s_d) / s_c)
    ok = linear_ok and weak_dev < 0.01
    return CheckResult("observables_s1_drive_invariance", bool(ok),
                       f"chi=0 dev {devs[0]:.3e} -> {devs[1]:.3e} at 10x weaker drive; "
                       f"weak-drive dev {weak_dev:.3e}",
                       float(max(devs[0], weak_dev)))


def _check_peak_stability(p: SystemParams) -> CheckResult:
    stable = True
    detail = []
    for gt in (0.0, 8.9):
        counts = []
        for num in (501, 1001):
            spec = excitation_spectrum(p.with_(gamma_tip=gt), np.linspace(-4, 4, num))
            counts.append(spec.peak_count)
        stable &= counts[0] == counts[1]
        detail.append(f"gt={gt}: {counts[0]}/{counts[1]} peaks")
    return CheckResult("observables_peak_stability", bool(stable), "; ".join(detail))


def run_validation(p: SystemParams) -> list[CheckResult]:
    """Run every named cross-check against one parameter set."""
    checks = [
        _check_amplitude_scaling(p),
        _check_g2_approx_limit(p),
        _check_intermediates(p),
        _check_loss_swap(p),
    ]
    # the steady state at gamma_tip = 0 on the default cutoff's basis, which
    # both the population and the cutoff checks read
    rho0 = steady_state(build_liouvillian(loss_point(p, 0.0), driven_basis(DEFAULT_CUTOFF)))
    return checks + [
        _check_populations(p, rho0),
        _check_cutoff(p, rho0),
        _check_phase_invariance(p),
        _check_g2_diagonal(p),
        _check_s1_drive_invariance(p),
        _check_peak_stability(p),
    ]
