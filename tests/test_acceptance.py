"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see every line; all
tolerances are fixed here, not calibrated at runtime.
"""

import numpy as np

from kerrdimer.analytic import analytic_observables, steady_amplitudes
from kerrdimer.experiments import critical_points, ep_agreement, resolve_delta
from kerrdimer.hilbert import build_basis
from kerrdimer.liouvillian import build_liouvillian, steady_state
from kerrdimer.model import si_reference_rates
from kerrdimer.observables import (
    excitation_spectrum,
    photon_statistics,
    poisson_comparison,
)
from kerrdimer.spectral import (
    hep_location,
    one_photon_eigensystem_closed,
    subspace_eigensystem_numeric,
)


def report(num, description, ok, detail):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} {description}: {detail}"
    print(line)
    assert ok, line


def within(value, target, rel):
    return abs(value - target) <= rel * abs(target)


def lindblad_stats(p, gamma_tip, cutoff=(5, 5)):
    pg = p.with_(gamma_tip=gamma_tip)
    pg = pg.with_(delta=resolve_delta(pg, "track_upper_branch"))
    rho = steady_state(build_liouvillian(pg, build_basis(per_mode=cutoff)))
    return photon_statistics(rho)


def test_criterion_1_hep_location(fig2, hep_locate_numeric):
    ep = hep_location(fig2.J, fig2.gamma1_prime, fig2.gamma_2)
    exact = abs(ep - 8.9) < 1e-12
    located = hep_locate_numeric(fig2, 8.0, 10.0)
    numeric = abs(located - ep) < 1e-3
    report(1, "HEP location",
           exact and numeric,
           f"closed form {ep:.12g}, numeric coalescence {located:.6f}")


def test_criterion_2_hep_lep_agreement(fig2):
    rows = ep_agreement(fig2, np.array([1.0, 1.5, 2.0, 3.0]))
    found = all(r["found"] for r in rows)
    worst = max(r["rel_discrepancy"] for r in rows if r["found"])
    report(2, "HEP-LEP agreement over J",
           found and worst < 0.02,
           f"max |hep-lep|/hep = {worst:.2e} across J = 1, 1.5, 2, 3")


def test_criterion_3_quantum_critical_points(loss_sweep, fig2):
    cps = critical_points(loss_sweep, fig2)
    ok = (cps.cp_q_down is not None and within(cps.cp_q_down, 1.8, 0.15)
          and cps.cp_q_up is not None and within(cps.cp_q_up, 6.5, 0.15))
    report(3, "g2 = 1 crossings",
           ok,
           f"cp_q_down = {cps.cp_q_down:.3f} (1.8 +-15%), "
           f"cp_q_up = {cps.cp_q_up:.3f} (6.5 +-15%)")


def test_criterion_4_classical_critical_point(loss_sweep, fig2):
    cps = critical_points(loss_sweep, fig2)
    loc_ok = cps.cp_c is not None and within(cps.cp_c, 5.3, 0.10)
    # the quoted minimum value belongs to the 4 fW SI drive (N1 scales as
    # Omega^2); evaluate the located minimum at that drive strength
    om_si = si_reference_rates()["omega_drive_over_gamma1p"] * fig2.gamma1_prime
    stats = lindblad_stats(fig2.with_(omega_drive_amp=om_si), cps.cp_c)
    val_ok = 0.003 / 3 <= stats.n1 <= 0.003 * 3
    report(4, "N1 minimum",
           loc_ok and val_ok,
           f"located at {cps.cp_c:.3f} (5.3 +-10%), "
           f"value at SI drive {stats.n1:.4f} (0.003 within x3)")


def test_criterion_5_blockade_endpoints(loss_sweep, fig2):
    g2_zero = lindblad_stats(fig2, 0.0).g2
    g2_max = max(row["lindblad_g2"] for row in loss_sweep.rows)
    g2_ep = lindblad_stats(fig2, 8.9).g2
    ok = within(g2_zero, 0.23, 0.20) and within(g2_max, 1.42, 0.20) and g2_ep < 0.5
    report(5, "blockade endpoints",
           ok,
           f"g2(0) = {g2_zero:.3f} (0.23 +-20%), max g2 = {g2_max:.3f} "
           f"(1.42 +-20%), g2(EP) = {g2_ep:.3f} (< 0.5)")


def test_criterion_6_two_photon_blockade_window(fig2):
    stats = lindblad_stats(fig2, 6.0)
    ok = (within(stats.g3, 0.27, 0.30) and within(stats.g2, 1.12, 0.20)
          and stats.g3 < 1.0 < stats.g2)
    report(6, "two-photon blockade window at gamma_tip = 6",
           ok,
           f"g3 = {stats.g3:.3f} (0.27 +-30%), g2 = {stats.g2:.3f} "
           f"(1.12 +-20%), g3 < 1 < g2")


def test_criterion_7_distribution_signature(fig2):
    cmp6 = poisson_comparison(lindblad_stats(fig2, 6.0).p_m)
    cmp_ep = poisson_comparison(lindblad_stats(fig2, 8.9).p_m)
    ok6 = cmp6.deviation[2] > 0 and cmp6.deviation[3] < 0
    ok_ep = cmp_ep.deviation[1] > 0 and cmp_ep.deviation[2] < 0
    report(7, "photon distribution vs Poisson",
           ok6 and ok_ep,
           f"gt=6: P2-P2_poisson = {cmp6.deviation[2]:+.2e}, "
           f"P3-P3_poisson = {cmp6.deviation[3]:+.2e}; "
           f"EP: P1 dev {cmp_ep.deviation[1]:+.2e}, P2 dev {cmp_ep.deviation[2]:+.2e}")


def test_criterion_8_oracle_equivalence(fig2):
    rng = np.random.default_rng(42)
    basis = build_basis(per_mode=(5, 5))
    worst = 0.0
    for _ in range(50):
        p = fig2.with_(
            J=rng.uniform(0.1, 10.0), chi=rng.uniform(0.1, 10.0),
            gamma_2=rng.uniform(0.1, 10.0), gamma_tip=rng.uniform(0.1, 10.0),
        )
        p = p.with_(delta=resolve_delta(p, "track_upper_branch"))
        num = steady_state(build_liouvillian(p, basis)).populations()
        ana = steady_amplitudes(p).populations()
        for state, pa in ana.items():
            if pa > 1e-14:
                worst = max(worst, abs(num[state] - pa) / pa)
    pop_ok = worst < 0.01

    worst_ana, worst_num = 0.0, 0.0
    for k in range(10):
        p = fig2.with_(
            chi=0.0, J=rng.uniform(0.1, 10.0),
            gamma_2=rng.uniform(0.1, 10.0), gamma_tip=rng.uniform(0.1, 10.0),
        )
        p = p.with_(delta=resolve_delta(p, "track_upper_branch"))
        obs = analytic_observables(steady_amplitudes(p))
        worst_ana = max(worst_ana, abs(obs.g2_approx - 1.0))
        stats = photon_statistics(steady_state(build_liouvillian(p, basis)))
        worst_num = max(worst_num, abs(stats.g2 - 1.0))
    chi0_ok = worst_ana < 1e-8 and worst_num < 1e-3

    report(8, "analytic oracle equivalence",
           pop_ok and chi0_ok,
           f"max |P_mn| deviation {worst:.2e} over 50 draws (< 1%); chi=0: "
           f"|g2-1| analytic {worst_ana:.1e} (< 1e-8), lindblad {worst_num:.1e} (< 1e-3)")


def test_criterion_9_spectral_closed_forms(fig2, two_photon_eigensystem_closed):
    rng = np.random.default_rng(1234)
    worst1, worst2 = 0.0, 0.0
    n_checked = 0
    for _ in range(100):
        p = fig2.with_(
            J=rng.uniform(0.1, 10.0), chi=rng.uniform(0.1, 10.0),
            gamma_2=rng.uniform(0.1, 10.0), gamma_tip=rng.uniform(0.1, 10.0),
            omega_c=rng.uniform(-2.0, 2.0),
        )
        closed1 = one_photon_eigensystem_closed(p)
        closed2 = two_photon_eigensystem_closed(p)
        if closed1.degenerate or closed2.degenerate or closed2.used_fallback:
            continue  # declared degeneracy neighborhood excluded
        n_checked += 1
        num1 = subspace_eigensystem_numeric(p, 1)
        num2 = subspace_eigensystem_numeric(p, 2)
        scale1 = np.max(np.abs(closed1.eigenvalues))
        scale2 = np.max(np.abs(closed2.eigenvalues))
        worst1 = max(worst1, np.max(np.abs(num1.eigenvalues - closed1.eigenvalues)) / scale1)
        worst2 = max(worst2, np.max(np.abs(num2.eigenvalues - closed2.eigenvalues)) / scale2)
    ok = worst1 < 1e-8 and worst2 < 1e-8 and n_checked >= 95
    report(9, "closed-form eigenvalues vs dense solver",
           ok,
           f"{n_checked}/100 sets outside degeneracy neighborhoods; "
           f"rel dev N=1 {worst1:.1e}, N=2 {worst2:.1e} (< 1e-8)")


def test_criterion_10_state_invariants(fig2):
    herm, tr_dev, min_eig = 0.0, 0.0, 0.0
    for gt in (0.0, 6.0, 8.9):
        pg = fig2.with_(gamma_tip=gt)
        pg = pg.with_(delta=resolve_delta(pg, "track_upper_branch"))
        rho = steady_state(build_liouvillian(pg, build_basis(per_mode=(5, 5))))
        herm = max(herm, float(np.max(np.abs(rho.data - rho.data.conj().T))))
        tr_dev = max(tr_dev, abs(np.trace(rho.data) - 1.0))
        min_eig = min(min_eig, float(np.linalg.eigvalsh(
            0.5 * (rho.data + rho.data.conj().T)).min()))
    inv_ok = herm < 1e-10 and tr_dev < 1e-10 and min_eig >= -1e-8

    pg = fig2.with_(delta=resolve_delta(fig2, "track_upper_branch"))
    vals = {}
    for c in (5, 7):
        stats = photon_statistics(
            steady_state(build_liouvillian(pg, build_basis(per_mode=(c, c)))))
        vals[c] = (stats.n1, stats.g2)
    conv = max(abs(vals[5][0] - vals[7][0]) / vals[7][0],
               abs(vals[5][1] - vals[7][1]) / vals[7][1])
    report(10, "steady-state invariants and cutoff convergence",
           inv_ok and conv < 1e-6,
           f"hermiticity {herm:.1e}, trace dev {tr_dev:.1e}, min eig {min_eig:.1e}; "
           f"cutoff 5->7 change {conv:.1e} (< 1e-6)")


def test_criterion_11_spectrum_morphology(fig2):
    deltas = np.linspace(-4.0, 4.0, 501)
    counts = {}
    for gt in (0.0, 8.9, 10.5, 12.0):
        counts[gt] = excitation_spectrum(fig2.with_(gamma_tip=gt), deltas).peak_count
    ok = counts[0.0] == 2 and all(counts[g] == 1 for g in (8.9, 10.5, 12.0))
    report(11, "spectrum morphology",
           ok,
           f"peaks: gt=0 -> {counts[0.0]} (expect 2); "
           f"gt=8.9,10.5,12 -> {counts[8.9]},{counts[10.5]},{counts[12.0]} (expect 1)")
