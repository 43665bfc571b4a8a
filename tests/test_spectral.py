import warnings

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from kerrdimer.model import SystemParams
from kerrdimer.spectral import (
    branch_sweep,
    hep_location,
    localization,
    match_branches,
    one_photon_eigensystem_closed,
    subspace_eigensystem_numeric,
)


def params(**kw):
    defaults = dict(chi=2.1711386723121917, J=2.0, gamma_1=0.5, gamma_ex=0.5,
                    gamma_2=0.1, gamma_tip=0.0, omega_drive_amp=0.01)
    defaults.update(kw)
    return SystemParams(**defaults)


def one_photon_matrix(p):
    return np.array([
        [p.omega_c - 0.5j * p.gamma1_prime, p.J],
        [p.J, p.omega_c - 0.5j * p.gamma2_prime],
    ])


def two_photon_matrix(p):
    sq2J = np.sqrt(2) * p.J
    return np.array([
        [2 * p.omega_c + 2 * p.chi - 1j * p.gamma1_prime, sq2J, 0],
        [sq2J, 2 * p.omega_c - 0.5j * (p.gamma1_prime + p.gamma2_prime), sq2J],
        [0, sq2J, 2 * p.omega_c - 1j * p.gamma2_prime],
    ])


def sorted_close(a, b, rel):
    # multiset comparison by minimal-distance pairing
    a, b = np.asarray(a), np.asarray(b)
    order = match_branches(a, b)
    scale = np.max(np.abs(b))
    assert np.max(np.abs(a - b[order])) < rel * scale, (a, b)


class TestOnePhotonClosed:
    def test_against_dense_eigensolver(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = params(omega_c=rng.uniform(-2, 2), J=rng.uniform(0.1, 5),
                       gamma_2=rng.uniform(0.1, 5), gamma_tip=rng.uniform(0, 10))
            eig = one_photon_eigensystem_closed(p)
            oracle = np.linalg.eigvals(one_photon_matrix(p))
            sorted_close(eig.eigenvalues, oracle, 1e-10)

    def test_preset_frequencies(self):
        # J = 2, gamma_tip = 0, gamma_2 = 0.1: beta = -0.225
        p = params(omega_c=0.7)
        eig = one_photon_eigensystem_closed(p)
        s = np.sqrt(4 - 0.225**2)
        assert sorted(eig.eigenvalues.real) == pytest.approx([0.7 - s, 0.7 + s], rel=1e-12)

    def test_ep_degeneracy_flag(self):
        p = params(gamma_tip=8.9)  # beta = J exactly
        eig = one_photon_eigensystem_closed(p)
        assert eig.degenerate
        assert eig.eigenvalues[0] == pytest.approx(eig.eigenvalues[1], abs=1e-12)
        assert eig.eigenvalues[0] == pytest.approx(p.omega_c - 2.5j, abs=1e-12)

    def test_decoupled_modes(self):
        p = params(J=0.0, gamma_tip=3.0, omega_c=1.0)
        eig = one_photon_eigensystem_closed(p)
        sorted_close(eig.eigenvalues,
                     [1.0 - 0.5j * p.gamma1_prime, 1.0 - 0.5j * p.gamma2_prime], 1e-12)
        # eigenvectors are the bare states
        pops = localization(eig)
        assert np.allclose(np.sort(pops, axis=1), [[0, 1], [0, 1]], atol=1e-12)

    def test_decoupled_equal_loss_gives_the_bare_states(self):
        # J = 0 and gamma_1' = gamma_2' (beta = 0): the reduced block is zero,
        # and the eigenvectors are the bare states, with no 0/0 on the way
        p = params(J=0.0, gamma_2=1.0, gamma_tip=0.0)
        with warnings.catch_warnings(), np.errstate(divide="raise", invalid="raise"):
            warnings.simplefilter("error")
            eig = one_photon_eigensystem_closed(p)
        assert np.array_equal(eig.eigenvectors, np.eye(2))
        assert eig.eigenvalues[0] == eig.eigenvalues[1] == p.omega_c - 0.5j

    def test_unit_norm_eigenvectors(self):
        eig = one_photon_eigensystem_closed(params(gamma_tip=4.4))
        assert np.allclose(np.linalg.norm(eig.eigenvectors, axis=0), 1.0)

    def test_eigenvector_equation(self):
        p = params(gamma_tip=3.3, omega_c=0.4)
        eig = one_photon_eigensystem_closed(p)
        h = one_photon_matrix(p)
        # closed-form basis order is ((0,1), (1,0)); the matrix above is
        # ((1,0), (0,1)), so swap rows
        swap = np.array([[0, 1], [1, 0]])
        v = swap @ eig.eigenvectors
        for k in range(2):
            res = h @ v[:, k] - eig.eigenvalues[k] * v[:, k]
            assert np.max(np.abs(res)) < 1e-12


class TestHepLocation:
    def test_paper_value(self):
        assert hep_location(2.0, 1.0, 0.1) == pytest.approx(8.9, abs=1e-12)

    def test_substitution(self):
        assert hep_location(1.0, 1.0, 1.0) == pytest.approx(4.0, abs=1e-12)

    def test_slope_in_j_is_four(self):
        for j in (0.5, 1.0, 3.0):
            d = hep_location(j + 1.0, 1.0, 0.1) - hep_location(j, 1.0, 0.1)
            assert d == pytest.approx(4.0, abs=1e-12)

    def test_unphysical_value_without_warning(self):
        # a negative HEP is reported by each caller, not warned about here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert hep_location(0.1, 0.1, 5.0) == pytest.approx(-4.5, abs=1e-12)

    def test_numeric_coalescence_matches(self, hep_locate_numeric):
        p = params()
        located = hep_locate_numeric(p, 8.0, 10.0)
        assert located == pytest.approx(8.9, abs=1e-3)


class TestTwoPhotonClosed:
    def test_symmetric_linear_case(self, two_photon_eigensystem_closed):
        # chi = 0, equal losses: eigenvalues 2wc - i*gamma + {0, +-2J}
        p = params(chi=0.0, gamma_2=0.5, gamma_tip=0.5, omega_c=0.3)
        eig = two_photon_eigensystem_closed(p)
        expected = [0.6 - 1j, 0.6 - 1j + 2 * p.J, 0.6 - 1j - 2 * p.J]
        sorted_close(eig.eigenvalues, expected, 1e-10)

    def test_trace_identity(self, two_photon_eigensystem_closed):
        rng = np.random.default_rng(11)
        for _ in range(30):
            p = params(omega_c=rng.uniform(-1, 1), chi=rng.uniform(0, 5),
                       J=rng.uniform(0.1, 4), gamma_tip=rng.uniform(0, 12))
            eig = two_photon_eigensystem_closed(p)
            trace = np.trace(two_photon_matrix(p))
            assert np.sum(eig.eigenvalues) == pytest.approx(trace, rel=1e-10)

    def test_against_dense_eigensolver(self, two_photon_eigensystem_closed):
        rng = np.random.default_rng(13)
        for _ in range(50):
            p = params(omega_c=rng.uniform(-1, 1), chi=rng.uniform(0.1, 5),
                       J=rng.uniform(0.1, 4), gamma_2=rng.uniform(0.1, 3),
                       gamma_tip=rng.uniform(0, 12))
            eig = two_photon_eigensystem_closed(p)
            oracle = np.linalg.eigvals(two_photon_matrix(p))
            sorted_close(eig.eigenvalues, oracle, 1e-9)

    def test_paper_preset_at_ep(self, two_photon_eigensystem_closed):
        p = params(gamma_tip=8.9)
        eig = two_photon_eigensystem_closed(p)
        oracle = np.linalg.eigvals(two_photon_matrix(p))
        sorted_close(eig.eigenvalues, oracle, 1e-9)

    def test_eigenvectors_satisfy_eigenproblem(self, two_photon_eigensystem_closed):
        p = params(gamma_tip=5.0)
        eig = two_photon_eigensystem_closed(p)
        h = two_photon_matrix(p)
        # closed-form state order is ((0,2), (1,1), (2,0)); reverse rows
        v = eig.eigenvectors[::-1, :]
        for k in range(3):
            res = h @ v[:, k] - eig.eigenvalues[k] * v[:, k]
            assert np.max(np.abs(res)) < 1e-9

    def test_fallback_at_linear_ep(self, two_photon_eigensystem_closed):
        # chi = 0 at the EP makes the cubic intermediate F vanish exactly;
        # the block then has an exact triple root at 2*omega_c - i*(g1'+g2')/2,
        # resolvable only to the defective eps^(1/3) scale
        p = params(chi=0.0, gamma_tip=8.9)
        eig = two_photon_eigensystem_closed(p)
        assert eig.used_fallback
        assert np.max(np.abs(eig.eigenvalues - (-5.0j))) < 1e-3


class TestSubspaceNumeric:
    def test_vacuum_subspace(self):
        eig = subspace_eigensystem_numeric(params(), 0)
        assert eig.eigenvalues[0] == 0.0
        assert eig.eigenvectors[0, 0] == 1.0

    def test_matches_one_photon_closed(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            p = params(J=rng.uniform(0.3, 4), gamma_tip=rng.uniform(0, 7))
            num = subspace_eigensystem_numeric(p, 1)
            closed = one_photon_eigensystem_closed(p)
            # labels are aligned by construction; compare pairwise
            assert np.max(np.abs(num.eigenvalues - closed.eigenvalues)) < \
                1e-10 * np.max(np.abs(closed.eigenvalues))

    def test_matches_two_photon_closed(self, two_photon_eigensystem_closed):
        rng = np.random.default_rng(19)
        for _ in range(25):
            p = params(chi=rng.uniform(0.5, 4), J=rng.uniform(0.3, 4),
                       gamma_tip=rng.uniform(0, 7))
            num = subspace_eigensystem_numeric(p, 2)
            closed = two_photon_eigensystem_closed(p)
            assert np.max(np.abs(num.eigenvalues - closed.eigenvalues)) < \
                1e-9 * np.max(np.abs(closed.eigenvalues))

    def test_passive_spectrum_decays(self):
        rng = np.random.default_rng(23)
        for n_exc in (1, 2, 3):
            for _ in range(10):
                p = params(chi=rng.uniform(0, 4), J=rng.uniform(0, 4),
                           gamma_tip=rng.uniform(0, 10))
                eig = subspace_eigensystem_numeric(p, n_exc)
                assert np.all(eig.eigenvalues.imag <= 1e-12)

    def test_branch_structure_swaps_across_ep(self):
        # below the EP the branches split in frequency and share a linewidth
        # (-2 Im lambda); above it, the reverse
        below = one_photon_eigensystem_closed(params(gamma_tip=4.0)).eigenvalues
        assert abs(below.real[0] - below.real[1]) > 1e-3
        assert -2 * below.imag[0] == pytest.approx(-2 * below.imag[1], abs=1e-12)
        above = one_photon_eigensystem_closed(params(gamma_tip=11.0)).eigenvalues
        assert above.real[0] == pytest.approx(above.real[1], abs=1e-12)
        assert abs(-2 * above.imag[0] + 2 * above.imag[1]) > 1e-3


class TestLocalization:
    def test_populations_normalized(self):
        for n_exc in (1, 2, 3):
            eig = subspace_eigensystem_numeric(params(gamma_tip=2.0), n_exc)
            pops = localization(eig)
            assert np.allclose(pops.sum(axis=1), 1.0, atol=1e-12)

    def test_symmetric_hybridization(self):
        # J much larger than the loss contrast: 50/50 one-photon weights
        p = params(J=50.0, gamma_tip=1.0)
        pops = localization(one_photon_eigensystem_closed(p))
        assert np.allclose(pops, 0.5, atol=1e-3)

    def test_localization_beyond_ep(self, two_photon_eigensystem_closed):
        p = params(gamma_tip=20.0)
        e1 = one_photon_eigensystem_closed(p)
        pops1 = localization(e1)
        plus = list(e1.labels).index("+")
        i10 = e1.basis_states.index((1, 0))
        assert pops1[plus, i10] > 0.9

        e2 = two_photon_eigensystem_closed(p)
        pops2 = localization(e2)
        dominant = {lab: e2.basis_states[int(np.argmax(pops2[k]))]
                    for k, lab in enumerate(e2.labels)}
        assert dominant == {"0": (2, 0), "+": (0, 2), "-": (1, 1)}
        assert np.all(pops2.max(axis=1) > 0.8)


class TestConditioning:
    def test_condition_grows_toward_ep(self):
        # 1/|det V| diverges as the eigenvectors coalesce
        def condition(g):
            v = one_photon_eigensystem_closed(params(gamma_tip=g)).eigenvectors
            return 1.0 / abs(np.linalg.det(v))

        left = [condition(g) for g in (7.0, 7.5, 8.0, 8.5, 8.8)]
        right = [condition(g) for g in (10.8, 10.3, 9.8, 9.3, 9.0)]
        assert all(np.diff(left) > 0)
        assert all(np.diff(right) > 0)
        assert left[-1] > 3 * left[0]


class TestContinuation:
    def test_match_branches_permutation(self):
        ref = np.array([1 + 1j, -2 + 0.5j, 0.1 - 3j])
        perm = np.array([2, 0, 1])
        got = match_branches(ref, ref[perm] + 1e-6)
        assert np.array_equal(ref[perm][got], ref + 0j) or \
            np.max(np.abs((ref[perm] + 1e-6)[got] - ref)) < 1e-5

    def test_branch_sweep_continuity(self):
        rows = branch_sweep(params(), np.linspace(0, 12, 49))
        assert len(rows) == 49 * 2
        by_branch = {}
        for r in rows:
            by_branch.setdefault(r["branch"], []).append(r["re_lambda"] + 1j * r["im_lambda"])
        for lam in by_branch.values():
            steps = np.abs(np.diff(np.array(lam)))
            assert np.max(steps) < 1.0  # no branch jumps on a 0.25-spaced grid

    def test_match_branches_agrees_with_assignment_solver(self):
        rng = np.random.default_rng(11)

        def check(ref, cand):
            cost = np.abs(ref[:, None] - cand[None, :])
            assert np.array_equal(match_branches(ref, cand), linear_sum_assignment(cost)[1])

        for n in (2, 3):
            for _ in range(500):
                check(rng.normal(size=n) + 1j * rng.normal(size=n),
                      rng.normal(size=n) + 1j * rng.normal(size=n))
        # exact ties in the total cost: real integer points, many coincident
        for _ in range(2000):
            check(*rng.integers(0, 4, size=(2, 2)).astype(complex))
        # cost [[a, b], [a, b]] with b < a: the first row takes its cheaper
        # candidate
        check(np.zeros(2, dtype=complex), np.array([3.0 + 0j, 1.0 + 0j]))
        # at the EP (gamma_tip = 8.9) the closed-form pair is exactly
        # degenerate, so both assignments of the numeric pair cost the same
        p = params(gamma_tip=8.9)
        ref = one_photon_eigensystem_closed(p).eigenvalues
        lam = np.linalg.eigvals(one_photon_matrix(p))
        cost = np.abs(ref[:, None] - lam[None, :])
        assert cost[0, 0] + cost[1, 1] == cost[0, 1] + cost[1, 0]
        check(ref, lam)
