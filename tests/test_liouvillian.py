import numpy as np
import pytest
from scipy import sparse
from scipy.integrate import solve_ivp
from scipy.sparse.linalg import splu

from kerrdimer import liouvillian
from kerrdimer.analytic import steady_amplitudes
from kerrdimer.experiments import resolve_delta
from kerrdimer.hilbert import build_basis, mode_operator
from kerrdimer.liouvillian import (
    DegenerateSteadyStateError,
    DensityMatrix,
    NumericalFailureError,
    ResourceLimitError,
    build_liouvillian,
    coherence_sector_pair,
    lep_locate,
    steady_state,
    unvec,
    vec,
)
from kerrdimer.model import SystemParams, build_hamiltonian, preset, si_reference_rates
from kerrdimer.observables import photon_statistics
from kerrdimer.spectral import hep_location, one_photon_eigensystem_closed


def params(**kw):
    defaults = dict(chi=2.1711386723121917, J=2.0, gamma_1=0.5, gamma_ex=0.5,
                    gamma_2=0.1, gamma_tip=0.0, omega_drive_amp=0.01, delta=-1.9873)
    defaults.update(kw)
    return SystemParams(**defaults)


def tracked(p, gamma_tip):
    pg = p.with_(gamma_tip=gamma_tip)
    return pg.with_(delta=resolve_delta(pg, "track_upper_branch"))


def random_density_matrix(basis, seed=0):
    rng = np.random.default_rng(seed)
    d = basis.size
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = x @ x.conj().T
    return rho / np.trace(rho)


def time_evolve(sop, rho0, t_grid, rtol=1e-8, atol=1e-12):
    """Oracle: integrate d rho/dt = L rho through the ascending time grid.

    Adaptive high-order Runge-Kutta stepping on the real/imaginary split of
    the vectorized state; snapshots are validated within the integration
    tolerance.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or len(t) < 1 or np.any(np.diff(t) <= 0) or t[0] < 0:
        raise ValueError("t_grid must be ascending with t0 >= 0")
    if rho0.basis != sop.basis:
        raise ValueError("state and generator act on different bases")

    d = sop.dim
    n = d * d
    lmat = sop.data

    def rhs(_t, y):
        z = lmat @ (y[:n] + 1j * y[n:])
        return np.concatenate((z.real, z.imag))

    z0 = vec(rho0.data)
    y0 = np.concatenate((z0.real, z0.imag))
    sol = solve_ivp(rhs, (t[0], t[-1]), y0, t_eval=t, method="DOP853",
                    rtol=rtol, atol=atol)
    if not sol.success:
        raise NumericalFailureError(f"time integration failed: {sol.message}")

    snap_tol = max(1e-8, 100 * rtol)
    out = []
    for k in range(len(t)):
        z = sol.y[:n, k] + 1j * sol.y[n:, k]
        rho = DensityMatrix(basis=sop.basis, data=unvec(z, d))
        out.append(rho.validate(hermiticity_tol=snap_tol, trace_tol=snap_tol,
                                psd_floor=-snap_tol))
    return out


class TestBuildLiouvillian:
    def test_dimension(self):
        basis = build_basis(per_mode=(3, 3))
        sop = build_liouvillian(params(), basis)
        assert sop.data.shape == (256, 256)

    def test_trace_annihilation(self):
        basis = build_basis(per_mode=(3, 2))
        sop = build_liouvillian(params(gamma_tip=2.0), basis)
        scale = np.max(np.abs(sop.data))
        for seed in range(3):
            rho = random_density_matrix(basis, seed)
            out = unvec(sop.data @ vec(rho), basis.size)
            assert abs(np.trace(out)) < 1e-10 * scale
        mixed = np.eye(basis.size) / basis.size
        assert abs(np.trace(unvec(sop.data @ vec(mixed), basis.size))) < 1e-12 * scale

    def test_vacuum_fixed_point_without_drive(self):
        basis = build_basis(per_mode=(3, 3))
        sop = build_liouvillian(params(omega_drive_amp=0.0), basis)
        vac = np.zeros((basis.size, basis.size), dtype=complex)
        vac[basis.index_of(0, 0), basis.index_of(0, 0)] = 1.0
        assert np.max(np.abs(unvec(sop.data @ vec(vac), basis.size))) < 1e-12

    def test_vectorization_convention_roundtrip(self):
        # column-stacking: L @ vec(rho) == vec(-i[H, rho] + dissipators)
        basis = build_basis(per_mode=(2, 2))
        p = params(gamma_tip=1.3, drive_phase=0.3)
        from kerrdimer.model import build_hamiltonian

        for driven, variant in ((True, "rotating_driven"), (False, "isolated")):
            sop = build_liouvillian(p, basis, driven=driven)
            h = build_hamiltonian(p, basis, variant).data
            rho = random_density_matrix(basis, 7)
            direct = -1j * (h @ rho - rho @ h)
            for rate, mode in ((p.gamma1_prime, 1), (p.gamma2_prime, 2)):
                a = mode_operator(basis, mode, "annihilate").data
                n = a.conj().T @ a
                direct += rate * (a @ rho @ a.conj().T - 0.5 * (n @ rho + rho @ n))
            via_sop = unvec(sop.data @ vec(rho), basis.size)
            assert np.max(np.abs(via_sop - direct)) < 1e-12 * np.max(np.abs(direct))

    def test_resource_cap(self):
        with pytest.raises(ResourceLimitError):
            build_liouvillian(params(), build_basis(per_mode=(8, 8)))


def one_expression_liouvillian(p, basis, driven):
    """The generator as one sparse expression, summed left to right."""
    h = sparse.csr_matrix(
        build_hamiltonian(p, basis, "rotating_driven" if driven else "isolated").data)
    eye = sparse.identity(basis.size, dtype=complex, format="csr")
    diss = []
    for mode in (1, 2):
        a = sparse.csr_matrix(mode_operator(basis, mode, "annihilate").data)
        n = sparse.csr_matrix(mode_operator(basis, mode, "number").data)
        diss.append(sparse.kron(a.conj(), a) - 0.5 * sparse.kron(eye, n)
                    - 0.5 * sparse.kron(n.T, eye))
    return (-1j * (sparse.kron(eye, h) - sparse.kron(h.T, eye))
            + p.gamma1_prime * diss[0] + p.gamma2_prime * diss[1]).tocsr()


def generator_bytes(m):
    return m.toarray().tobytes()


class TestUndrivenAssemblyCache:
    """The gamma_tip-free part of the undriven generator is assembled once
    and reused; every generator must stay what one expression gives."""

    BASIS = build_basis(per_mode=(2, 2))

    def test_equal_to_one_expression_entry_for_entry(self):
        liouvillian._undriven_part.cache_clear()
        for j in (1.0, 1.5, 2.0, 3.0):
            for gt in np.linspace(0.0, 12.0, 25):
                for driven in (False, True):
                    p = params(J=j, gamma_tip=float(gt))
                    got = build_liouvillian(p, self.BASIS, driven=driven).data
                    ref = one_expression_liouvillian(p, self.BASIS, driven)
                    assert generator_bytes(got) == generator_bytes(ref), (j, gt, driven)
        # one cache entry per J, whatever the number of gamma_tip values
        assert liouvillian._undriven_part.cache_info().currsize == 4

    @pytest.mark.parametrize("name", ["J", "chi", "omega_c", "gamma_1", "gamma_ex",
                                      "gamma_2"])
    def test_every_other_field_reaches_the_generator(self, name):
        base = params(gamma_tip=3.0)
        other = base.with_(**{name: getattr(base, name) + 0.25})
        first = build_liouvillian(base, self.BASIS, driven=False).data
        second = build_liouvillian(other, self.BASIS, driven=False).data
        assert generator_bytes(first) != generator_bytes(second)
        assert generator_bytes(second) == generator_bytes(
            one_expression_liouvillian(other, self.BASIS, False))

    def test_lep_independent_of_earlier_scans(self):
        p = params()
        liouvillian._undriven_part.cache_clear()
        cold = lep_locate(p, (7.9, 9.9), grid=21)
        liouvillian._undriven_part.cache_clear()
        for j in (1.0, 3.0):
            hep = hep_location(j, p.gamma1_prime, p.gamma_2)
            lep_locate(p.with_(J=j), (hep - 1.0, hep + 1.0), grid=21)
        warm = lep_locate(p, (7.9, 9.9), grid=21)
        assert warm == cold
        assert warm.grid_rows == cold.grid_rows


class TestSteadyState:
    def test_vacuum_without_drive(self):
        basis = build_basis(per_mode=(3, 3))
        rho = steady_state(build_liouvillian(params(omega_drive_amp=0.0), basis))
        expected = np.zeros((basis.size, basis.size))
        expected[basis.index_of(0, 0), basis.index_of(0, 0)] = 1.0
        assert np.max(np.abs(rho.data - expected)) < 1e-12

    def test_linear_cavity_response(self):
        # chi = 0, J = 0, weak drive: N1 = Omega^2 / (Delta^2 + gamma_1'^2/4)
        p = params(chi=0.0, J=0.0, delta=0.37, omega_drive_amp=0.004)
        basis = build_basis(per_mode=(4, 1))
        rho = steady_state(build_liouvillian(p, basis))
        n1 = photon_statistics(rho).n1
        expected = p.omega_drive_amp**2 / (p.delta**2 + p.gamma1_prime**2 / 4)
        assert n1 == pytest.approx(expected, rel=1e-3)

    def test_paper_intensity_minimum_at_si_drive(self):
        # N1 dips to about 0.003 near gamma_tip = 5.3 at the 4 fW drive
        om_si = si_reference_rates()["omega_drive_over_gamma1p"]
        p = tracked(params(omega_drive_amp=om_si), 5.3)
        rho = steady_state(build_liouvillian(p, build_basis(per_mode=(5, 5))))
        n1 = photon_statistics(rho).n1
        assert 0.001 < n1 < 0.009

    def test_invariants_and_residual(self):
        basis = build_basis(per_mode=(4, 4))
        rho = steady_state(build_liouvillian(tracked(params(), 3.0), basis))
        rho.validate()  # hermiticity 1e-10, trace 1e-10, psd -1e-8
        assert rho.residual < 1e-10

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_degenerate_steady_state_reported(self):
        # mode 2 decoupled and lossless: any mode-2 Fock mixture is steady
        p = params(J=0.0, gamma_2=0.0, gamma_tip=0.0, omega_drive_amp=0.0)
        basis = build_basis(per_mode=(1, 1))
        sop = build_liouvillian(p, basis)
        with pytest.raises(DegenerateSteadyStateError):
            steady_state(sop)

    def test_populations_match_analytic(self):
        # weak-drive oracle equivalence at preset strength
        basis = build_basis(per_mode=(5, 5))
        for gt in (0.0, 4.0, 8.9):
            p = tracked(params(), gt)
            rho = steady_state(build_liouvillian(p, basis))
            num = rho.populations()
            ana = steady_amplitudes(p).populations()
            for state, pa in ana.items():
                if pa > 1e-14:
                    assert num[state] == pytest.approx(pa, rel=0.01)

    def test_matches_dense_bordered_solve(self):
        # oracle: the same bordered system (row r1 of L replaced by the
        # trace row), densified and solved by dense LU
        p, _ = preset("paper_fig2")
        basis = build_basis(per_mode=(5, 5))
        d = basis.size
        i00 = basis.index_of(0, 0)
        r1 = i00 * d + i00
        b = np.zeros(d * d, dtype=complex)
        b[r1] = 1.0

        def rel(x, y):
            return abs(x - y) / abs(y)

        # without iterative refinement, g3 and P_30 at gamma_tip = 1 are off
        # by about 1e-11 relative
        for gt in (0.0, 1.0, 4.0, 8.9, 12.0):
            sop = build_liouvillian(tracked(p, gt), basis)
            m = sop.data.toarray()
            m[r1, :] = 0.0
            m[r1, np.arange(d) * (d + 1)] = 1.0
            oracle = DensityMatrix(basis=basis, data=unvec(np.linalg.solve(m, b), d))
            rho = steady_state(sop)
            assert np.max(np.abs(rho.data - oracle.data)) <= 1e-15
            got, want = photon_statistics(rho), photon_statistics(oracle)
            for name in ("n1", "g2", "g3"):
                assert rel(getattr(got, name), getattr(want, name)) <= 1e-12, name
            for state, pw in want.p_mn.items():
                if pw > 1e-14:
                    assert rel(got.p_mn[state], pw) <= 1e-12, state

    def test_one_factor_and_two_solves_per_point(self, monkeypatch):
        # the two-column solve for e_r1 and e_r2 serves the steady state and
        # the guard, so a point costs one factorization, that solve and the
        # refinement solve
        calls = []

        class CountingLU:
            def __init__(self, m):
                calls.append("splu")
                self.lu = splu(m)

            def solve(self, b):
                calls.append(b.shape)
                return self.lu.solve(b)

        monkeypatch.setattr(liouvillian, "splu", CountingLU)
        basis = build_basis(per_mode=(3, 3))
        steady_state(build_liouvillian(tracked(params(), 2.0), basis))
        n = basis.size ** 2
        assert calls == ["splu", (n, 2), (n,)]

    def test_drive_phase_invariance(self):
        basis = build_basis(per_mode=(4, 4))
        p = tracked(params(), 2.0)
        s0 = photon_statistics(steady_state(build_liouvillian(p, basis)))
        s1 = photon_statistics(steady_state(
            build_liouvillian(p.with_(drive_phase=1.1), basis)))
        assert s1.n1 == pytest.approx(s0.n1, rel=1e-10)
        assert s1.g2 == pytest.approx(s0.g2, rel=1e-10)
        assert s1.g3 == pytest.approx(s0.g3, rel=1e-10)


class TestTimeEvolve:
    def test_pure_exponential_decay(self):
        p = params(chi=0.0, J=0.0, omega_drive_amp=0.0, delta=0.0)
        basis = build_basis(per_mode=(1, 0))
        sop = build_liouvillian(p, basis)
        rho0 = np.zeros((2, 2), dtype=complex)
        rho0[basis.index_of(1, 0), basis.index_of(1, 0)] = 1.0
        t = np.linspace(0.0, 3.0, 7)
        traj = time_evolve(sop, DensityMatrix(basis=basis, data=rho0), t)
        for tk, rho in zip(t, traj):
            n1 = photon_statistics(rho).n1 if tk < 2.9 else rho.data[1, 1].real
            assert rho.data[basis.index_of(1, 0), basis.index_of(1, 0)].real == \
                pytest.approx(np.exp(-p.gamma1_prime * tk), abs=1e-6)
            assert np.trace(rho.data).real == pytest.approx(1.0, abs=1e-8)

    def test_relaxes_to_steady_state(self):
        basis = build_basis(per_mode=(3, 3))
        p = tracked(params(), 1.0)
        sop = build_liouvillian(p, basis)
        target = steady_state(sop)
        vac = np.zeros((basis.size, basis.size), dtype=complex)
        vac[basis.index_of(0, 0), basis.index_of(0, 0)] = 1.0
        traj = time_evolve(sop, DensityMatrix(basis=basis, data=vac), [0.0, 15.0, 30.0])
        dist = np.linalg.norm(traj[-1].data - target.data)
        assert dist < 1e-6

    def test_rejects_bad_grid(self):
        basis = build_basis(per_mode=(1, 1))
        sop = build_liouvillian(params(), basis)
        rho = DensityMatrix(basis=basis, data=np.eye(4, dtype=complex) / 4)
        with pytest.raises(ValueError):
            time_evolve(sop, rho, [1.0, 0.5])


class TestSpectrum:
    def test_contains_steady_eigenvalue(self):
        basis = build_basis(per_mode=(2, 2))
        sop = build_liouvillian(tracked(params(), 1.0), basis)
        vals = np.linalg.eigvals(sop.data.toarray())
        scale = np.max(np.abs(sop.data))
        assert np.min(np.abs(vals)) < 1e-8 * scale

    def test_conjugation_symmetry(self):
        basis = build_basis(per_mode=(2, 2))
        sop = build_liouvillian(tracked(params(), 2.0), basis)
        vals = np.linalg.eigvals(sop.data.toarray())
        for lam in vals:
            if abs(lam.imag) > 1e-10:
                assert np.min(np.abs(vals - lam.conjugate())) < 1e-8

    def test_coherence_sector_matches_closed_form(self):
        # undriven generator: sector eigenvalues are -i * lambda_1(+/-)
        for gt in (0.0, 4.0, 8.9, 10.0):
            p = params(gamma_tip=gt, omega_drive_amp=0.0, chi=0.0)
            basis = build_basis(per_mode=(2, 2))
            sop = build_liouvillian(p, basis, driven=False)
            pair = coherence_sector_pair(sop)
            closed = one_photon_eigensystem_closed(p)
            expected = -1j * closed.eigenvalues
            from kerrdimer.spectral import match_branches

            order = match_branches(expected, pair.eigenvalues)
            assert np.max(np.abs(pair.eigenvalues[order] - expected)) < 1e-10


class TestCoherenceBlock:
    @staticmethod
    def undriven(gt):
        p = params(gamma_tip=gt, omega_drive_amp=0.0)
        basis = build_basis(per_mode=(2, 2))
        return build_liouvillian(p, basis, driven=False)

    def test_block_columns_have_no_off_block_entries(self):
        sop = self.undriven(4.0)
        basis, d = sop.basis, sop.dim
        i00 = basis.index_of(0, 0)
        k = [i00 * d + basis.index_of(1, 0), i00 * d + basis.index_of(0, 1)]
        cols = sop.data[:, k].toarray()
        assert np.all(cols[k] != 0.0)
        cols[k] = 0.0
        assert np.count_nonzero(cols) == 0

    def test_pair_is_in_full_spectrum(self):
        # away from the EP, where a general eigensolver resolves the pair
        for gt in (0.0, 4.0, 10.0):
            sop = self.undriven(gt)
            pair = coherence_sector_pair(sop)
            full = np.linalg.eigvals(sop.data.toarray())
            for lam in pair.eigenvalues:
                assert np.min(np.abs(full - lam)) < 1e-10

    def test_driven_generator_rejected(self):
        basis = build_basis(per_mode=(2, 2))
        sop = build_liouvillian(params(gamma_tip=4.0), basis, driven=True)
        with pytest.raises(NumericalFailureError):
            coherence_sector_pair(sop)


class TestLepLocate:
    def test_preset_lep_matches_hep(self):
        p = params()
        res = lep_locate(p, (7.9, 9.9), grid=41)
        assert res.gamma_tip == pytest.approx(8.9, abs=1e-3)
        assert res.gap < 1e-3
        assert res.overlap > 0.999

    def test_lep_tracks_eq3_over_j(self):
        for j in (1.0, 2.5):
            p = params(J=j)
            hep = hep_location(j, p.gamma1_prime, p.gamma_2)
            res = lep_locate(p, (hep - 1.0, hep + 1.0), grid=41)
            assert abs(res.gamma_tip - hep) / hep < 0.02

    def test_not_found_outside_range(self):
        from kerrdimer.liouvillian import LepNotFoundError

        with pytest.raises(LepNotFoundError):
            lep_locate(params(), (0.5, 3.0), grid=41)
