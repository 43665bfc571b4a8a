import contextlib
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse
from scipy.integrate import solve_ivp

from kerrdimer import liouvillian, search, workers
from kerrdimer.analytic import steady_amplitudes
from kerrdimer.experiments import resolve_delta
from kerrdimer.hilbert import build_basis, mode_operator
from kerrdimer.liouvillian import (
    LEP_CUTOFF,
    LEP_GAP_THRESHOLD,
    LEP_OVERLAP_THRESHOLD,
    LEP_TOL,
    DegenerateSteadyStateError,
    DensityMatrix,
    LepNotFoundError,
    NumericalFailureError,
    ResourceLimitError,
    Superoperator,
    build_liouvillian,
    coherence_sector_pair,
    driven_basis,
    lep_locate,
    steady_state,
    unvec,
)
from kerrdimer.model import SystemParams, build_hamiltonian, preset, si_reference_rates
from kerrdimer.observables import _lindblad_columns, photon_statistics
from kerrdimer.search import golden_section_minimize
from kerrdimer.spectral import hep_location, match_branches, one_photon_eigensystem_closed


def params(**kw):
    defaults = dict(chi=2.1711386723121917, J=2.0, gamma_1=0.5, gamma_ex=0.5,
                    gamma_2=0.1, gamma_tip=0.0, omega_drive_amp=0.01, delta=-1.9873)
    defaults.update(kw)
    return SystemParams(**defaults)


def tracked(p, gamma_tip):
    pg = p.with_(gamma_tip=gamma_tip)
    return pg.with_(delta=resolve_delta(pg, "track_upper_branch"))


def vec(rho):
    """Column-stacked rho: rho[r, c] at index c*d + r, as the generators act on it."""
    return np.asarray(rho, dtype=complex).reshape(-1, order="F")


def dense(m):
    """A CSR matrix, the library's or scipy's, as a dense array through scipy."""
    return sparse.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape).toarray()


def product_read_pair(sop):
    """The coherence pair as the CSR product with a unit matrix reads it,
    with six norms: the oracle of ``coherence_sector_pair``'s direct read."""
    d = sop.basis.size
    basis = sop.basis
    i00 = basis.index_of(0, 0)
    k = [i00 * d + basis.index_of(1, 0), i00 * d + basis.index_of(0, 1)]
    unit = np.zeros((d * d, 2))
    unit[k, [0, 1]] = 1.0
    cols = sop.data @ unit  # exact: every other product is a zero
    (a, b), (c, dd) = cols[k]
    cols[k] = 0.0
    if np.any(cols != 0.0):
        raise NumericalFailureError("the coherence block is not invariant")
    mean = 0.5 * (a + dd)
    root = np.sqrt((0.5 * (a - dd)) ** 2 + b * c)
    vals = np.array([mean + root, mean - root])

    def eigvec(i):
        lam = vals[i]
        v = max((np.array([b, lam - a]), np.array([lam - dd, c])), key=np.linalg.norm)
        nrm = np.linalg.norm(v)
        if nrm == 0.0:
            return np.eye(2, dtype=complex)[i]
        return v / nrm

    overlap = abs(np.vdot(eigvec(0), eigvec(1)))
    return liouvillian.LiouvillianSpectrum(eigenvalues=vals, gap=float(abs(2 * root)),
                                           overlap=float(overlap))


def random_density_matrix(basis, seed=0):
    rng = np.random.default_rng(seed)
    d = basis.size
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = x @ x.conj().T
    return rho / np.trace(rho)


def assert_matches_dense_bordered_solve(sop, statistics=True):
    """Oracle: the same bordered system (row r1 of L replaced by the trace
    row), densified and solved by dense LU. The steady state must agree to
    1e-15 absolute; N1, g2, g3 and every population above 1e-14 to 1e-12
    relative."""
    basis = sop.basis
    d = basis.size
    i00 = basis.index_of(0, 0)
    r1 = i00 * d + i00
    m = dense(sop.data)
    m[r1, :] = 0.0
    m[r1, np.arange(d) * (d + 1)] = 1.0
    b = np.zeros(d * d, dtype=complex)
    b[r1] = 1.0
    oracle = DensityMatrix(basis=basis, data=unvec(np.linalg.solve(m, b), d))
    rho = steady_state(sop)
    assert np.max(np.abs(rho.data - oracle.data)) <= 1e-15

    def rel(x, y):
        return abs(x - y) / abs(y)

    if statistics:
        got, want = photon_statistics(rho), photon_statistics(oracle)
        for name in ("n1", "g2", "g3"):
            assert rel(getattr(got, name), getattr(want, name)) <= 1e-12, name
    got, want = rho.populations(), oracle.populations()
    for state, pw in want.items():
        if pw > 1e-14:
            assert rel(got[state], pw) <= 1e-12, state


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

    d = sop.basis.size
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
        rho = unvec(sol.y[:n, k] + 1j * sol.y[n:, k], d)
        if (np.max(np.abs(rho - rho.conj().T)) > snap_tol or abs(np.trace(rho) - 1.0) > snap_tol
                or np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() < -snap_tol):
            raise ValueError(f"snapshot at t = {t[k]} is not a state within {snap_tol:.1e}")
        out.append(DensityMatrix(basis=sop.basis, data=rho))
    return out


class TestBuildLiouvillian:
    def test_dimension(self):
        basis = build_basis(per_mode=(3, 3))
        sop = build_liouvillian(params(), basis)
        assert sop.data.shape == (256, 256)

    def test_trace_annihilation(self):
        basis = build_basis(per_mode=(3, 2))
        sop = build_liouvillian(params(gamma_tip=2.0), basis)
        scale = np.max(np.abs(sop.data.data))
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

    def test_cutoff_over_the_cap(self, monkeypatch):
        # a cutoff whose driven basis is over the cap is the caller's error;
        # one too large to enumerate fails without enumerating
        assert driven_basis((8, 8)).size == 60
        message = "more than 64 states, the superoperator cap"
        with pytest.raises(ValueError, match=message):
            driven_basis((9, 9))
        monkeypatch.setattr(liouvillian, "build_basis", None)
        for cutoff in ((64, 0), (10 ** 12, 10 ** 12)):
            with pytest.raises(ValueError, match=message):
                driven_basis(cutoff)

    def test_product_takes_the_data_first(self):
        # numpy's complex multiply rounds a * b and b * a differently, and
        # `*` swaps the operands of a temporary of 256 KiB or more (here
        # nnz >= 16384 complex): the product must not depend on that
        lmat = build_liouvillian(tracked(params(), 4.0), driven_basis((7, 7))).data
        assert lmat.nnz >= 16384
        rng = np.random.default_rng(3)
        x = rng.normal(size=lmat.shape[1]) + 1j * rng.normal(size=lmat.shape[1])
        gathered = x[lmat.indices]
        assert not np.array_equal(gathered * lmat.data, np.multiply(lmat.data, gathered))
        rows = np.flatnonzero(np.diff(lmat.indptr))
        want = np.zeros(lmat.shape[0], dtype=complex)
        want[rows] = np.add.reduceat(np.multiply(lmat.data, gathered), lmat.indptr[rows])
        assert np.array_equal(lmat @ x, want)


def one_expression_liouvillian(p, basis, driven):
    """The generator as one expression of scipy sparse Kronecker products,
    summed left to right."""
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
    return dense(m).tobytes()


class TestUndrivenAssemblyCache:
    """The generator's pattern and its unit-rate dissipator values are built
    once per basis and Hamiltonian variant and reused; every generator must
    stay what one expression gives."""

    BASIS = build_basis(per_mode=(2, 2))

    def test_equal_to_one_expression_entry_for_entry(self):
        liouvillian._generator.cache_clear()
        for j in (1.0, 1.5, 2.0, 3.0):
            for gt in np.linspace(0.0, 12.0, 25):
                for driven in (False, True):
                    p = params(J=j, gamma_tip=float(gt))
                    got = build_liouvillian(p, self.BASIS, driven=driven).data
                    ref = one_expression_liouvillian(p, self.BASIS, driven)
                    assert generator_bytes(got) == generator_bytes(ref), (j, gt, driven)
        # one cache entry per Hamiltonian variant, whatever the number of
        # parameter sets
        assert liouvillian._generator.cache_info().currsize == 2

    @pytest.mark.parametrize("basis", [driven_basis((5, 5)), driven_basis((7, 7)),
                                       build_basis(per_mode=(4, 4))],
                             ids=["capped-5", "capped-7", "per-mode-4"])
    def test_equal_to_one_expression_on_the_solve_bases(self, basis):
        # the bases of the datasets, of validate's reference and of its
        # per-mode checks, at the preset, with a drive phase, with zero rates
        # (their entries stay in the pattern as zeros) and at SI scale (every
        # rate times 6.1e5, as under --units si)
        p, _ = preset("paper_fig2")
        q = tracked(p, 4.0)
        rates = ("chi", "J", "gamma_1", "gamma_ex", "gamma_2", "gamma_tip",
                 "omega_drive_amp", "delta")
        cases = [q, tracked(p, 8.9).with_(drive_phase=1.1),
                 q.with_(J=0.0, chi=0.0, gamma_2=0.0, gamma_tip=0.0),
                 q.with_(**{name: 6.1e5 * getattr(q, name) for name in rates})]
        for case in cases:
            for driven in (True, False):
                got = build_liouvillian(case, basis, driven=driven).data
                ref = one_expression_liouvillian(case, basis, driven)
                assert generator_bytes(got) == generator_bytes(ref), (case, driven)

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

    @pytest.mark.parametrize("basis", [
        build_basis(per_mode=modes) for modes in ((0, 0), (1, 0), (1, 1), (2, 0), (2, 2), (3, 0),
                                                  (3, 2), (3, 3), (4, 1), (4, 4), (5, 2), (5, 5))
    ] + [driven_basis(cutoff) for cutoff in ((3, 3), (5, 5), (7, 7))]
      + [build_basis(per_mode=(5, 5), total=cap) for cap in (2, 3, 4, 5, 6)],
        ids=lambda basis: f"{basis.size}-states")
    @pytest.mark.parametrize("variant", ["rotating_driven", "isolated"])
    def test_pattern_is_the_unique_keys_of_its_terms(self, basis, variant):
        # every entry that kron(1, H), kron(H^T, 1), kron(a_j^*, a_j),
        # kron(1, n_j) and kron(n_j^T, 1) store with every rate 1, as row * n
        # + column keys through np.unique; the vacuum-only basis has none
        unit = SystemParams(chi=1.0, J=1.0, gamma_1=0.0, gamma_ex=0.0, gamma_2=0.0,
                            gamma_tip=0.0, omega_drive_amp=1.0, omega_c=1.0, delta=1.0)
        n = basis.size ** 2
        h = build_hamiltonian(unit, basis, variant).data
        eye = np.eye(basis.size)
        factors = [(eye, h), (h.T, eye)]
        for mode in (1, 2):
            a = mode_operator(basis, mode, "annihilate").data
            num = mode_operator(basis, mode, "number").data
            factors += [(a, a), (eye, num), (num.T, eye)]
        keys = []
        for left, right in factors:
            term = sparse.kron(sparse.coo_matrix(left != 0), sparse.coo_matrix(right != 0),
                               format="coo")
            keys.append(term.row.astype(np.int64) * n + term.col)
        gen = liouvillian._generator(basis, variant)
        rows = np.repeat(np.arange(n), np.diff(gen.indptr))
        assert len(gen.indptr) == n + 1
        assert np.array_equal(rows * n + gen.indices, np.unique(np.concatenate(keys)))

    @pytest.mark.parametrize("driven", [False, True])
    def test_generator_in_gamma2_is_build_liouvillian(self, driven):
        # the fixed part taken at one gamma_tip, plus gamma_2' D[a_2], is
        # build_liouvillian's data at any other, bit for bit
        rng = np.random.default_rng(11)
        variant = "rotating_driven" if driven else "isolated"
        for basis in (self.BASIS, driven_basis((5, 5))):
            p = params(omega_c=0.4, gamma_tip=3.0, drive_phase=0.7)
            gen, fixed = liouvillian._fixed_part(p, basis, variant)
            for gt in [0.0, *rng.uniform(0.0, 12.0, 8), 6.1e5]:
                want = build_liouvillian(p.with_(gamma_tip=gt), basis, driven=driven).data
                got = fixed + (p.gamma_2 + gt) * gen.diss[1]
                assert got.tobytes() == want.data.tobytes(), (basis.size, gt)
                assert gen.indices is want.indices and gen.indptr is want.indptr

    def test_lep_independent_of_earlier_scans(self):
        p = params()
        liouvillian._generator.cache_clear()
        cold = lep_locate(p, (7.9, 9.9), grid=21)
        liouvillian._generator.cache_clear()
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

    def test_degenerate_steady_state_reported(self):
        # mode 2 decoupled and lossless: any mode-2 Fock mixture is steady.
        # Reported by the error alone, with no LinAlgWarning.
        p = params(J=0.0, gamma_2=0.0, gamma_tip=0.0, omega_drive_amp=0.0)
        basis = build_basis(per_mode=(1, 1))
        sop = build_liouvillian(p, basis)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateSteadyStateError):
                steady_state(sop)

    def test_zero_pivot_of_a_stack_of_one_reported(self, capfd):
        # chi = J = gamma = 0: the top sector's block is exactly zero, so the
        # LAPACK call of the stack of one fails, and that point's failure is
        # the one raised, without output
        p = params(chi=0.0, J=0.0, gamma_1=0.0, gamma_ex=0.0, gamma_2=0.0, delta=0.0)
        sop = build_liouvillian(p, driven_basis((3, 3)))
        with pytest.raises(DegenerateSteadyStateError,
                           match="zero pivot in excitation-difference sector 5"):
            steady_state(sop)
        assert capfd.readouterr() == ("", "")

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
        # without iterative refinement, g3 and P_30 at gamma_tip = 1 are off
        # by about 1e-11 relative
        p, _ = preset("paper_fig2")
        basis = build_basis(per_mode=(5, 5))
        for gt in (0.0, 1.0, 4.0, 8.9, 12.0):
            assert_matches_dense_bordered_solve(build_liouvillian(tracked(p, gt), basis))

    def test_si_scale_rates_match_dense_bordered_solve(self):
        # every rate times gamma_1' in rad/s, as under --units si: the same
        # state, from a generator whose entries reach about 1e8 against the
        # ones of the trace row
        p, _ = preset("paper_fig2")
        q = tracked(p, 4.0)
        rates = ("chi", "J", "gamma_1", "gamma_ex", "gamma_2", "gamma_tip",
                 "omega_drive_amp", "delta")
        si = q.with_(**{name: 6.1e5 * getattr(q, name) for name in rates})
        assert_matches_dense_bordered_solve(build_liouvillian(si, driven_basis((5, 5))))

    @pytest.mark.parametrize("omega", [0.5, 1.0, 4.0])
    @pytest.mark.parametrize("basis", [build_basis(per_mode=(5, 5)), driven_basis((5, 5))],
                             ids=["per-mode", "capped"])
    def test_strong_drive_matches_dense_bordered_solve(self, basis, omega):
        # Omega in units of gamma_1' (1 in the preset), far past the weak-drive regime
        p, _ = preset("paper_fig2")
        sop = build_liouvillian(tracked(p, 4.0).with_(omega_drive_amp=omega), basis)
        assert_matches_dense_bordered_solve(sop)

    @pytest.mark.parametrize("basis", [build_basis(per_mode=(5, 5)), driven_basis((5, 5))],
                             ids=["per-mode", "capped"])
    def test_drive_phase_matches_dense_bordered_solve(self, basis):
        p, _ = preset("paper_fig2")
        sop = build_liouvillian(tracked(p, 4.0).with_(omega_drive_amp=1.0, drive_phase=1.1),
                                basis)
        assert_matches_dense_bordered_solve(sop)

    @pytest.mark.parametrize("basis", [build_basis(per_mode=(5, 5)), driven_basis((5, 5)),
                                       build_basis(per_mode=(0, 0))],
                             ids=["per-mode", "capped", "vacuum-only"])
    def test_sectors_without_coupling_match_dense_bordered_solve(self, basis):
        # undriven, the sectors decouple; the vacuum-only basis has no k != 0
        # sector at all. N1 = 0, so only the state is compared.
        p, _ = preset("paper_fig2")
        sop = build_liouvillian(tracked(p, 4.0).with_(omega_drive_amp=0.0), basis)
        assert_matches_dense_bordered_solve(sop, statistics=False)

    @pytest.mark.parametrize("omega", [0.01, 4.0])
    def test_state_is_exactly_hermitian(self, omega):
        p, _ = preset("paper_fig2")
        sop = build_liouvillian(tracked(p, 6.0).with_(omega_drive_amp=omega, drive_phase=1.1),
                                driven_basis((5, 5)))
        rho = steady_state(sop).data
        assert np.array_equal(rho, rho.conj().T)

    def test_coupling_across_two_sectors_is_numerical_failure(self):
        # |2,0><0,0| (sector k = 2) fed from |0,0><0,0| (k = 0): no generator
        # term does that, so no build_liouvillian pattern holds that entry,
        # and the solve plans only those. A scipy CSR copy of a generator
        # holds its pattern, and steady_state takes it as it takes its own.
        basis = driven_basis((3, 3))
        d = basis.size
        lmat = build_liouvillian(tracked(params(), 2.0), basis).data
        row = basis.index_of(0, 0) * d + basis.index_of(2, 0)
        col = basis.index_of(0, 0) * (d + 1)
        extra = sparse.csr_matrix(([1e-3], ([row], [col])), shape=lmat.shape)
        as_scipy = sparse.csr_matrix((lmat.data, lmat.indices, lmat.indptr), shape=lmat.shape)
        # the same state up to the order of the residual's sums
        assert np.max(np.abs(steady_state(Superoperator(basis=basis, data=as_scipy)).data
                             - steady_state(Superoperator(basis=basis, data=lmat)).data)) <= 1e-15
        bad = Superoperator(basis=basis, data=(as_scipy + extra).tocsr())
        with pytest.raises(NumericalFailureError, match="not a build_liouvillian generator's"):
            steady_state(bad)

    def test_one_factor_and_two_solves_per_point(self, monkeypatch):
        # the block elimination solves for e_r1 and e_r2 as it factors, and
        # that two-column solution serves the steady state and the guard, so
        # a stack of points costs one elimination and the refinement solve.
        # Each takes one LAPACK call per sector k >= 0 for the whole stack
        # (numpy factors anew per solve) and none for k < 0; the guard adds
        # one 2 x 2 solve per point. steady_state is the stack of one.
        calls = []
        solves = []
        solve = np.linalg.solve

        class CountingLU(liouvillian._SectorLU):
            def __init__(self, *args):
                calls.append("factor")
                super().__init__(*args)

            def solve(self, b):
                calls.append(b.shape)
                return super().solve(b)

        def counting_solve(a, b):
            solves.append(a.shape)
            return solve(a, b)

        monkeypatch.setattr(liouvillian, "_SectorLU", CountingLU)
        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        basis = driven_basis((3, 3))
        n = basis.size ** 2
        mats = [build_liouvillian(tracked(params(), gt), basis).data for gt in (2.0, 4.0, 6.0)]
        for stack, run in ((1, lambda: steady_state(Superoperator(basis=basis, data=mats[0]))),
                           (3, lambda: liouvillian._steady_states(basis, mats))):
            calls.clear()
            solves.clear()
            run()
            assert calls == ["factor", (stack, n)]
            # sectors k = 5 .. 0 of the 15-state basis (m + n <= 5); sector 0
            # holds 1 + 4 + 9 + 16 + 9 + 4 = 43 of the n indices, each k > 0
            # sector as many as its mirror
            assert len(solves) == 2 * 6 + stack
            assert all(len(shape) == 3 and shape[0] == stack for shape in solves[:12])
            assert solves[12:] == [(2, 2)] * stack
            assert sum(s[1] for s in solves[:6]) == sum(s[1] for s in solves[6:12]) == (n + 43) // 2

    def test_a_column_solves_alone(self):
        # solve's products go column by column: with a second column (the
        # truncation certificate's correction) the first is the same bits
        basis = driven_basis((3, 3))
        plan = liouvillian._solver_plan(basis, "rotating_driven")
        mats = [build_liouvillian(tracked(params(), gt), basis).data for gt in (2.0, 4.0)]
        lu = liouvillian._SectorLU(plan, np.stack([lmat.data for lmat in mats]))
        rng = np.random.default_rng(5)
        b = rng.normal(size=(2, basis.size ** 2, 2)) + 1j * rng.normal(size=(2, basis.size ** 2, 2))
        b = b + b.take(plan.tau, axis=1).conj()
        assert np.array_equal(lu.solve(b)[..., 0], lu.solve(b[..., 0]))

    @pytest.mark.parametrize("cutoff, bound_mib", [((7, 7), 12.0), ((5, 5), 2.5)],
                             ids=["reference-7", "ceiling-5"])
    def test_working_set(self, cutoff, bound_mib):
        # the elimination keeps its S_j and w_j blocks (7.8 MiB on validate's
        # 2401-unknown reference, 1.4 MiB on the 900-unknown ceiling) and
        # gathers each coupling M1[j, j - 1] only for its solve: a warm solve
        # peaked at 10.8 and 2.2 MiB of traced allocations, and at 15.8 and
        # 3.1 MiB while the couplings stayed in the block buffer
        sop = build_liouvillian(tracked(params(), 4.0), driven_basis(cutoff))
        steady_state(sop)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            steady_state(sop)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= bound_mib * 2 ** 20

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
        vals = np.linalg.eigvals(dense(sop.data))
        scale = np.max(np.abs(sop.data.data))
        assert np.min(np.abs(vals)) < 1e-8 * scale

    def test_conjugation_symmetry(self):
        basis = build_basis(per_mode=(2, 2))
        sop = build_liouvillian(tracked(params(), 2.0), basis)
        vals = np.linalg.eigvals(dense(sop.data))
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
        basis, d = sop.basis, sop.basis.size
        i00 = basis.index_of(0, 0)
        k = [i00 * d + basis.index_of(1, 0), i00 * d + basis.index_of(0, 1)]
        cols = dense(sop.data)[:, k]
        assert np.all(cols[k] != 0.0)
        cols[k] = 0.0
        assert np.count_nonzero(cols) == 0

    def test_pair_is_in_full_spectrum(self):
        # away from the EP, where a general eigensolver resolves the pair
        for gt in (0.0, 4.0, 10.0):
            sop = self.undriven(gt)
            pair = coherence_sector_pair(sop)
            full = np.linalg.eigvals(dense(sop.data))
            for lam in pair.eigenvalues:
                assert np.min(np.abs(full - lam)) < 1e-10

    def test_driven_generator_rejected(self):
        basis = build_basis(per_mode=(2, 2))
        sop = build_liouvillian(params(gamma_tip=4.0), basis, driven=True)
        with pytest.raises(NumericalFailureError):
            coherence_sector_pair(sop)

    def test_direct_read_matches_the_product_read(self):
        # bit for bit, signed zeros included: eigenvalues, gap and overlap
        p = params(omega_drive_amp=0.0)
        ep = lep_locate(p, (7.9, 9.9), grid=21).gamma_tip
        rng = np.random.default_rng(23)
        cases = [(p.with_(gamma_tip=float(gt)), False) for gt in rng.uniform(0.0, 20.0, 40)]
        cases += [(p.with_(gamma_tip=gt, J=0.0), False) for gt in (0.0, 3.0, 8.9)]
        cases += [(p.with_(gamma_tip=gt, chi=0.0), False) for gt in (0.0, 4.0, 8.9)]
        cases += [(p.with_(gamma_tip=ep), False), (p.with_(gamma_tip=8.9), False),
                  (p.with_(gamma_tip=8.9, omega_c=0.0), False),
                  (p.with_(gamma_tip=4.0), True)]  # driven at zero drive: still invariant
        # J = 0 and gamma_2' = gamma_1': the block is a multiple of the identity
        identity = p.with_(J=0.0, gamma_tip=p.gamma1_prime - p.gamma_2)
        assert identity.gamma2_prime == identity.gamma1_prime
        cases.append((identity, False))
        for basis in (build_basis(per_mode=(2, 2)), driven_basis((3, 3))):
            for case, driven in cases:
                sop = build_liouvillian(case, basis, driven=driven)
                got, want = coherence_sector_pair(sop), product_read_pair(sop)
                assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes(), case
                assert (np.array([got.gap, got.overlap]).tobytes()
                        == np.array([want.gap, want.overlap]).tobytes()), case
        pair = coherence_sector_pair(build_liouvillian(identity, basis, driven=False))
        assert pair.gap == 0.0 and pair.overlap == 0.0
        driven = build_liouvillian(params(gamma_tip=4.0), basis, driven=True)
        for read in (coherence_sector_pair, product_read_pair):
            with pytest.raises(NumericalFailureError):
                read(driven)

    def test_pattern_other_than_a_generator_is_numerical_failure(self):
        # the direct read plans build_liouvillian's patterns; a scipy copy of
        # one holds it, a matrix with one more stored entry does not
        sop = self.undriven(4.0)
        lmat = sop.data
        as_scipy = sparse.csr_matrix((lmat.data, lmat.indices, lmat.indptr), shape=lmat.shape)
        got = coherence_sector_pair(Superoperator(basis=sop.basis, data=as_scipy))
        assert got.eigenvalues.tobytes() == coherence_sector_pair(sop).eigenvalues.tobytes()
        # |2,0><0,0| fed from |0,0><0,0|, which no generator term does
        basis, d = sop.basis, sop.basis.size
        row, col = basis.index_of(0, 0) * d + basis.index_of(2, 0), basis.index_of(0, 0) * (d + 1)
        extra = sparse.csr_matrix(([1e-3], ([row], [col])), shape=lmat.shape)
        with pytest.raises(NumericalFailureError, match="not a build_liouvillian generator's"):
            coherence_sector_pair(Superoperator(basis=basis, data=(as_scipy + extra).tocsr()))


def rebuilt_lep_locate(p, gamma_tip_range, grid):
    """``lep_locate`` with the whole generator built anew at every
    evaluation, from ``p.with_(gamma_tip=gt)``, and each grid point's rows
    built as it is scanned: the oracle of the search that builds all but
    gamma_2' D[a_2] once and computes its rows only when they are read."""
    lo, hi = gamma_tip_range
    if not lo < hi:
        raise ValueError("gamma_tip_range must be increasing")
    if grid < 3:
        raise ValueError(f"grid must be an integer >= 3 to hold an interior gap "
                         f"minimum, got {grid}")
    basis = build_basis(per_mode=LEP_CUTOFF)

    def pair_at(gt):
        return coherence_sector_pair(build_liouvillian(p.with_(gamma_tip=gt), basis, driven=False))

    gts = np.linspace(lo, hi, grid)
    rows = []
    gaps = np.empty(grid)
    prev = None
    for i, gt in enumerate(gts):
        sp = pair_at(float(gt))
        gaps[i] = sp.gap
        pair = sp.eigenvalues
        if prev is not None:
            pair = pair[match_branches(prev, pair)]
        prev = pair
        for tag, lam in zip(("a", "b"), pair):
            rows.append({
                "gamma_tip": float(gt), "branch": tag,
                "re_Lambda": lam.real, "im_Lambda": lam.imag,
                "gap": sp.gap, "overlap": sp.overlap,
            })
    imin = int(np.argmin(gaps))
    if imin == 0 or imin == grid - 1:
        raise LepNotFoundError(f"no interior gap minimum in gamma_tip range [{lo}, {hi}]")
    res = golden_section_minimize(
        lambda gt: pair_at(gt).gap, float(gts[imin - 1]), float(gts[imin + 1]),
        tol=LEP_TOL * p.gamma1_prime)
    best = pair_at(res.x)
    if best.gap > LEP_GAP_THRESHOLD * p.gamma1_prime or best.overlap < LEP_OVERLAP_THRESHOLD:
        raise LepNotFoundError(
            f"gap minimum at gamma_tip = {res.x:.6f} fails the coalescence "
            f"criteria (gap {best.gap:.3e}, overlap {best.overlap:.6f})"
        )
    return SimpleNamespace(gamma_tip=res.x, gap=best.gap, overlap=best.overlap, grid_rows=rows)


def lep_outcome(locate, p, window, grid):
    """A search's result as bytes, signed zeros included, with the type of
    every number; or the class and message of its error."""
    def cell(value):
        return type(value), value if isinstance(value, str) else np.float64(value).tobytes()

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # linspace over an infinite window
            res = locate(p, window, grid)
    except (ValueError, LepNotFoundError) as exc:
        return type(exc), str(exc)
    rows = [sorted((key, *cell(value)) for key, value in row.items()) for row in res.grid_rows]
    return [cell(res.gamma_tip), cell(res.gap), cell(res.overlap)], rows


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
        with pytest.raises(LepNotFoundError):
            lep_locate(params(), (0.5, 3.0), grid=41)

    @staticmethod
    def random_case(rng):
        p = SystemParams(chi=rng.uniform(0.0, 5.0), J=rng.uniform(0.0, 3.0),
                         gamma_1=rng.uniform(0.0, 1.0), gamma_ex=rng.uniform(0.05, 1.0),
                         gamma_2=rng.uniform(0.0, 1.5), gamma_tip=rng.uniform(0.0, 5.0),
                         omega_drive_amp=rng.uniform(0.0, 0.1),
                         omega_c=rng.uniform(-2.0, 2.0), delta=rng.uniform(-3.0, 3.0))
        centre = hep_location(p.J, p.gamma1_prime, p.gamma_2) + rng.uniform(-0.5, 0.5)
        half = rng.uniform(0.3, 1.5)
        return p, (max(centre - half, 0.0), centre + half), int(rng.integers(3, 42))

    @pytest.mark.parametrize("seed", range(24))
    def test_random_search_bit_for_bit(self, seed):
        # every field and the window drawn, found or without an interior
        # minimum: the bits of a whole generator build per evaluation
        p, window, grid = self.random_case(np.random.default_rng(seed))
        assert lep_outcome(lep_locate, p, window, grid) == lep_outcome(
            rebuilt_lep_locate, p, window, grid)

    def test_edge_cases_bit_for_bit(self):
        p = params(omega_c=0.3, gamma_tip=2.0)
        rates = ("chi", "J", "gamma_1", "gamma_ex", "gamma_2", "gamma_tip",
                 "omega_drive_amp", "omega_c", "delta")
        coalescence = "gap minimum at gamma_tip = "
        cases = [
            (p, (7.9, 9.9), 41, None),  # the preset search
            (p.with_(J=0.0, chi=0.0, omega_c=0.0, gamma_2=0.0), (0.0, 2.0), 41, coalescence),
            # every rate times 6.1e5, as under --units si
            (p.with_(**{name: 6.1e5 * getattr(p, name) for name in rates}),
             (7.9 * 6.1e5, 9.9 * 6.1e5), 41, None),
            # J = 0 and gamma_2' = gamma_1' at a grid point: the block is a
            # multiple of the identity there, and the overlap 0
            (p.with_(J=0.0, gamma_2=0.25), (0.0, 1.5), 3, coalescence),
            (p.with_(J=0.0, gamma_2=0.25), (0.25, 1.25), 41, coalescence),
            (p, (0.5, 3.0), 41, "no interior gap minimum in gamma_tip range [0.5, 3.0]"),
            (p, (-1.0, 3.0), 41, "gamma_tip must be >= 0"),
            (p, (0.0, np.inf), 41, "gamma_tip must be finite, got nan"),
            (p, (-np.inf, 3.0), 5, "gamma_tip must be finite, got nan"),
            (p, (-1e308, 1e308), 5, "gamma_tip must be finite, got nan"),
            (p, (0.0, 1e308), 5, "gamma_tip must be at most 1e+30 in magnitude, got 2.5e+307"),
            (p, (3.0, 1.0), 41, "gamma_tip_range must be increasing"),
            (p, (0.0, 3.0), 2, "grid must be an integer >= 3"),
        ]
        for *case, expect in cases:
            got = lep_outcome(lep_locate, *case)
            assert got == lep_outcome(rebuilt_lep_locate, *case), case
            if expect is None:
                assert isinstance(got[0], list), got
            else:
                assert got[0] in (ValueError, LepNotFoundError) and got[1].startswith(expect), got

    def test_parameters_and_hamiltonian_once_per_search(self, monkeypatch):
        calls = {"build_hamiltonian": 0, "with_": 0, "evaluation": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(liouvillian, "build_hamiltonian",
                            counted("build_hamiltonian", build_hamiltonian))
        monkeypatch.setattr(SystemParams, "with_", counted("with_", SystemParams.with_))
        monkeypatch.setattr(liouvillian, "_coherence_block",
                            counted("evaluation", liouvillian._coherence_block))
        p = params()
        lep_locate(p, (7.9, 9.9), grid=5)  # fills the pattern caches
        counts = []
        for grid in (5, 41):
            calls.update(dict.fromkeys(calls, 0))
            assert lep_locate(p, (7.9, 9.9), grid=grid).gamma_tip == pytest.approx(8.9, abs=1e-3)
            counts.append(dict(calls))
        # the evaluations grow with the grid; the parameter copy and H do not
        assert counts[1]["evaluation"] > counts[0]["evaluation"] > 5
        for name in ("build_hamiltonian", "with_"):
            assert counts[0][name] == counts[1][name] == 1, counts

    @given(chi=st.floats(-5.0, 5.0), J=st.floats(0.5, 4.0), gamma_1=st.floats(0.0, 1.0),
           gamma_ex=st.floats(0.05, 1.0), gamma_2=st.floats(0.0, 1.5),
           omega_c=st.floats(-2.0, 2.0), own_tip=st.floats(0.0, 5.0),
           gamma_tip=st.floats(0.0, 50.0))
    @settings(deadline=None)
    def test_evaluator_is_the_pair_of_a_built_generator(self, chi, J, gamma_1, gamma_ex,
                                                        gamma_2, omega_c, own_tip, gamma_tip):
        # the search's evaluator, whatever gamma_tip its parameters carry, is
        # coherence_sector_pair of the whole generator at gamma_tip, bit for
        # bit; the golden-section objective is that pair's gap
        p = SystemParams(chi=chi, J=J, gamma_1=gamma_1, gamma_ex=gamma_ex, gamma_2=gamma_2,
                         gamma_tip=own_tip, omega_drive_amp=0.01, omega_c=omega_c)
        basis = build_basis(per_mode=LEP_CUTOFF)
        want = coherence_sector_pair(build_liouvillian(p.with_(gamma_tip=gamma_tip), basis,
                                                       driven=False))
        got = liouvillian._block_pair(*liouvillian._lep_evaluator(p, basis)(gamma_tip))
        assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
        assert (np.array([got.gap, got.overlap]).tobytes()
                == np.array([want.gap, want.overlap]).tobytes())
        # the refinement's objective, taken from a search whose grid centre
        # is the HEP, an interior minimum (J >= 0.5 keeps the HEP above 0)
        objectives = []

        def capture(f, a, b, tol):
            objectives.append(f)
            return golden_section_minimize(f, a, b, tol=tol)

        hep = hep_location(J, p.gamma1_prime, gamma_2)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search, "golden_section_minimize", capture)
            with contextlib.suppress(LepNotFoundError):
                lep_locate(p, (0.5 * hep, 1.5 * hep), grid=5)
        (gap_at,) = objectives
        gap = gap_at(gamma_tip)
        assert type(gap) is float
        assert np.float64(gap).tobytes() == np.float64(want.gap).tobytes()


class TestTruncationCertificate:
    @pytest.mark.parametrize("ratio, ceiling, cap", [
        (0.0, 7, 4),  # MIN_CAP: shell 3 holds reported columns at c - 1
        (1e-7, 7, 4),  # 1e-7 ** 2 = 1e-14
        (3e-5, 7, 5),  # about the preset drive: 2.7e-14 at cap 5, 9e-10 at cap 4
        (4e-3, 7, 7),  # about the SI drive: 2.6e-10 at cap 6
        (1e-7, 3, 3), (0.0, 2, 2),  # at most the ceiling
        (0.5, 9, 9), (1.0, 7, 7), (np.inf, 7, 7), (np.nan, 7, 7),
    ])
    def test_start_cap(self, ratio, ceiling, cap):
        assert liouvillian.start_cap(ratio, ceiling) == cap

    # (point, cap): fig2 points at caps 4 and 5, and points near a
    # multi-photon resonance (Omega = 0.24, Delta = -4.7), where the shell
    # ratio rises above the cap, at caps 4 to 6
    CASES = ([("fig2", 0.01, None, gt, cap) for gt in (0.0, 3.0, 6.0, 12.0) for cap in (4, 5)]
             + [("resonant", 0.24, -4.7, gt, cap) for gt in (0.0, 6.0) for cap in (4, 5, 6)])

    @staticmethod
    def chunk(points, cap):
        basis = driven_basis(liouvillian.DEFAULT_CUTOFF)
        return liouvillian._solve_chunk(points, basis, None if cap == 7 else cap,
                                        _lindblad_columns)

    @staticmethod
    def point(omega, delta, gamma_tip):
        fig2 = preset("paper_fig2")[0].with_(omega_drive_amp=omega)
        return (tracked(fig2, gamma_tip) if delta is None
                else fig2.with_(gamma_tip=gamma_tip, delta=delta))

    @staticmethod
    def plain(p, cap):
        """The columns of an in-process solve up to m + n <= cap."""
        return _lindblad_columns(steady_state(build_liouvillian(
            p, build_basis(per_mode=liouvillian.DEFAULT_CUTOFF, total=cap))))

    @staticmethod
    def distance(got, ref):
        """The largest relative deviation of ``got``'s columns from ``ref``'s."""
        return max((abs(ref[k] - v) / abs(ref[k]) for k, v in got.items() if ref[k] != v),
                   default=0.0)

    @pytest.mark.parametrize("name, omega, delta, gamma_tip, cap", CASES)
    def test_reported_state_is_as_accurate_as_its_cap(self, name, omega, delta, gamma_tip,
                                                      cap):
        # the state reported at cap c, solved at c - 1 and corrected once,
        # against a plain solve at cap c, each measured from the ceiling: at
        # most 5 times as far (4.3 near the resonance, cap 4, gamma_tip 6),
        # or 1e-14, the rounding noise; the cap-(c - 1) solve it starts
        # from is 77 to 1e6 times as far as the plain cap-c one
        p = self.point(omega, delta, gamma_tip)
        ((got, failure), _), = self.chunk([p], cap)
        ceiling = self.plain(p, 7)
        assert failure is None
        assert (self.distance(got, ceiling)
                <= 5 * self.distance(self.plain(p, cap), ceiling) + 1e-14)

    @pytest.mark.parametrize("name, omega, delta, gamma_tip, cap", CASES)
    def test_estimate_is_the_next_step(self, name, omega, delta, gamma_tip, cap):
        # a point reported at cap c is solved at c - 1 and corrected onto c;
        # its estimate against its distance from an in-process solve at cap
        # c + 1, two shells above the solve: within a factor of 2 wherever
        # that distance is above 1e-14, the rounding noise. The estimate is
        # one correction sweep, first order in both the corrected state's
        # own remainder and the next shell's step; near the resonance, where
        # at cap 4 (gamma_tip 0) the remainder is 65 % of the distance, it
        # falls short by up to 5.1 %, so it is held to 6 % below, and 1e-14
        p = self.point(omega, delta, gamma_tip)
        ((low, failure), estimate), = self.chunk([p], cap)
        assert failure is None
        step = self.distance(low, self.plain(p, cap + 1))
        assert estimate >= 0.94 * step - 1e-14
        if step > 1e-14:
            assert step / 2 <= estimate <= 2 * step

    @pytest.mark.parametrize("result, corrected", [
        (({"x": 1.0, "y": 0.0}, None), ({"x": 1.0, "y": 0.0}, None)),
        ((2.5, None), (2.5, None)),
    ])
    def test_unchanged_numbers_have_no_error(self, result, corrected):
        assert liouvillian._extension_error(result, corrected) == 0.0

    def test_largest_relative_change(self):
        result = ({"x": 1.0, "y": 4.0, "failed": 0}, None)
        corrected = ({"x": 1.0 + 1e-9, "y": 4.0 * (1 + 1e-6), "failed": 0}, None)
        assert liouvillian._extension_error(result, corrected) == pytest.approx(1e-6, rel=1e-5)

    @pytest.mark.parametrize("result, corrected", [
        ((None, ("ValueError", "N1 vanishes")), ({"x": 1.0}, None)),  # the solve at cap c
        (({"x": 1.0}, None), (None, ("ValueError", "N1 vanishes"))),  # the corrected state
        (({"x": 1.0}, None), (None, None)),  # no correction
        (({"x": 1.0}, None), ({"x": np.nan}, None)),  # a number that is not finite
        (({"x": 1.0}, None), ({"x": 0.0}, None)),  # one that vanishes at cap c + 1
    ])
    def test_failure_is_uncertified(self, result, corrected):
        assert liouvillian._extension_error(result, corrected) == np.inf

    def test_failed_solve_is_uncertified(self):
        # chi = J = gamma = 0: a zero pivot at cap c
        bad = params(chi=0.0, J=0.0, gamma_1=0.0, gamma_ex=0.0, gamma_2=0.0, delta=0.0)
        ((_, failure), estimate), = self.chunk([bad], 4)
        assert failure[0] == "DegenerateSteadyStateError" and estimate == np.inf

    @pytest.mark.parametrize("fault, reason", [
        ("singular", ("DegenerateSteadyStateError", "no correction onto excitation cap 4: "
                      "the stack's solve or its block D is singular")),
        ("nan", ("ValueError", "not finite")),
    ])
    def test_failed_correction_is_uncertified(self, monkeypatch, fault, reason):
        # D singular, or a correction that is not finite: every point of the
        # stack fails with the reason, uncertified, where a plain solve passes
        points = [tracked(params(), gt) for gt in (0.0, 3.0, 6.0)]
        plain = self.chunk(points, 4)

        class FaultyD(liouvillian._SectorLU):
            def __init__(self, plan, data):
                if plan.r1 < 0 and fault == "singular":
                    raise DegenerateSteadyStateError("zero pivot")
                super().__init__(plan, data)

            def solve(self, b):
                x = super().solve(b)
                return x * np.nan if self.plan.r1 < 0 else x

        monkeypatch.setattr(liouvillian, "_SectorLU", FaultyD)
        faulty = self.chunk(points, 4)
        assert all(failure is None and np.isfinite(err) for (_, failure), err in plain)
        assert faulty == [((None, reason), np.inf)] * len(points)

    def test_invalid_correction_fails_and_escalates(self, monkeypatch):
        # a correction that breaks the trace: the corrected state fails
        # DensityMatrix.validate, so its point fails with the reason and the
        # run goes up a shell at a time to the ceiling, solved there directly
        steady_states = liouvillian._steady_states

        def off_trace(basis, mats, border=None):
            if border is None:
                return steady_states(basis, mats)
            states, dx, lu = steady_states(basis, mats, border)
            dx = dx.copy()
            dx[:, basis.index_of(0, 0) * (basis.size + 1)] += 1e-6
            return states, dx, lu

        monkeypatch.setattr(liouvillian, "_steady_states", off_trace)
        points = [tracked(params(), gt) for gt in (0.0, 3.0, 6.0)]
        assert self.chunk(points, 4) == [
            ((None, ("ValueError", "trace deviates from 1 by 1.000e-06")), np.inf)] * 3
        caps = []

        class InProcess:
            def __init__(self, count):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, chunks, basis, cap, reduce):
                caps.append(cap)
                return [liouvillian._solve_chunk(chunk, basis, cap, reduce) for chunk in chunks]

        monkeypatch.setattr(workers, "WorkerPool", InProcess)
        solved = liouvillian.solve_points(points, driven_basis(liouvillian.DEFAULT_CUTOFF),
                                          _lindblad_columns, 4)
        assert (caps, solved.cap) == ([4, 5, 6, None], 7)
        assert solved.results == [result for result, _ in self.chunk(points, 7)]

    def test_each_point_factored_once(self, monkeypatch):
        # a stack reported at cap c: one elimination of the cap-(c - 1)
        # generators and one of each of their blocks D on shells c and c + 1.
        # The correction solves D and rides on the refinement solve as its
        # second column; the check solves the block on shell c + 1, D once
        # more and the cap-(c - 1) system once more, without a factorization
        # of the cap-c generator
        calls = []

        class CountingLU(liouvillian._SectorLU):
            def __init__(self, plan, data):
                calls.append(("factor", plan.r1 >= 0, len(data)))
                super().__init__(plan, data)

            def solve(self, b):
                calls.append(("solve", self.plan.r1 >= 0, b.shape[0], b.shape[2:]))
                return super().solve(b)

        monkeypatch.setattr(liouvillian, "_SectorLU", CountingLU)
        self.chunk([tracked(params(), gt) for gt in (0.0, 3.0, 6.0)], 4)
        assert calls == [("factor", True, 3), ("factor", False, 3), ("solve", False, 3, ()),
                         ("solve", True, 3, (2,)), ("factor", False, 3), ("solve", False, 3, ()),
                         ("solve", False, 3, ()), ("solve", True, 3, ())]
