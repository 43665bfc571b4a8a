import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kerrdimer.analytic import SingularParameterError, analytic_observables, steady_amplitudes
from kerrdimer.hilbert import build_basis
from kerrdimer.liouvillian import DensityMatrix, build_liouvillian, steady_state
from kerrdimer.model import SystemParams, preset
from kerrdimer.observables import (
    PEAK_MIN_SEPARATION,
    PEAK_SADDLE_RATIO,
    detect_peaks,
    excitation_spectrum,
    n0_normalization,
    photon_statistics,
    poisson_comparison,
)


def params(**kw):
    defaults = dict(chi=2.1711386723121917, J=2.0, gamma_1=0.5, gamma_ex=0.5,
                    gamma_2=0.1, gamma_tip=0.0, omega_drive_amp=0.01, delta=0.0)
    defaults.update(kw)
    return SystemParams(**defaults)


def fock_state(basis, m, n):
    rho = np.zeros((basis.size, basis.size), dtype=complex)
    rho[basis.index_of(m, n), basis.index_of(m, n)] = 1.0
    return DensityMatrix(basis=basis, data=rho)


def reference_detect_peaks(y):
    """``detect_peaks`` with its strict interior maxima found index by index."""
    y = np.asarray(y, dtype=float)
    idx = [i for i in range(1, len(y) - 1) if y[i] > y[i - 1] and y[i] > y[i + 1]]
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


class TestPhotonStatistics:
    def test_vacuum_correlators_undefined(self):
        basis = build_basis(per_mode=(2, 2))
        with pytest.raises(ValueError, match="undefined"):
            photon_statistics(fock_state(basis, 0, 0))

    def test_two_photon_fock_state(self):
        basis = build_basis(per_mode=(3, 0))
        stats = photon_statistics(fock_state(basis, 2, 0))
        assert stats.n1 == pytest.approx(2.0)
        assert stats.g2 == pytest.approx(0.5)
        assert stats.g3 == pytest.approx(0.0, abs=1e-14)

    def test_moment_consistency(self):
        basis = build_basis(per_mode=(3, 3))
        rng = np.random.default_rng(2)
        x = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        rho = DensityMatrix(basis=basis, data=(x @ x.conj().T) / np.trace(x @ x.conj().T))
        stats = photon_statistics(rho)
        assert stats.n1 == pytest.approx(
            sum(m * p for (m, n), p in stats.p_mn.items()), rel=1e-12)
        assert stats.n2 == pytest.approx(
            sum(n * p for (m, n), p in stats.p_mn.items()), rel=1e-12)
        assert np.sum(list(stats.p_mn.values())) == pytest.approx(1.0, abs=1e-8)

    def test_g2_diagonal_sufficiency(self):
        basis = build_basis(per_mode=(4, 4))
        p = params(delta=-1.9, gamma_tip=1.0)
        rho = steady_state(build_liouvillian(p, basis))
        stats = photon_statistics(rho)
        n1 = sum(m * pr for (m, n), pr in stats.p_mn.items())
        m2 = sum(m * (m - 1) * pr for (m, n), pr in stats.p_mn.items())
        assert stats.g2 == pytest.approx(m2 / n1**2, rel=1e-10)


class TestPoissonComparison:
    def test_poisson_self_comparison(self):
        mu = 0.2
        from math import factorial

        p_m = np.array([np.exp(-mu) * mu**m / factorial(m) for m in range(25)])
        cmp = poisson_comparison(p_m)
        assert np.max(np.abs(cmp.deviation)) < 1e-10

    def test_mean_matches_distribution(self):
        p_m = np.array([0.5, 0.3, 0.2])
        cmp = poisson_comparison(p_m)
        assert cmp.mu == pytest.approx(0.7)


class TestPeakDetection:
    def test_two_lorentzians(self):
        x = np.linspace(-4, 4, 501)
        y = 1 / ((x - 2) ** 2 + 0.05) + 1 / ((x + 2) ** 2 + 0.05)
        peaks = detect_peaks(y)
        assert len(peaks) == 2

    def test_shallow_ripple_merged(self):
        x = np.linspace(-4, 4, 501)
        y = np.exp(-x**2) * (1 + 0.01 * np.sin(40 * x))
        assert len(detect_peaks(y)) == 1

    def test_plateau_like_single_peak(self):
        y = np.concatenate([np.linspace(0, 1, 100), np.linspace(1, 0, 100)[1:]])
        assert len(detect_peaks(y)) <= 1

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([0.0, 1.0, 1.02, 2.0, np.nan, np.inf, -np.inf])
                    | st.floats(-1e300, 1e300), max_size=40))
    def test_matches_the_per_index_loop(self, values):
        # plateaus, ties and NaN cells: the vectorised comparison finds the
        # same strict interior maxima as comparing index by index
        assert detect_peaks(np.array(values)) == reference_detect_peaks(values)


class TestExcitationSpectrum:
    def test_linear_cavity_lorentzian(self):
        p = params(chi=0.0, J=0.0)
        spec = excitation_spectrum(p, np.linspace(-2, 2, 401))
        assert spec.peak_count == 1
        assert spec.peak_deltas[0] == pytest.approx(0.0, abs=0.02)
        peak_value = np.nanmax(spec.s1)
        expected = (4 * p.omega_drive_amp**2 / p.gamma1_prime**2) / n0_normalization(p)
        assert peak_value == pytest.approx(expected, rel=1e-3)

    def test_split_modes_at_zero_tip_loss(self):
        p = params(gamma_tip=0.0)
        spec = excitation_spectrum(p, np.linspace(-4, 4, 501))
        assert spec.peak_count == 2
        s = np.sqrt(p.J**2 - ((p.gamma2_prime - p.gamma1_prime) / 4) ** 2)
        assert sorted(np.abs(spec.peak_deltas)) == pytest.approx([s, s], abs=0.05)

    def test_coalesced_at_ep(self):
        for gt in (8.9, 10.5):
            spec = excitation_spectrum(params(gamma_tip=gt), np.linspace(-4, 4, 501))
            assert spec.peak_count == 1
            assert spec.peak_deltas[0] == pytest.approx(0.0, abs=0.02)

    def test_peak_count_grid_stability(self):
        for gt in (0.0, 8.9):
            counts = [excitation_spectrum(params(gamma_tip=gt),
                                          np.linspace(-4, 4, n)).peak_count
                      for n in (501, 1001)]
            assert counts[0] == counts[1]

    def test_backends_agree(self):
        p = params(gamma_tip=3.0)
        deltas = np.linspace(-3, 3, 7)
        ana = excitation_spectrum(p, deltas, backend="analytic")
        num = excitation_spectrum(p, deltas, backend="lindblad", cutoff=(4, 4))
        assert np.allclose(ana.s1, num.s1, rtol=0.01)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            excitation_spectrum(params(), np.array([]))

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            excitation_spectrum(params(), np.linspace(-1, 1, 5), backend="exact")


def scalar_s1(p, deltas):
    """S1 point by point through the scalar closed form; NaN where singular."""
    n0 = n0_normalization(p)
    out = []
    for d in deltas:
        try:
            out.append(analytic_observables(steady_amplitudes(p.with_(delta=float(d)))).n1 / n0)
        except SingularParameterError:
            out.append(np.nan)
    return np.array(out)


class TestAnalyticSpectrumKernel:
    @pytest.mark.parametrize("gamma_tip", [0.0, 5.3, 8.9, 12.0])
    def test_bit_identical_to_scalar_path(self, gamma_tip):
        p = preset("paper_fig2")[0].with_(gamma_tip=gamma_tip)
        deltas = np.linspace(-4, 4, 501)
        spec = excitation_spectrum(p, deltas)
        assert spec.skipped == ()
        assert np.array_equal(spec.s1, scalar_s1(p, deltas))

    @settings(max_examples=40, deadline=None)
    @given(chi=st.floats(-4.0, 4.0), J=st.floats(0.0, 4.0), gamma_tip=st.floats(0.0, 12.0),
           delta=st.floats(-4.0, 4.0))
    def test_bit_identical_drawn(self, chi, J, gamma_tip, delta):
        p = params(chi=chi, J=J, gamma_tip=gamma_tip)
        deltas = delta + np.linspace(-1.0, 1.0, 21)
        spec = excitation_spectrum(p, deltas)
        expected = scalar_s1(p, deltas)
        assert np.array_equal(spec.s1, expected, equal_nan=True)
        assert spec.skipped == tuple(np.flatnonzero(np.isnan(expected)))

    def test_singular_point_skipped(self):
        # eta1 = D1*D2 - J^2 vanishes at delta = 1 for these nearly lossless modes
        p = params(gamma_1=5e-15, gamma_ex=5e-15, gamma_2=1e-14, gamma_tip=0.0,
                   J=1.0, chi=1.0)
        deltas = np.linspace(0.5, 1.5, 101)
        assert deltas[50] == 1.0
        with pytest.warns(UserWarning, match="perturbative"):
            spec = excitation_spectrum(p, deltas)
        assert spec.skipped == (50,)
        assert np.isnan(spec.s1[50])
        assert np.isfinite(np.delete(spec.s1, 50)).all()
        assert 50 not in spec.peak_indices

    def test_zero_drive_undefined(self):
        with pytest.raises(ValueError, match="undefined"):
            excitation_spectrum(params(omega_drive_amp=0.0), np.linspace(-1, 1, 5))
