import numpy as np
import pytest

from kerrdimer.analytic import (
    AMPLITUDE_STATES,
    N1_CEILING,
    SingularParameterError,
    _cmul,
    amplitude_arrays,
    analytic_observables,
    n1_arrays,
    steady_amplitudes,
)
from kerrdimer.model import SystemParams


def params(**kw):
    defaults = dict(chi=2.1711386723121917, J=2.0, gamma_1=0.5, gamma_ex=0.5,
                    gamma_2=0.1, gamma_tip=0.0, omega_drive_amp=0.01, delta=-1.9873)
    defaults.update(kw)
    return SystemParams(**defaults)


def single_kerr_cavity_g2(delta, chi, gamma, omega, n_max=12):
    """Independent one-mode Lindblad steady state (dense null-space solve)."""
    d = n_max + 1
    a = np.diag(np.sqrt(np.arange(1, d)), 1)
    ad = a.conj().T
    n = ad @ a
    h = delta * n + chi * (ad @ ad @ a @ a) + omega * (a + ad)
    eye = np.eye(d)
    lind = -1j * (np.kron(eye, h) - np.kron(h.T, eye)) + gamma * (
        np.kron(a.conj(), a) - 0.5 * np.kron(eye, n) - 0.5 * np.kron(n.T, eye)
    )
    m = lind.copy()
    m[0, :] = np.reshape(eye, -1, order="F")
    b = np.zeros(d * d, dtype=complex)
    b[0] = 1.0
    rho = np.linalg.solve(m, b).reshape((d, d), order="F")
    pops = np.real(np.diag(rho))
    n1 = np.sum(np.arange(d) * pops)
    m2 = np.sum(np.arange(d) * (np.arange(d) - 1) * pops)
    return n1, m2 / n1**2


class TestAmplitudes:
    def test_vacuum_without_drive(self):
        amps = steady_amplitudes(params(omega_drive_amp=0.0))
        assert amps.c00 == 1.0
        for m, n in AMPLITUDE_STATES[1:]:
            assert amps.amplitude(m, n) == 0.0

    def test_decoupled_second_mode(self):
        amps = steady_amplitudes(params(J=0.0))
        for m, n in ((0, 1), (0, 2), (1, 1), (0, 3), (1, 2), (2, 1)):
            assert amps.amplitude(m, n) == 0.0
        assert abs(amps.c10) > 0
        assert abs(amps.c20) > 0

    def test_drive_order_scaling(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            p = params(chi=rng.uniform(0, 4), J=rng.uniform(0.2, 4),
                       gamma_tip=rng.uniform(0, 9), delta=rng.uniform(-3, 3))
            full = steady_amplitudes(p)
            half = steady_amplitudes(p.with_(omega_drive_amp=p.omega_drive_amp / 2))
            for m, n in AMPLITUDE_STATES[1:]:
                expected = abs(full.amplitude(m, n)) * 0.5 ** (m + n)
                assert abs(half.amplitude(m, n)) == pytest.approx(expected, rel=1e-10)

    def test_strong_drive_warning(self):
        with pytest.warns(UserWarning, match="perturbative"):
            steady_amplitudes(params(omega_drive_amp=0.5))

    def test_singular_point_names_factor(self):
        # nearly lossless resonators driven at the hybridized resonance:
        # eta1 = D1*D2 - J^2 -> 0
        p = params(gamma_1=5e-15, gamma_ex=5e-15, gamma_2=1e-14, gamma_tip=0.0,
                   J=1.0, chi=1.0, delta=1.0)
        with pytest.warns(UserWarning, match="perturbative"), \
                pytest.raises(SingularParameterError, match="eta1"):
            steady_amplitudes(p)

    def test_loss_swap_symmetry_chi_zero(self):
        pa = params(chi=0.0, delta=0.7)
        pb = pa.with_(gamma_1=pa.gamma_2 / 2, gamma_ex=pa.gamma_2 / 2,
                      gamma_2=pa.gamma1_prime)
        ta = steady_amplitudes(pa).intermediates
        tb = steady_amplitudes(pb).intermediates
        assert ta.eta1 == pytest.approx(tb.eta1, rel=1e-12)
        assert ta.d5 == pytest.approx(tb.d6, rel=1e-12)
        assert ta.d6 == pytest.approx(tb.d5, rel=1e-12)


class TestObservables:
    def test_chi_zero_coherent_statistics(self):
        # the closed-form algebra collapses: eta2 = 2*(D1+D2)*eta1
        rng = np.random.default_rng(5)
        for _ in range(10):
            p = params(chi=0.0, J=rng.uniform(0.2, 4), delta=rng.uniform(-3, 3),
                       gamma_tip=rng.uniform(0, 9))
            t = steady_amplitudes(p).intermediates
            assert t.eta2 == pytest.approx(2 * (t.d1 + t.d2) * t.eta1, rel=1e-12)
            obs = analytic_observables(steady_amplitudes(p))
            assert obs.g2_approx == pytest.approx(1.0, abs=1e-12)

    def test_single_kerr_cavity_closed_form(self):
        p = params(J=0.0, delta=0.8, chi=1.5)
        obs = analytic_observables(steady_amplitudes(p))
        g1p = p.gamma1_prime
        expected = (p.delta**2 + g1p**2 / 4) / ((p.delta + p.chi) ** 2 + g1p**2 / 4)
        assert obs.g2_approx == pytest.approx(expected, rel=1e-12)

    def test_single_kerr_cavity_against_lindblad_oracle(self):
        p = params(J=0.0, delta=0.8, chi=1.5, omega_drive_amp=0.005)
        obs = analytic_observables(steady_amplitudes(p))
        n1_oracle, g2_oracle = single_kerr_cavity_g2(p.delta, p.chi, p.gamma1_prime,
                                                     p.omega_drive_amp)
        assert obs.n1 == pytest.approx(n1_oracle, rel=1e-3)
        assert obs.g2 == pytest.approx(g2_oracle, rel=1e-3)

    def test_g2_approx_converges_to_full(self):
        p = params(omega_drive_amp=1e-3)
        obs = analytic_observables(steady_amplitudes(p))
        assert abs(obs.g2_approx / obs.g2 - 1.0) < 1e-3

    def test_undefined_without_drive(self):
        with pytest.raises(ValueError, match="undefined"):
            analytic_observables(steady_amplitudes(params(omega_drive_amp=0.0)))

    def test_undefined_where_n1_cubes_beyond_the_float_range(self):
        # Omega = 1e20 gamma_1': N1 about 4e119, its cube beyond the float
        # range; the array evaluation of the same point lies beyond N1_CEILING
        p = params(omega_drive_amp=1e20)
        with pytest.warns(UserWarning, match="perturbative"):
            amps = steady_amplitudes(p)
        with pytest.raises(ValueError, match=r"^N1 = 4\.1\d\de\+119 exceeds 5\.644e\+102: "):
            analytic_observables(amps)
        with pytest.warns(UserWarning, match="perturbative"):
            arrays, _ = amplitude_arrays(p, np.array([p.delta]), np.array([p.gamma2_prime]))
        assert analytic_observables(arrays).n1[0] > N1_CEILING
        assert np.isfinite(N1_CEILING ** 3)

    def test_mean_occupations_positive(self):
        obs = analytic_observables(steady_amplitudes(params()))
        assert obs.n1 > 0 and obs.n2 > 0
        assert obs.n1 == pytest.approx(3.29e-4, rel=0.01)


def same_bits(a, b):
    """Bitwise equality of two float or complex arrays (signed zeros differ)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestArrayKernel:
    def test_cmul_matches_python_complex_product(self):
        rng = np.random.default_rng(11)
        n = 4000

        def draw():
            mag = 10.0 ** rng.uniform(-150, 150, size=(2, n))
            sign = rng.choice([-1.0, 1.0], size=(2, n))
            return (sign * mag)[0] + 1j * (sign * mag)[1]

        a, b = draw(), draw()
        expected = np.array([complex(x) * complex(y) for x, y in zip(a, b)])
        assert same_bits(_cmul(a, b), expected)
        # a scalar operand broadcasts and rounds the same way
        assert same_bits(_cmul(a[0], b), np.array([complex(a[0]) * complex(y) for y in b]))

    def test_arrays_match_scalar_evaluation(self):
        p = params(gamma_tip=2.3, drive_phase=0.7)
        deltas = np.linspace(-4, 4, 41)
        gts = np.linspace(0.0, 12.0, 41)
        amps, singular = amplitude_arrays(p, deltas, p.gamma_2 + gts)
        obs = analytic_observables(amps)
        assert not singular.any()
        for i, (d, gt) in enumerate(zip(deltas, gts)):
            ref = steady_amplitudes(p.with_(delta=float(d), gamma_tip=float(gt)))
            for m, n in AMPLITUDE_STATES[1:]:
                assert same_bits(amps.amplitude(m, n)[i], ref.amplitude(m, n))
            ref_obs = analytic_observables(ref)
            for field in ("n1", "n2", "g2", "g2_approx", "g3"):
                assert same_bits(getattr(obs, field)[i], getattr(ref_obs, field))

    @pytest.mark.filterwarnings("ignore:drive exceeds")
    @pytest.mark.parametrize("case", ["drawn", "nearly-lossless", "lossless"])
    def test_n1_from_mode1_amplitudes_matches_the_ten_term_sum(self, case):
        # N1 from the six m >= 1 amplitudes against the sum of m * P_mn over
        # all ten populations, on arrays and on scalars, wherever the m = 0
        # populations are finite; that is every cell that is not singular
        def ten_term_n1(pops):
            return sum(m * pr for (m, n), pr in pops.items())

        rng = np.random.default_rng(36)
        if case == "drawn":
            sets = [params(chi=rng.choice([-1, 1]) * 10 ** rng.uniform(-3, 2),
                           J=10 ** rng.uniform(-3, 1), gamma_1=10 ** rng.uniform(-4, 1),
                           gamma_ex=10 ** rng.uniform(-4, 1), gamma_2=10 ** rng.uniform(-4, 1),
                           omega_drive_amp=10 ** rng.uniform(-6, 1),
                           drive_phase=rng.uniform(0, 2 * np.pi)) for _ in range(40)]
            deltas, gts = np.linspace(-6, 6, 41), np.array([0.0, 0.7, 5.3, 12.0])
        else:
            # eta1 = D1 D2 - J^2 vanishes at delta = 1: to rounding, or exactly
            loss = 5e-15 if case == "nearly-lossless" else 0.0
            sets = [params(gamma_1=loss, gamma_ex=loss, gamma_2=2 * loss, J=1.0, chi=1.0)]
            deltas, gts = np.linspace(0.5, 1.5, 101), np.array([0.0, 2 * loss])
        for p in sets:
            n1, singular = n1_arrays(p, deltas[None, :], p.gamma_2 + gts[:, None])
            amps, same_mask = amplitude_arrays(p, deltas[None, :], p.gamma_2 + gts[:, None])
            pops = amps.populations()
            assert same_bits(singular, same_mask)
            with np.errstate(all="ignore"):
                ten = ten_term_n1(pops)
            finite = np.all([np.isfinite(pops[(0, n)]) for n in (1, 2, 3)], axis=0)
            assert finite[~singular].all()
            assert same_bits(n1[finite], ten[finite])
            for i, j in zip(*np.nonzero(~singular)):
                pc = p.with_(delta=float(deltas[j]), gamma_tip=float(gts[i]))
                assert same_bits(n1[i, j], ten_term_n1(steady_amplitudes(pc).populations()))
            if case != "drawn":
                assert singular[:, 50].all() and not np.delete(singular, 50, axis=1).any()
