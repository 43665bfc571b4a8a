import re
import warnings
from dataclasses import fields

import numpy as np
import pytest

from kerrdimer import analytic
from kerrdimer.analytic import SingularParameterError, steady_amplitudes
from kerrdimer.hilbert import build_basis, mode_operator
from kerrdimer.liouvillian import LEP_CUTOFF, _lep_evaluator, build_liouvillian
from kerrdimer.model import (
    MAX_MAGNITUDE,
    SystemParams,
    build_hamiltonian,
    drive_amplitude,
    kerr_coefficient,
    preset,
    preset_names,
    si_reference_rates,
)
from kerrdimer.spectral import _two_photon_closed_roots, one_photon_eigensystem_closed

# CODATA 2018 values, written out so the oracle is independent of the
# implementation's constant source
HBAR = 1.054571817e-34
C_LIGHT = 299792458.0
EPS0 = 8.8541878128e-12
# chi for lambda = 1550 nm, chi^(3)/eps_r^2 = 2e-17 m^2/V^2, V_eff = 100 um^3,
# evaluated directly from kerr_coefficient with CODATA 2022 constants
CHI_SI_REFERENCE = 2638495.9760940145  # rad/s


NUMBER_FIELDS = [f.name for f in fields(SystemParams) if f.name != "unit_system"]
RATE_FIELDS = ("J", "gamma_1", "gamma_ex", "gamma_2", "gamma_tip", "omega_drive_amp")


def params(**kw):
    defaults = dict(chi=2.0, J=2.0, gamma_1=0.5, gamma_ex=0.5, gamma_2=0.1,
                    gamma_tip=0.0, omega_drive_amp=0.01)
    defaults.update(kw)
    return SystemParams(**defaults)


class TestKerrCoefficient:
    def test_reference_point_direct_evaluation(self):
        omega_c = 2 * np.pi * C_LIGHT / 1550e-9
        expected = 3 * HBAR * omega_c**2 * 2e-17 / (4 * EPS0 * 100e-18)
        got = kerr_coefficient(1550e-9, 2e-17, 100e-18)
        assert got == pytest.approx(expected, rel=1e-9)
        assert got == pytest.approx(2.6e6, rel=0.02)
        assert CHI_SI_REFERENCE == pytest.approx(got, rel=1e-12)

    def test_zero_susceptibility(self):
        assert kerr_coefficient(1550e-9, 0.0, 100e-18) == 0.0

    def test_inverse_volume_scaling(self):
        chi = kerr_coefficient(1550e-9, 2e-17, 100e-18)
        assert kerr_coefficient(1550e-9, 2e-17, 200e-18) == pytest.approx(chi / 2, rel=1e-12)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            kerr_coefficient(-1550e-9, 2e-17, 100e-18)
        with pytest.raises(ValueError):
            kerr_coefficient(1550e-9, 2e-17, 0.0)


class TestDriveAmplitude:
    def test_zero_power(self):
        assert drive_amplitude(0.0, 1e6, 1550e-9) == 0.0

    def test_square_root_law(self):
        om = drive_amplitude(4e-15, 3e5, 1550e-9)
        assert drive_amplitude(16e-15, 3e5, 1550e-9) == pytest.approx(2 * om, rel=1e-12)

    def test_si_example_weak_driving(self):
        # 4 fW at critical coupling with a loaded linewidth omega_c / Q
        omega_c = 2 * np.pi * C_LIGHT / 1550e-9
        g1p = omega_c / 2e9
        om = drive_amplitude(4e-15, g1p / 2, 1550e-9)
        expected = np.sqrt((g1p / 2) * 4e-15 / (HBAR * omega_c))
        assert om == pytest.approx(expected, rel=1e-9)
        assert om / g1p == pytest.approx(0.16026, rel=1e-3)
        assert om / g1p < 1.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            drive_amplitude(-1e-15, 1e5, 1550e-9)
        with pytest.raises(ValueError):
            drive_amplitude(1e-15, 1e5, 0.0)


class TestSystemParams:
    def test_negative_rates_rejected(self):
        with pytest.raises(ValueError):
            params(J=-1.0)
        with pytest.raises(ValueError):
            params(gamma_tip=-0.1)
        with pytest.raises(ValueError):
            params(omega_drive_amp=-0.5)

    @pytest.mark.parametrize("name", [f.name for f in fields(SystemParams)
                                      if f.name != "unit_system"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value!r}$"):
            params(**{name: value})
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            params().with_(**{name: value})

    @pytest.mark.parametrize("name", NUMBER_FIELDS)
    def test_magnitude_bound(self, name):
        beyond = float(np.nextafter(MAX_MAGNITUDE, np.inf))
        signs = (1.0,) if name in RATE_FIELDS else (1.0, -1.0)
        for sign in signs:
            assert getattr(params(**{name: sign * MAX_MAGNITUDE}), name) == sign * MAX_MAGNITUDE
            message = "^" + re.escape(f"{name} must be at most 1e+30 in magnitude, "
                                      f"got {sign * beyond!r}") + "$"
            with pytest.raises(ValueError, match=message):
                params(**{name: sign * beyond})
            with pytest.raises(ValueError, match=message):
                params().with_(**{name: sign * beyond})

    def test_total_losses(self):
        p = params(gamma_1=0.3, gamma_ex=0.7, gamma_2=0.1, gamma_tip=2.0)
        assert p.gamma1_prime == pytest.approx(1.0)
        assert p.gamma2_prime == pytest.approx(2.1)


class TestMagnitudeBound:
    """At MAX_MAGNITUDE every closed form, the LEP evaluation and the
    generator stay within the float range."""

    def test_nothing_overflows_at_the_bound(self):
        # each number alone at +-MAX_MAGNITUDE on the preset, then all together
        p, _ = preset("paper_fig2")
        alone = [p.with_(**{name: sign * MAX_MAGNITUDE}) for name in NUMBER_FIELDS
                 for sign in (1.0, -1.0) if sign > 0 or name not in RATE_FIELDS]
        together = [p.with_(**{name: (sign if name not in RATE_FIELDS else 1.0) * MAX_MAGNITUDE
                               for name in NUMBER_FIELDS}) for sign in (1.0, -1.0)]
        cases = alone + together
        assert len(cases) == 16
        basis = build_basis(per_mode=(3, 3))
        for p in cases:
            with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise"):
                warnings.simplefilter("ignore", UserWarning)  # the strong drive's warning
                try:
                    steady_amplitudes(p)
                except SingularParameterError:
                    # a verdict relative to the largest number, not an
                    # overflow: the amplitudes are still computed
                    analytic._amplitudes(p, analytic._intermediates(p, p.delta, p.gamma2_prime))
                one_photon_eigensystem_closed(p)
                _two_photon_closed_roots(p)
                _lep_evaluator(p, build_basis(per_mode=LEP_CUTOFF))(MAX_MAGNITUDE)
                build_liouvillian(p, basis)


class TestBuildHamiltonian:
    def test_bare_rotating_frame_is_diagonal(self):
        basis = build_basis(per_mode=(3, 3))
        p = params(chi=0.0, J=0.0, omega_drive_amp=0.0, delta=0.7)
        h = build_hamiltonian(p, basis, "rotating_driven").data
        expected = np.diag([0.7 * (m + n) for m, n in basis.states])
        assert np.allclose(h, expected, atol=1e-15)

    def test_isolated_conserves_excitation(self):
        basis = build_basis(per_mode=(4, 4))
        p = params(omega_c=1.3, chi=1.7)
        h = build_hamiltonian(p, basis, "isolated").data
        ntot = mode_operator(basis, 1, "number").data + mode_operator(basis, 2, "number").data
        comm = h @ ntot - ntot @ h
        assert np.max(np.abs(comm)) < 1e-12 * np.max(np.abs(h))

    def test_rotating_driven_is_hermitian(self):
        basis = build_basis(per_mode=(3, 3))
        p = params(delta=-1.2, drive_phase=0.4)
        h = build_hamiltonian(p, basis, "rotating_driven").data
        assert np.max(np.abs(h - h.conj().T)) < 1e-14

    def test_kerr_term_diagonal_m_m_minus_1(self):
        basis = build_basis(per_mode=(3, 3))
        p0 = params(chi=0.0, J=1.1, delta=0.2)
        p1 = params(chi=1.9, J=1.1, delta=0.2)
        dh = build_hamiltonian(p1, basis, "rotating_driven").data - \
            build_hamiltonian(p0, basis, "rotating_driven").data
        expected = np.diag([1.9 * m * (m - 1) for m, n in basis.states])
        assert np.allclose(dh, expected, atol=1e-14)

    def test_excitation_conserving_block_diagonal(self):
        basis = build_basis(per_mode=(3, 3))
        p = params(omega_c=0.5, gamma_tip=3.0)
        h = build_hamiltonian(p, basis, "excitation_conserving_nonhermitian").data
        for i, (m1, n1) in enumerate(basis.states):
            for j, (m2, n2) in enumerate(basis.states):
                if m1 + n1 != m2 + n2:
                    assert h[i, j] == 0.0

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            build_hamiltonian(params(), build_basis(per_mode=(3, 3)), "lab_driven")


class TestPresets:
    def test_names_shipped(self):
        assert set(preset_names()) >= {"paper_fig1", "paper_fig2", "paper_fig3"}

    def test_fig2_preset_values(self):
        p, cfg = preset("paper_fig2")
        assert p.gamma1_prime == pytest.approx(1.0)
        assert p.J == pytest.approx(2.0)
        assert p.gamma_2 == pytest.approx(0.1)
        assert p.omega_drive_amp == pytest.approx(0.01)
        assert cfg["protocol"] == "track_upper_branch"

    def test_preset_chi_matches_si_conversion(self):
        # chi in units of gamma_1' = 2 * omega_c / Q (critical coupling)
        p, _ = preset("paper_fig2")
        rates = si_reference_rates()
        assert p.chi == pytest.approx(rates["chi_over_gamma1p"], rel=1e-12)
        assert rates["chi_over_gamma1p"] == pytest.approx(2.17114, rel=1e-5)
        assert rates["omega_drive_over_gamma1p"] == pytest.approx(0.11332, rel=1e-4)

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            preset("paper_fig9")


class TestSiConstants:
    def test_literals_equal_scipy_constants(self):
        from scipy import constants

        from kerrdimer.model import EPSILON_0, HBAR, SPEED_OF_LIGHT

        assert SPEED_OF_LIGHT == constants.c
        assert HBAR == constants.hbar
        assert EPSILON_0 == constants.epsilon_0
