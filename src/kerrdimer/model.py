"""Physical parameters, SI conversions, and Hamiltonian construction.

The default unit system is ``normalized``: every rate is expressed in units
of the total loss of the nonlinear resonator (gamma_1' = gamma_1 + gamma_ex
= 1) and omega_c = 0, i.e. frequencies are offsets from the bare cavity
resonance. SI conversions enter only at the parameter boundary; internally
hbar = 1.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, fields, replace

import numpy as np

from .hilbert import ComplexOperator, FockBasis, mode1_moment, mode_operator

__all__ = [
    "SystemParams",
    "kerr_coefficient",
    "drive_amplitude",
    "build_hamiltonian",
    "preset",
    "preset_names",
    "si_reference_rates",
]

HAMILTONIAN_VARIANTS = (
    "isolated",
    "rotating_driven",
    "excitation_conserving_nonhermitian",
)

# SI constants (CODATA 2022, the values of scipy.constants), m/s, J s, F/m
SPEED_OF_LIGHT = 299792458.0
HBAR = 1.0545718176461565e-34
EPSILON_0 = 8.8541878188e-12

# the fields of SystemParams that hold numbers; the rates among them are >= 0
_RATE_FIELDS = frozenset(("J", "gamma_1", "gamma_ex", "gamma_2", "gamma_tip", "omega_drive_amp"))
_FLOAT_FIELDS = ("chi", "J", "gamma_1", "gamma_ex", "gamma_2", "gamma_tip",
                 "omega_drive_amp", "omega_c", "delta", "drive_phase")
# the largest magnitude of any of them: the closed form's largest products are
# of degree 9 in them (eta1 * eta2 * mu in the three-photon amplitudes), so at
# 1e30 they stay below about 1e280, under the float limit of 1.8e308; the
# paper's rates are of order gamma_1' (about 1e6 rad/s in SI)
MAX_MAGNITUDE = 1e30
# the states of the closed-form amplitudes (analytic) and of the populations
# a sweep reports, in canonical order: ascending N = m + n, then ascending m
AMPLITUDE_STATES = (
    (0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0),
    (0, 3), (1, 2), (2, 1), (3, 0),
)
# N1 below which g2 and g3 are undefined, in the closed form and on a steady state
UNDEFINED_N1_FLOOR = 1e-30


@dataclass(frozen=True)
class SystemParams:
    """All rates and drive settings of the two-resonator model (rad/s), the
    one admissible range of its numbers: each finite and at most
    ``MAX_MAGNITUDE`` in magnitude, the rates >= 0; a ValueError names the field."""

    chi: float
    J: float
    gamma_1: float
    gamma_ex: float
    gamma_2: float
    gamma_tip: float
    omega_drive_amp: float
    omega_c: float = 0.0
    delta: float = 0.0
    drive_phase: float = 0.0
    unit_system: str = "normalized"

    def __post_init__(self):
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            if not -np.inf < value < np.inf:
                raise ValueError(f"{name} must be finite, got {value!r}")
            if value < 0 and name in _RATE_FIELDS:
                raise ValueError(f"{name} must be >= 0")
            if abs(value) > MAX_MAGNITUDE:
                raise ValueError(f"{name} must be at most {MAX_MAGNITUDE:g} in magnitude, "
                                 f"got {value!r}")
        if self.unit_system not in ("normalized", "si"):
            raise ValueError("unit_system must be 'normalized' or 'si'")

    @property
    def gamma1_prime(self) -> float:
        return self.gamma_1 + self.gamma_ex

    @property
    def gamma2_prime(self) -> float:
        return self.gamma_2 + self.gamma_tip

    def with_(self, **changes) -> "SystemParams":
        return replace(self, **changes)


def kerr_coefficient(wavelength: float, chi3_over_eps_r2: float, v_eff: float) -> float:
    """Kerr shift chi = 3*hbar*omega_c^2*(chi3/eps_r^2) / (4*eps0*V_eff), rad/s,
    from the resonance wavelength (m), chi3/eps_r^2 (m^2/V^2) and V_eff (m^3)."""
    if wavelength <= 0 or v_eff <= 0:
        raise ValueError("wavelength and v_eff must be > 0")
    if chi3_over_eps_r2 < 0:
        raise ValueError("chi3_over_eps_r2 must be >= 0")
    omega_c = 2 * np.pi * SPEED_OF_LIGHT / wavelength
    return 3 * HBAR * omega_c**2 * chi3_over_eps_r2 / (4 * EPSILON_0 * v_eff)


def drive_amplitude(p_in: float, gamma_ex: float, wavelength: float) -> float:
    """Drive amplitude Omega = sqrt(gamma_ex * P_in / (hbar * omega_l)), rad/s."""
    if p_in < 0 or gamma_ex < 0:
        raise ValueError("p_in and gamma_ex must be >= 0")
    if wavelength <= 0:
        raise ValueError("wavelength must be > 0")
    omega_l = 2 * np.pi * SPEED_OF_LIGHT / wavelength
    return float(np.sqrt(gamma_ex * p_in / (HBAR * omega_l)))


def build_hamiltonian(p: SystemParams, basis: FockBasis, variant: str) -> ComplexOperator:
    """Assemble one of the three Hamiltonian variants on the given basis.

    isolated:
        omega_c*(n1+n2) + chi*a1'a1'a1 a1 + J*(a1'a2 + a2'a1), Hermitian.
    rotating_driven:
        same with delta replacing omega_c, plus the drive Omega*(a1' + a1).
    excitation_conserving_nonhermitian:
        isolated - i*sum_j (gamma_j'/2)*n_j (lab frame, undriven).
    """
    if variant not in HAMILTONIAN_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {HAMILTONIAN_VARIANTS}")

    a1 = mode_operator(basis, 1, "annihilate").data
    n1 = mode_operator(basis, 1, "number").data
    n2 = mode_operator(basis, 2, "number").data
    number, kerr, hop = _static_terms(basis)

    freq = p.delta if variant == "rotating_driven" else p.omega_c
    h = freq * number + p.chi * kerr + p.J * hop

    if variant == "rotating_driven":
        drive = p.omega_drive_amp * np.exp(1j * p.drive_phase)
        h = h + drive * a1.conj().T + np.conj(drive) * a1

    if variant == "excitation_conserving_nonhermitian":
        h = h - 0.5j * (p.gamma1_prime * n1 + p.gamma2_prime * n2)

    return ComplexOperator(basis, h)


@functools.cache
def _static_terms(basis: FockBasis) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """n1 + n2, a1'^2 a1^2 and a1' a2 + a2' a1: the operators of the
    Hamiltonian that depend on the basis alone, cached per basis, read-only."""
    a1 = mode_operator(basis, 1, "annihilate").data
    a2 = mode_operator(basis, 2, "annihilate").data
    number = mode_operator(basis, 1, "number").data + mode_operator(basis, 2, "number").data
    hop = a1.conj().T @ a2 + a2.conj().T @ a1
    number.flags.writeable = hop.flags.writeable = False
    return number, mode1_moment(basis, 2).data, hop


# ---------------------------------------------------------------------------
# presets

def preset(name: str) -> tuple[SystemParams, dict]:
    """Load one of the shipped presets (``paper_fig1``/``paper_fig2``/``paper_fig3``)."""
    from importlib import resources  # here: the sweep workers load no preset

    try:
        text = resources.files("kerrdimer").joinpath(f"presets/{name}.json").read_text()
    except FileNotFoundError:
        raise KeyError(f"unknown preset {name!r}; available: {preset_names()}") from None
    cfg = json.loads(text)
    names = {f.name for f in fields(SystemParams)}
    return SystemParams(**{k: v for k, v in cfg["params"].items() if k in names}), cfg


def preset_names() -> list[str]:
    from importlib import resources

    root = resources.files("kerrdimer").joinpath("presets")
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def si_reference_rates(
    wavelength: float = 1550e-9,
    q_intrinsic: float = 2e9,
    chi3_over_eps_r2: float = 2e-17,
    v_eff: float = 100e-18,
    p_in: float = 4e-15,
) -> dict[str, float]:
    """SI rates for a critically coupled resonator pair.

    gamma_1 = omega_c / Q is the intrinsic loss, gamma_ex = gamma_1
    (critical coupling), so gamma_1' = 2*omega_c/Q. Returns the rates in
    rad/s together with their values in units of gamma_1'. Each input must
    be finite; wavelength, q_intrinsic and v_eff > 0, the others >= 0.
    """
    for name, value in (("wavelength", wavelength), ("q_intrinsic", q_intrinsic),
                        ("v_eff", v_eff)):
        if not 0 < value < np.inf:
            raise ValueError(f"{name} must be finite and > 0, got {value!r}")
    for name, value in (("chi3_over_eps_r2", chi3_over_eps_r2), ("p_in", p_in)):
        if not 0 <= value < np.inf:
            raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
    omega_c = 2 * np.pi * SPEED_OF_LIGHT / wavelength
    gamma_1 = omega_c / q_intrinsic
    gamma_ex = gamma_1
    g1p = gamma_1 + gamma_ex
    chi = kerr_coefficient(wavelength, chi3_over_eps_r2, v_eff)
    omega = drive_amplitude(p_in, gamma_ex, wavelength)
    return {
        "omega_c": omega_c,
        "gamma_1": gamma_1,
        "gamma_ex": gamma_ex,
        "gamma1_prime": g1p,
        "chi": chi,
        "omega_drive_amp": omega,
        "chi_over_gamma1p": chi / g1p,
        "omega_drive_over_gamma1p": omega / g1p,
    }
