"""Driven-dissipative coupled Kerr/linear resonator pair.

Simulates a weakly driven optical dimer (one Kerr-nonlinear resonator
coupled to a linear one with tunable extra loss): non-Hermitian eigenspectra
and exceptional points, Lindblad steady states, photon statistics, and the
loss-induced suppression/revival of photon blockade.
"""

__version__ = "0.1.0"

# the public names by defining module, each imported on first use (PEP 562),
# so that importing a submodule (a sweep worker's) loads only what it needs
_EXPORTS = {
    "hilbert": ("FockBasis", "ComplexOperator", "build_basis", "mode_operator"),
    "model": ("SystemParams", "kerr_coefficient", "drive_amplitude", "build_hamiltonian",
              "preset"),
    "spectral": ("SubspaceEigensystem", "one_photon_eigensystem_closed",
                 "subspace_eigensystem_numeric", "hep_location", "localization"),
    "analytic": ("AmplitudeSet", "steady_amplitudes", "analytic_observables"),
    "liouvillian": ("Superoperator", "DensityMatrix", "build_liouvillian", "steady_state",
                    "lep_locate"),
    "observables": ("PhotonStatistics", "photon_statistics", "poisson_comparison",
                    "excitation_spectrum"),
    "experiments": ("sweep_loss", "critical_points", "spectrum_map", "ep_agreement"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
