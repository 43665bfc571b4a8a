"""Driven-dissipative coupled Kerr/linear resonator pair.

Simulates a weakly driven optical dimer (one Kerr-nonlinear resonator
coupled to a linear one with tunable extra loss): non-Hermitian eigenspectra
and exceptional points, Lindblad steady states, photon statistics, and the
loss-induced suppression/revival of photon blockade.
"""

__version__ = "0.1.0"

from .hilbert import FockBasis, ComplexOperator, build_basis, mode_operator
from .model import (
    SystemParams,
    kerr_coefficient,
    drive_amplitude,
    build_hamiltonian,
    preset,
)
from .spectral import (
    SubspaceEigensystem,
    one_photon_eigensystem_closed,
    subspace_eigensystem_numeric,
    hep_location,
    localization,
)
from .analytic import AmplitudeSet, steady_amplitudes, analytic_observables
from .liouvillian import (
    Superoperator,
    DensityMatrix,
    build_liouvillian,
    steady_state,
    lep_locate,
)
from .observables import (
    PhotonStatistics,
    photon_statistics,
    poisson_comparison,
    excitation_spectrum,
)
from .experiments import sweep_loss, critical_points, spectrum_map, ep_agreement

__all__ = [
    "FockBasis", "ComplexOperator", "build_basis", "mode_operator",
    "SystemParams", "kerr_coefficient", "drive_amplitude", "build_hamiltonian",
    "preset",
    "SubspaceEigensystem", "one_photon_eigensystem_closed",
    "subspace_eigensystem_numeric", "hep_location", "localization",
    "AmplitudeSet", "steady_amplitudes", "analytic_observables",
    "Superoperator", "DensityMatrix", "build_liouvillian", "steady_state",
    "lep_locate",
    "PhotonStatistics", "photon_statistics", "poisson_comparison",
    "excitation_spectrum",
    "sweep_loss", "critical_points", "spectrum_map", "ep_agreement",
]
