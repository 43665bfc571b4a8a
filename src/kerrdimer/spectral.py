"""Eigenanalysis of the excitation-conserving non-Hermitian Hamiltonian.

The closed form of the one-photon excitation subspace and the two-photon
block's closed-form roots (branch labels), a dense block eigensolver for
any excitation number, exceptional-point location, and eigenstate
localization diagnostics.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .hilbert import build_basis
from .model import SystemParams, build_hamiltonian

__all__ = [
    "SubspaceEigensystem",
    "one_photon_roots",
    "one_photon_eigensystem_closed",
    "subspace_eigensystem_numeric",
    "hep_location",
    "localization",
    "match_branches",
    "branch_sweep",
]

# relative half-width of the declared degeneracy neighborhood around EPs
DEGENERACY_TOL = 1e-6


@dataclass
class SubspaceEigensystem:
    """Eigenpairs of one N-excitation block.

    ``eigenvectors[:, k]`` is the unit-norm amplitude vector of branch
    ``labels[k]`` over ``basis_states`` (ordered by ascending m).
    ``degenerate`` is set by the closed form only; a numeric eigensystem
    leaves it False.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    labels: tuple[str, ...]
    basis_states: tuple[tuple[int, int], ...]
    degenerate: bool = False


def _n_block_states(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((m, n - m) for m in range(n + 1))


def one_photon_roots(p: SystemParams) -> tuple[np.ndarray, complex, float]:
    """Closed-form eigenvalues of the one-photon block, without eigenvectors.

    Returns (lambda_1(+/-), s, beta): lambda_1(+/-) = -i*Gamma + omega_c +/- s,
    with s = sqrt(J^2 - beta^2), Gamma = (gamma_1' + gamma_2') / 4 and
    beta = (gamma_2' - gamma_1') / 4.
    """
    g1p, g2p = p.gamma1_prime, p.gamma2_prime
    Gamma, beta = (g1p + g2p) / 4, (g2p - g1p) / 4
    s = np.sqrt(complex(float(p.J) ** 2 - float(beta) ** 2))
    return np.array([p.omega_c - 1j * Gamma + s, p.omega_c - 1j * Gamma - s]), s, beta


def one_photon_eigensystem_closed(p: SystemParams) -> SubspaceEigensystem:
    """Closed-form eigenpairs of the one-photon block.

    The eigenvalues of ``one_photon_roots``, with the pair flagged
    degenerate when the discriminant root falls below the declared EP
    neighborhood.
    """
    lam, s, beta = one_photon_roots(p)

    # eigenvectors of [[i*beta, J], [J, -i*beta]] in the ((0,1), (1,0)) state
    # order; two algebraically equivalent forms, keep the better-conditioned
    vecs = np.empty((2, 2), dtype=complex)
    for k, lam_red in enumerate((s, -s)):  # reduced eigenvalue (loss offset removed)
        v_a = np.array([-(1j * beta - lam_red), p.J])  # (C01, C10) ~ (-(i b -/+ s), J)
        v_b = np.array([p.J, lam_red + 1j * beta])
        v = v_a if np.linalg.norm(v_a) >= np.linalg.norm(v_b) else v_b
        nrm = np.linalg.norm(v)
        # J = 0 and beta = 0: the reduced block vanishes and both forms with it
        vecs[:, k] = v / nrm if nrm else np.eye(2)[k]

    degenerate = abs(s) < DEGENERACY_TOL * max(p.J, abs(beta), 1e-300)
    return SubspaceEigensystem(
        eigenvalues=lam,
        eigenvectors=vecs,
        labels=("+", "-"),
        basis_states=_n_block_states(1),
        degenerate=degenerate,
    )


def hep_location(J: float, gamma1_prime: float, gamma_2: float) -> float:
    """Nanotip loss at which the one-photon eigenvalues coalesce.

    gamma_tip_EP = 4J + gamma_1' - gamma_2; a negative result means no
    physical EP is reachable, which each caller reports.
    """
    if J < 0 or gamma1_prime < 0 or gamma_2 < 0:
        raise ValueError("J, gamma1_prime and gamma_2 must be >= 0")
    return 4.0 * J + gamma1_prime - gamma_2


def _two_photon_closed_roots(p: SystemParams):
    """Cubic roots labeled ('0', '+', '-'), or None when the closed
    expressions are numerically unreliable."""
    g1p, g2p = p.gamma1_prime, p.gamma2_prime
    dg = g1p - g2p
    A = 2 * p.omega_c + 2 * p.chi - 1j * g1p
    B = 2 * p.omega_c - 0.5j * (g1p + g2p)
    C = 2 * p.omega_c - 1j * g2p
    # pairwise sums of the intermediates limit cancellation between terms
    D = np.sum(np.array([
        36 * p.J**2 * p.chi,
        4.5 * p.chi * dg**2,
        -16 * p.chi**3,
        18j * p.chi**2 * dg,
    ]))
    E = np.sum(np.array([
        -12 * p.J**2,
        0.75 * dg**2,
        -4 * p.chi**2,
        3j * p.chi * dg,
    ]))
    F = (D + np.sqrt(4 * E**3 + D**2 + 0j)) ** (1.0 / 3.0)  # principal branches
    G = (A + B + C) / 3.0
    scale = max(p.J, abs(p.chi), p.gamma1_prime, p.gamma2_prime, abs(p.omega_c), 1e-300)
    if abs(F) < 1e-9 * scale:
        return None
    rt3 = 1j * np.sqrt(3)
    lam0 = G - (1 - rt3) * E / (3 * 2 ** (2 / 3) * F) + (1 + rt3) * F / (6 * 2 ** (1 / 3))
    lam_p = G - (1 + rt3) * E / (3 * 2 ** (2 / 3) * F) + (1 - rt3) * F / (6 * 2 ** (1 / 3))
    lam_m = G + 2 ** (1 / 3) * E / (3 * F) - F / (3 * 2 ** (1 / 3))
    return np.array([lam0, lam_p, lam_m]), (A, C), scale


def _dense_block_eig(p: SystemParams, n: int):
    """Eigenpairs of the N-excitation block, sliced from the per-mode basis (N, N)."""
    states = _n_block_states(n)
    basis = build_basis(per_mode=(n, n))
    h = build_hamiltonian(p, basis, "excitation_conserving_nonhermitian").data
    idx = [basis.index_of(m, k) for m, k in states]
    lam, vecs = np.linalg.eig(h[np.ix_(idx, idx)])
    return lam, vecs / np.linalg.norm(vecs, axis=0, keepdims=True), states


def subspace_eigensystem_numeric(p: SystemParams, n: int) -> SubspaceEigensystem:
    """Dense eigensolve of the N-excitation block of the lab-frame
    excitation-conserving non-Hermitian Hamiltonian."""
    if n < 0:
        raise ValueError("excitation number must be >= 0")
    lam, vecs, states = _dense_block_eig(p, n)

    reference = None
    if n == 1:
        closed = one_photon_eigensystem_closed(p)
        reference = closed.eigenvalues, closed.labels
    elif n == 2 and (closed := _two_photon_closed_roots(p)) is not None:
        reference = closed[0], ("0", "+", "-")

    if reference is None:
        order = np.lexsort((lam.imag, lam.real))
        labels = tuple(f"b{k}" for k in range(n + 1))
    else:
        order = match_branches(reference[0], lam)
        labels = reference[1]
    return SubspaceEigensystem(eigenvalues=lam[order], eigenvectors=vecs[:, order],
                               labels=labels, basis_states=states)


def localization(eig: SubspaceEigensystem) -> np.ndarray:
    """Per-branch basis-state populations |amplitude|^2.

    Returns an array of shape (n_branches, n_states) whose rows sum to 1,
    aligned with ``eig.labels`` and ``eig.basis_states``.
    """
    return (np.abs(eig.eigenvectors) ** 2).T


def match_branches(reference: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Permutation aligning ``candidates`` with ``reference`` eigenvalues.

    Minimum-total-distance assignment in the complex plane; used for
    nearest-neighbor branch continuation across parameter sweeps. Callers
    match at most 3 branches, so every permutation is tried. An exact tie
    in the total goes to the smaller tuple of per-row distances (in row
    order). That reproduces scipy's ``linear_sum_assignment`` on tied
    2-branch inputs (the closed-form pair at the EP is one) but not on
    every tied 3-branch input: about 4 % of tied integer 3x3 cost matrices
    get another optimal assignment.
    """
    cost = np.abs(reference[:, None] - candidates[None, :])

    def key(cols):
        per_row = tuple(cost[i, j] for i, j in enumerate(cols))
        return sum(per_row), per_row

    return np.array(min(itertools.permutations(range(len(candidates))), key=key))


def branch_sweep(p: SystemParams, gamma_tip_grid) -> list[dict]:
    """One-photon eigen-branch rows (continuation-labeled) over a gamma_tip grid.

    Each row carries gamma_tip, branch label, Re/Im of the eigenvalue and
    the per-state populations, in basis-state order.
    """
    rows = []
    prev = None
    labels = None
    for gt in gamma_tip_grid:
        eig = subspace_eigensystem_numeric(p.with_(gamma_tip=gt), 1)
        lam, pops = eig.eigenvalues, localization(eig)
        if prev is None:
            labels = eig.labels
        else:
            order = match_branches(prev, lam)
            lam, pops = lam[order], pops[order]
        prev = lam
        for k, lab in enumerate(labels):
            row = {
                "gamma_tip": float(gt),
                "branch": lab,
                "re_lambda": float(lam[k].real),
                "im_lambda": float(lam[k].imag),
            }
            for s, (m, n) in enumerate(eig.basis_states):
                row[f"pop_{m}{n}"] = float(pops[k, s])
            rows.append(row)
    return rows
