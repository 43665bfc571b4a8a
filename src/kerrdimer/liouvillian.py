"""Lindblad superoperator, steady state, and Liouvillian EPs.

Vectorization is column-stacking throughout: vec(A X B) = (B^T kron A) vec(X),
so rho[r, c] lives at vec index c*d + r.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .hilbert import FockBasis, build_basis, mode_operator
from .model import MAX_MAGNITUDE, SystemParams, build_hamiltonian

__all__ = [
    "CSRMatrix",
    "Superoperator",
    "DensityMatrix",
    "LiouvillianSpectrum",
    "LepResult",
    "ResourceLimitError",
    "DegenerateSteadyStateError",
    "NumericalFailureError",
    "LepNotFoundError",
    "unvec",
    "check_size",
    "excitation_cap",
    "driven_basis",
    "start_cap",
    "build_liouvillian",
    "steady_state",
    "solve_points",
    "SolvedPoints",
    "coherence_sector_pair",
    "lep_locate",
]

# bases stay at most 64 states, so superoperators at most 4096 x 4096 (the
# full per-mode (7, 7) square, a test oracle only), where steady_state takes
# about 110 ms at one BLAS thread; README lists its cost on the other bases
MAX_HILBERT_DIM = 64
# per-mode Fock cutoffs of the driven master-equation solves. Their basis
# also caps m + n at max(c1, c2) + 2 (driven_basis), the ceiling: 30 of the
# 36 states of (5, 5), up to m + n = 7. Under weak drive each shell of m + n
# holds about Omega^2 / gamma_1'^2 of the one below, so a sweep solves at a
# lower cap that it picks and certifies per run (solve_points): 21 states up
# to m + n = 5 at the preset drive, the ceiling at the SI drive
DEFAULT_CUTOFF = (5, 5)

# LEP search: per-mode cutoff of the undriven generator, and the coalescence
# criteria of the refined minimum (gap in units of gamma_1', eigenmatrix overlap)
LEP_CUTOFF = (2, 2)
LEP_GAP_THRESHOLD = 1e-3
LEP_OVERLAP_THRESHOLD = 0.99
LEP_TOL = 1e-9  # golden-section tolerance on gamma_tip, in units of gamma_1'
# bound on a point's truncation estimate (_extension_error) at a certified
# excitation cap c, whose state is solved at c - 1 and corrected onto c: a
# tenth of north-star aim 2's 1e-12 relative to the ceiling. Over 3450 random
# 9-point runs (cutoffs (5, 5) and (7, 7), a third at a two- or three-photon
# resonance) it let through one run whose error lay above 1e-12 and the
# ceiling's own rounding noise, at thresholds from 2e-14 to 5e-13: 1.4e-11
# on p30 ~ 1.2e-14 at (7, 7), where an extended-precision ceiling shows every
# double solve 4e-12 to 2e-11 off, the ceiling too. A run starts at MIN_CAP
# at the lowest, a shell above shell 3, which holds the reported p03 .. p30
# and g3; its points are then solved up to shell 3
TRUNCATION_TOL = 1e-13
MIN_CAP = 4
# solve_points' worker tasks: chunks of at most CHUNK_POINTS points, each
# solved as near-equal stacks whose _SectorLU block buffers take at most
# STACK_BYTES (at least one point): a stack pays numpy's per-call work once,
# and small chunks leave the last worker less time idle. On a 2-core Xeon
# (2 MiB L2 a core) perfbench's fig2 sweep (121 points at cap 5) read, in
# ms, at chunks of at most 8, 10, 12 and 16 points: 218, 218, 225, 226 at
# 2 MiB; 211, 210, 219, 210 at 4; 210, 210, 207, 220 at 8; 211, 209, 205,
# 218 at 16, which stacks fig2's chunks as 8 does (224 at 16 points and
# 2 MiB in full stacks and a remainder), then solved at cap 5. At one BLAS
# thread a point solved at its cap took 1.52 ms at cap 5 in stacks of 8 MiB
# against 1.75 at 2 MiB, 2.65 against 2.68 at cap 6, and 3.24 against 3.49
# on the 30-state ceiling
CHUNK_POINTS = 12
STACK_BYTES = 1 << 23


class ResourceLimitError(RuntimeError):
    pass


class DegenerateSteadyStateError(RuntimeError):
    pass


class NumericalFailureError(RuntimeError):
    pass


class LepNotFoundError(RuntimeError):
    pass


def unvec(v: np.ndarray, d: int) -> np.ndarray:
    return np.asarray(v, dtype=complex).reshape((d, d), order="F")


@dataclass(frozen=True, eq=False)
class CSRMatrix:
    """Compressed sparse rows on numpy arrays: ``data[indptr[i]:indptr[i + 1]]``
    holds row i at the columns ``indices[indptr[i]:indptr[i + 1]]``."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]

    @property
    def nnz(self) -> int:
        return len(self.data)

    def count_nonzero(self) -> int:
        return int(np.count_nonzero(self.data))

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """The product with a vector or with the columns of a 2-D array."""
        x = np.asarray(x)
        if x.ndim == 2:
            return np.stack([self @ col for col in x.T], axis=1)
        out = np.zeros(self.shape[0], dtype=np.result_type(self.data, x))
        rows = np.flatnonzero(np.diff(self.indptr))
        if len(rows):
            # data first: a * b and b * a round apart, and * swaps a large temporary's operands
            out[rows] = np.add.reduceat(np.multiply(self.data, x[self.indices]), self.indptr[rows])
        return out


@dataclass(frozen=True)
class Superoperator:
    """Sparse (CSR) Liouvillian matrix acting on column-stacked density matrices."""

    basis: FockBasis
    data: CSRMatrix


@dataclass(frozen=True)
class DensityMatrix:
    """State over a FockBasis; Hermitian, unit trace, PSD within tolerance."""

    basis: FockBasis
    data: np.ndarray
    residual: float = 0.0

    def validate(self) -> "DensityMatrix":
        """Raise ValueError with an entry that is not finite, beyond 1e-10
        from Hermitian or from unit trace, or with an eigenvalue below -1e-8."""
        rho = self.data
        if not np.all(np.isfinite(rho)):
            raise ValueError("not finite")
        herm = np.max(np.abs(rho - rho.conj().T))
        if herm > 1e-10:
            raise ValueError(f"not Hermitian: max |rho - rho^+| = {herm:.3e}")
        tr = np.trace(rho)
        if abs(tr - 1.0) > 1e-10:
            raise ValueError(f"trace deviates from 1 by {abs(tr - 1.0):.3e}")
        lo = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min()
        if lo < -1e-8:
            raise ValueError(f"not PSD: min eigenvalue {lo:.3e}")
        return self

    def populations(self) -> dict[tuple[int, int], float]:
        diag = np.real(np.diag(self.data))
        return {s: float(diag[i]) for i, s in enumerate(self.basis.states)}

    def to_json(self) -> str:
        """Serialize with basis labels; entries as [re, im] pairs."""
        return json.dumps({
            "basis": [[m, n] for m, n in self.basis.states],
            "data": [[[z.real, z.imag] for z in row] for row in self.data],
            "residual": self.residual,
        })

    def mode1_marginal(self) -> np.ndarray:
        """P_m: probability of m photons in mode 1, any occupation of mode 2."""
        n_max = max(m for m, _ in self.basis.states)
        p = np.zeros(n_max + 1)
        for i, (m, _) in enumerate(self.basis.states):
            p[m] += self.data[i, i].real
        return p

    def expectation(self, op: np.ndarray) -> complex:
        return complex(np.trace(op @ self.data))


@dataclass
class LiouvillianSpectrum:
    """Tracked Liouvillian eigenvalue pair with its coalescence diagnostics."""

    eigenvalues: np.ndarray
    gap: float
    overlap: float


@dataclass(frozen=True)
class LepResult:
    """Located Liouvillian EP with its coalescence diagnostics, and the
    scan it was found on: each grid point's gamma_tip and coherence block
    (``_coherence_block``). The scan's rows (``grid_rows``) are computed
    from those blocks when first read."""

    gamma_tip: float
    gap: float
    overlap: float
    grid_gamma_tips: np.ndarray = field(repr=False, hash=False, compare=False)
    grid_blocks: list[tuple] = field(repr=False, hash=False, compare=False)

    @functools.cached_property
    def grid_rows(self) -> list[dict]:
        """Two rows per grid point, one per branch of the pair (as
        ``coherence_sector_pair`` computes it), tagged "a" and "b" by
        nearest-neighbour continuation from the first point."""
        from .spectral import match_branches  # here: the sweep workers load no spectral

        rows = []
        prev = None
        for gt, block in zip(self.grid_gamma_tips, self.grid_blocks):
            sp = _block_pair(*block)
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
        return rows


def excitation_cap(cutoff: tuple[int, int]) -> int:
    """Largest m + n of the driven basis at per-mode ``cutoff``: max(c1, c2)
    + 2, or c1 + c2 where that is smaller and the cap removes nothing."""
    return min(max(cutoff) + 2, sum(cutoff))


def driven_basis(cutoff: tuple[int, int]) -> FockBasis:
    """Basis of the driven master-equation solves at per-mode ``cutoff``: the
    states with m <= c1, n <= c2 and m + n <= ``excitation_cap(cutoff)``."""
    return build_basis(per_mode=cutoff, total=excitation_cap(cutoff))


def start_cap(shell_ratio: float, ceiling: int) -> int:
    """The excitation cap a run's solves start at, predicted from
    ``shell_ratio``, the largest ratio of the populations of the closed-form
    shells N + 1 and N (``analytic.shell_ratio``). If each shell holds that
    ratio of the one below, the first shell a cap c drops, c + 1, holds
    shell_ratio ** (c - 2) of shell 3, the smallest reported: the cap is the
    smallest c >= MIN_CAP where that is at most TRUNCATION_TOL, and at most
    ``ceiling``. A ratio of 1 or more, or NaN, gives the ceiling."""
    if not shell_ratio < 1.0:
        return ceiling
    cap = MIN_CAP
    while cap < ceiling and shell_ratio ** (cap - 2) > TRUNCATION_TOL:
        cap += 1
    return min(cap, ceiling)


def check_size(basis: FockBasis) -> None:
    """Raise ResourceLimitError when the basis is over the superoperator cap."""
    if basis.size > MAX_HILBERT_DIM:
        raise ResourceLimitError(
            f"basis size {basis.size} exceeds the superoperator cap {MAX_HILBERT_DIM}"
        )


class _Generator(NamedTuple):
    """The CSR pattern of every generator on one basis with one Hamiltonian
    variant, and what fills it: each entry's place in H for -i H rho and for
    i rho H, and the values of the unit-rate dissipators D[a_1] and D[a_2]."""

    indices: np.ndarray
    indptr: np.ndarray
    left: np.ndarray  # index of H[r, r'] in H.ravel(), d * d where the term has no entry
    right: np.ndarray  # index of H[c', c] in H.ravel(), d * d likewise
    diss: tuple[np.ndarray, np.ndarray]


@functools.cache
def _generator(basis: FockBasis, variant: str) -> _Generator:
    """The pattern of ``build_liouvillian`` with the Hamiltonian ``variant``
    on the basis, cached per basis and variant.

    It holds every entry that kron(1, H), kron(H^T, 1), kron(a_j^*, a_j),
    kron(1, n_j) or kron(n_j^T, 1) stores at some parameters. H is nonzero
    at most where one of its terms is; the terms are nonnegative matrices,
    so the Hamiltonian with every rate 1 has exactly that support. A sort
    drops the duplicate keys: np.unique would import numpy.ma, about 10 ms.
    """
    d = basis.size
    n = d * d
    unit = SystemParams(chi=1.0, J=1.0, gamma_1=0.0, gamma_ex=0.0, gamma_2=0.0,
                        gamma_tip=0.0, omega_drive_amp=1.0, omega_c=1.0, delta=1.0)
    hr, hc = np.nonzero(build_hamiltonian(unit, basis, variant).data)
    eye = np.arange(d)

    def kron(ra, ca, rb, cb):
        # vec row and column of each stored entry of kron(A, B), from those of A and B
        return ((ra[:, None] * d + rb).ravel(), (ca[:, None] * d + cb).ravel())

    # per term: its entries, and what each holds (an index into H.ravel() or a value)
    terms = [(kron(eye, eye, hr, hc), np.tile(hr * d + hc, d)),
             (kron(hc, hr, eye, eye), np.repeat(hr * d + hc, d))]
    for mode in (1, 2):
        a = mode_operator(basis, mode, "annihilate").data
        num = mode_operator(basis, mode, "number").data
        ar, ac = np.nonzero(a)
        nr, nc = np.nonzero(num)
        terms += [(kron(ar, ac, ar, ac), np.outer(a.conj()[ar, ac], a[ar, ac]).ravel()),
                  (kron(eye, eye, nr, nc), np.tile(num[nr, nc], d)),
                  (kron(nc, nr, eye, eye), np.repeat(num[nr, nc], d))]
    keys = [rows * n + cols for (rows, cols), _ in terms]
    pattern = np.sort(np.concatenate(keys))
    pattern = pattern[np.diff(pattern, prepend=-1) != 0]

    def spread(i: int, fill):
        out = np.full(len(pattern), fill)
        out[np.searchsorted(pattern, keys[i])] = terms[i][1]
        return out

    # (kron(a^*, a) - 0.5 kron(1, n)) - 0.5 kron(n^T, 1), entry by entry
    diss = tuple((spread(i, 0j) - 0.5 * spread(i + 1, 0j)) - 0.5 * spread(i + 2, 0j)
                 for i in (2, 5))
    gen = _Generator(pattern % n, np.searchsorted(pattern // n, np.arange(n + 1)),
                     spread(0, n), spread(1, n), diss)
    for arr in (*gen[:4], *diss):
        arr.flags.writeable = False
    return gen


def build_liouvillian(p: SystemParams, basis: FockBasis, driven: bool = True) -> Superoperator:
    """Lindblad generator L rho = -i[H, rho] + sum_j gamma_j' D[a_j] rho.

    driven=True uses the rotating-frame driven Hamiltonian; driven=False the
    lab-frame isolated one (the generator used for the LEP analysis). The
    entries fill a pattern fixed per basis (``_generator``) by gathers from
    the dense H, and each is summed as -i (H rho - rho H) + gamma_1' D[a_1]
    + gamma_2' D[a_2], left to right, as the sum of the sparse Kronecker
    products gives it; an entry that is zero at these parameters is stored.
    The LEP search shares the first two terms (``_fixed_part``).
    """
    check_size(basis)
    gen, fixed = _fixed_part(p, basis, "rotating_driven" if driven else "isolated")
    n = basis.size ** 2
    return Superoperator(basis=basis, data=CSRMatrix(
        fixed + p.gamma2_prime * gen.diss[1], gen.indices, gen.indptr, (n, n)))


def _fixed_part(p: SystemParams, basis: FockBasis, variant: str):
    """The ``variant`` generator's ``_generator`` on the basis, and the part
    of its data that gamma_2' leaves alone: -i (H rho - rho H) + gamma_1'
    D[a_1], the first two terms of ``build_liouvillian``'s sum."""
    gen = _generator(basis, variant)
    h = np.append(build_hamiltonian(p, basis, variant).data.ravel(), 0.0)
    return gen, -1j * (h[gen.left] - h[gen.right]) + p.gamma1_prime * gen.diss[0]


def _variant_of(basis: FockBasis, mat) -> str:
    """The Hamiltonian variant whose ``_generator`` pattern on the basis the
    CSR matrix ``mat`` holds; another pattern is a NumericalFailureError."""
    for variant in ("rotating_driven", "isolated"):
        gen = _generator(basis, variant)
        if ((mat.indices is gen.indices or np.array_equal(mat.indices, gen.indices))
                and (mat.indptr is gen.indptr or np.array_equal(mat.indptr, gen.indptr))):
            return variant
    raise NumericalFailureError("the sparsity pattern is not a build_liouvillian generator's")


def steady_state(sop: Superoperator) -> DensityMatrix:
    """Trace-normalized null vector of the generator: ``_steady_states`` on
    a stack of one. Its failure, a ``DegenerateSteadyStateError`` or the
    ``ValueError`` of ``DensityMatrix.validate``, is raised."""
    (rho,) = _steady_states(sop.basis, [sop.data])
    if isinstance(rho, Exception):
        raise rho
    return rho


def _steady_states(basis: FockBasis, mats: list, border=None):
    """The trace-normalized null vector of each generator of a stack on
    ``basis``: CSR matrices (``CSRMatrix`` or alike) on the pattern of the
    first, a ``build_liouvillian`` pattern (``_variant_of``).

    Solved through a bordered linear system (one row replaced by the trace
    constraint), factored by block elimination over the excitation-difference
    sectors of the vec index (``_SectorLU``: dense LAPACK solves of the
    k >= 0 blocks, one call per sector for the whole stack) and polished by
    one step of iterative refinement. A second bordered system with a
    different replaced row, solved by a Woodbury update from the same
    elimination and the same two-column solve, guards against a degenerate
    null space, which is reported rather than silently resolved. Each state
    is exactly Hermitian. Each matrix's own products (``@``) stay per point,
    so a point's numbers are those of its stack of one. An item is the
    point's ``DensityMatrix``, or the ``DegenerateSteadyStateError`` or
    ``ValueError`` its checks raised. A sector's LAPACK call that fails for
    any member fails the stack's, which is then solved point by point, so
    that each point keeps its own failure.

    ``border`` maps the unrefined states (P, n) to more right-hand sides,
    the refinement solve's second column; then the items come with their
    Hermitian solutions, None where the stack was solved point by point.
    """
    plan = _solver_plan(basis, _variant_of(basis, mats[0]))
    r1, r2 = plan.r1, plan.r2
    try:
        # z solves M1 z = [e_r1, e_r2]: the right-hand sides of M1 and M2,
        # and the Woodbury U; the elimination solves it as it factors
        lu = _SectorLU(plan, np.stack([lmat.data for lmat in mats]))
        z = lu.z
        # M1 z is L z with row r1 replaced by the trace of z
        lz = np.stack([lmat @ zp for lmat, zp in zip(mats, z)])
        tz = z.take(plan.diag, axis=1).sum(axis=1)
        # one refinement step: the elimination alone leaves ~1e-25 absolute
        # error, which is visible on three-photon populations of ~1e-15. The
        # residual is Hermitian up to rounding, and solve takes its Hermitian part.
        res = -lz[:, :, 0]
        res[:, r1] = 1.0 - tz[:, 0]
        res = 0.5 * (res + res.take(plan.tau, axis=1).conj())
        if border is not None:
            res = np.stack([res, border(z[:, :, 0])], axis=2)
        sol = lu.solve(res).reshape(len(mats), -1, 2 if border is not None else 1)
    except DegenerateSteadyStateError as exc:
        states = [exc] if len(mats) == 1 else [_steady_states(basis, [lmat])[0] for lmat in mats]
        return states if border is None else (states, None, None)
    # exactly Hermitian: solve leaves sector 0 as its LU gives it, since
    # symmetrized there the two null vectors of a degenerate lossless point
    # came out alike and the guard below missed it
    v1 = z[:, :, 0] + sol[:, :, 0]
    v1 = 0.5 * (v1 + v1.take(plan.tau, axis=1).conj())

    states = []
    for lmat, zp, lzp, tzp, v in zip(mats, z, lz, tz, v1):
        try:
            scale = float(np.max(np.abs(lmat.data), initial=0.0))
            residual = float(np.max(np.abs(lmat @ v)))
            if not np.all(np.isfinite(v)) or residual > 1e-8 * max(scale, 1.0):
                raise DegenerateSteadyStateError(
                    f"steady-state solve did not converge (residual {residual:.3e})"
                )
            # second bordered system M2 (row r1 restored, row r2 replaced) via a
            # rank-2 Woodbury update M2 = M1 + U V^T, V^T = [L[r1] - trace; trace - L[r2]]
            vtz = np.array([lzp[r1] - tzp, tzp - lzp[r2]])
            try:
                w = np.linalg.solve(np.eye(2, dtype=complex) + vtz, vtz[:, 1])
            except np.linalg.LinAlgError as exc:
                raise DegenerateSteadyStateError(
                    f"degeneracy-guard system is singular: {exc}"
                ) from exc
            v2 = zp[:, 1] - zp[:, 0] * w[0] - zp[:, 1] * w[1]
            if (not np.all(np.isfinite(v2))
                    or np.max(np.abs(v - v2)) > 1e-6 * max(np.max(np.abs(v)), 1.0)):
                raise DegenerateSteadyStateError(
                    "steady state is not unique: two trace-normalized null vectors differ"
                )
            rho = DensityMatrix(basis=basis, data=unvec(v, basis.size), residual=residual)
            states.append(rho.validate())
        except (DegenerateSteadyStateError, ValueError) as exc:
            states.append(exc)
    if border is None:
        return states
    dx = sol[:, :, 1]
    return states, 0.5 * (dx + dx.take(plan.tau, axis=1).conj()), lu


class _Plan(NamedTuple):
    """The steady-state solver's plan of one generator pattern: its bordered
    rows, the excitation-difference sectors of the vec index, and where the
    pattern's entries go in the blocks of M1."""

    r1: int  # the rows of L that the two bordered systems replace by the trace
    r2: int  # row: the diagonal entries of |0,0> and of another state; -1: none
    diag: np.ndarray  # vec indices of the diagonal
    pos: np.ndarray  # position of each vec index in its sector; -k takes its transpose's in k
    tau: np.ndarray  # vec index of the transpose, c*d + r -> r*d + c
    members: list  # vec indices of sector k = N(r) - N(c) = 0 .. K, ascending
    mirror: np.ndarray  # sector-0 position of each sector-0 transpose
    order: np.ndarray  # vec indices of sectors 0, 1 .. K, then of -1 .. -K
    shapes: list  # of the diagonal blocks M1[j, j], then of M1[j, j - 1]
    start: np.ndarray  # offset of each of those blocks in one buffer
    dest: np.ndarray  # buffer offset of each entry that lands in a dense block
    src: np.ndarray  # its index in the generator's data
    up_src: list  # M1[j, j + 1] row by row: indices into data, nnz if none
    up_cols: list  # and their columns in sector j + 1


@functools.cache
def _solver_plan(basis: FockBasis, variant: str) -> _Plan:
    """The ``_Plan`` of the ``variant`` generator's pattern on the basis,
    cached per basis and variant."""
    indices, indptr = _generator(basis, variant)[:2]
    d = basis.size
    i00 = basis.index_of(0, 0)
    alt = d - 1 if i00 != d - 1 else 0
    total = np.array([m + n for m, n in basis.states])
    return _sector_plan(indices, indptr, (total[None, :] - total[:, None]).ravel(),
                        np.arange(d * d).reshape(d, d).T.ravel(),
                        i00 * (d + 1), alt * (d + 1), np.arange(d) * (d + 1))


def _sector_plan(indices: np.ndarray, indptr: np.ndarray, k: np.ndarray, tau: np.ndarray,
                 r1: int = -1, r2: int = -1, diag: np.ndarray = np.arange(0)) -> _Plan:
    """The ``_Plan`` of a CSR pattern whose unknowns lie in sectors ``k``
    and transpose by ``tau``; r1 = -1 leaves it unbordered."""
    n = len(k)
    members = [np.flatnonzero(k == j) for j in range(k.max() + 1)]
    pos = np.empty(n, dtype=np.intp)
    for j, idx in enumerate(members):
        pos[idx] = np.arange(len(idx))
        if j:
            pos[tau[idx]] = pos[idx]
    mirror = pos[tau[members[0]]]

    rows = np.repeat(np.arange(n), np.diff(indptr))
    kr, kc = k[rows], k[indices]
    if np.any(np.abs(kr - kc) > 1):
        raise NumericalFailureError(
            "the generator couples excitation-difference sectors more than one apart"
        )
    # the k >= 0 entries of L, but for row r1
    entry = np.flatnonzero((kr >= 0) & (kc >= 0) & (rows != r1))
    kr, kc = kr[entry], kc[entry]
    pr, pc = pos[rows[entry]], pos[indices[entry]]

    # dense and row-major, side by side in one buffer: the diagonal blocks
    # M1[j, j] for j = 0 .. K, then the couplings M1[j, j - 1] for
    # j = 1 .. K; the couplings M1[j, j + 1] stay sparse
    sizes = [len(idx) for idx in members]
    kmax = len(sizes) - 1
    shapes = [(s, s) for s in sizes] + list(zip(sizes[1:], sizes[:-1]))
    start = np.cumsum([0] + [r * c for r, c in shapes])
    dense = kr >= kc
    slot = np.where(kr == kc, kr, kmax + kr)[dense]
    dest = start[slot] + pr[dense] * np.take(sizes, kc[dense]) + pc[dense]

    up_src, up_cols = [], []
    for j in range(kmax):
        sel = np.flatnonzero((kr == j) & (kc == j + 1))
        sel = sel[np.argsort(pr[sel], kind="stable")]
        count = np.bincount(pr[sel], minlength=sizes[j])
        width = count.max(initial=0)
        rank = np.arange(len(sel)) - np.repeat(np.cumsum(count) - count, count)
        src = np.full((sizes[j], width), len(indices))
        cols = np.zeros((sizes[j], width), dtype=np.intp)
        src[pr[sel], rank] = entry[sel]
        cols[pr[sel], rank] = pc[sel]
        up_src.append(src)
        up_cols.append(cols)
    return _Plan(r1, r2, diag, pos, tau, members, mirror,
                 np.concatenate(members + [tau[idx] for idx in members[1:]]),
                 shapes, start, dest, entry[dense], up_src, up_cols)


class _SectorLU:
    """Block elimination of the bordered generators M1 (row r1 replaced by
    the trace row) of a stack over the excitation-difference sectors: the
    rows of ``data`` hold their entries on the pattern of ``plan``
    (``_solver_plan``); on an unbordered plan, of the matrices, with no ``z``.

    Every term of the generator but the drive conserves photon number, so
    sector k of the vec index couples only to k and k +- 1; a pattern that
    couples sectors further apart is a ``NumericalFailureError``. M1 also
    commutes with rho -> rho^+, which maps sector k onto sector -k with
    conjugated entries. So sectors K .. 1 are eliminated into sector 0
    through their Schur complements S_j, and the k < 0 side, never formed,
    contributes the conjugate, index-transposed correction of the k > 0
    side. numpy has no reusable LU, so each solve with S_j is a LAPACK
    solve that factors it anew: the elimination gives it every right-hand
    side known then, the coupling M1[j, j - 1] and, in sector 0, the unit
    columns e_r1 and e_r2, whose solution is ``z``. ``solve`` factors the
    kept S_j once more. Every block carries the stack as its leading axis,
    so each sector's solve and product is one call for the whole stack,
    which LAPACK and BLAS run member by member as for a stack of one. A
    zero pivot in any member is a ``DegenerateSteadyStateError`` for the
    stack. ``solve`` takes right-hand sides (P, n) or (P, n, m) whose
    columns are Hermitian as d x d matrices; its solutions, like ``z``, hold
    the conjugate transpose of sector k in sector -k, and sector 0 as solved.
    Its products go column by column (BLAS gemv and gemm round apart), so at
    one BLAS thread a column's solution does not depend on the others.
    """

    def __init__(self, plan: _Plan, data: np.ndarray):
        self.plan = plan
        kmax = len(plan.members) - 1
        stack = len(data)
        buf = np.zeros((stack, plan.start[-1]), dtype=complex)
        buf[:, plan.dest] = data.take(plan.src, axis=1)
        blocks = [buf[:, lo:hi].reshape(stack, *shape) for lo, hi, shape in
                  zip(plan.start, plan.start[1:], plan.shapes)]
        if plan.r1 >= 0:
            blocks[0][:, plan.pos[plan.r1], plan.pos[plan.diag]] = 1.0  # the trace row
        vals = np.append(data, np.zeros((stack, 1)), axis=1)
        self.up = [(vals.take(src, axis=1), cols)  # M1[j, j + 1]
                   for src, cols in zip(plan.up_src, plan.up_cols)]
        self.s = blocks[:kmax + 1]  # the Schur complements S_j
        self.w = [None] * (kmax + 1)  # S_j^-1 M1[j, j - 1]
        for j in range(kmax, 0, -1):
            w = self.w[j] = self._solve(j, blocks[kmax + j])
            corr = self._couple(j - 1, w)
            if j == 1:
                corr += np.conjugate(corr[:, plan.mirror][:, :, plan.mirror])
            blocks[j - 1] -= corr
        if plan.r1 < 0:
            return
        # e_r1 and e_r2 lie in sector 0, so every t_j of their solution is 0
        rhs = np.zeros((stack, len(plan.members[0]), 2), dtype=complex)
        rhs[:, plan.pos[[plan.r1, plan.r2]], [0, 1]] = 1.0
        self.z = self._back_substitute(self._solve(0, rhs), [0] * (kmax + 1))

    def _solve(self, j: int, b: np.ndarray) -> np.ndarray:
        try:
            return np.linalg.solve(self.s[j], b)
        except np.linalg.LinAlgError:
            raise DegenerateSteadyStateError(
                f"bordered steady-state solve is singular: zero pivot "
                f"in excitation-difference sector {j}"
            ) from None

    def _couple(self, j: int, x: np.ndarray) -> np.ndarray:
        """M1[j, j + 1] @ x, a sum over the few entries of each row."""
        vals, cols = self.up[j]
        if not cols.shape[1]:
            return np.zeros((len(x), len(cols), x.shape[2]), dtype=complex)
        out = x.take(cols[:, 0], axis=1)
        out *= vals[:, :, 0, None]
        for i in range(1, cols.shape[1]):
            term = x.take(cols[:, i], axis=1)
            term *= vals[:, :, i, None]
            out += term
        return out

    def _back_substitute(self, x0: np.ndarray, t: list, by_column: bool = False) -> np.ndarray:
        """x from its sector-0 part x0 and t_j = S_j^-1 y_j for j >= 1."""
        parts = [x0]
        for j in range(1, len(t)):
            prod = (np.concatenate([self.w[j] @ parts[-1][..., i:i + 1]
                                    for i in range(x0.shape[2])], axis=2)
                    if by_column else self.w[j] @ parts[-1])
            parts.append(t[j] - prod)
        x = np.empty((len(x0), len(self.plan.pos), x0.shape[2]), dtype=complex)
        x[:, self.plan.order] = np.concatenate(
            parts + [np.conjugate(xk) for xk in parts[1:]], axis=1)
        return x

    def solve(self, b: np.ndarray) -> np.ndarray:
        plan = self.plan
        kmax = len(self.s) - 1
        cols = b.reshape(*b.shape[:2], -1)
        y = [cols.take(idx, axis=1) for idx in plan.members]
        t = [None] * (kmax + 1)  # S_j^-1 y_j
        for j in range(kmax, 0, -1):
            t[j] = self._solve(j, y[j])
            g = self._couple(j - 1, t[j])
            if j == 1:
                g += g.take(plan.mirror, axis=1).conj()
            y[j - 1] -= g
        return self._back_substitute(self._solve(0, y[0]), t, True).reshape(b.shape)


class SolvedPoints(NamedTuple):
    """``solve_points``' results in input order, and the excitation cap
    (largest m + n) of the basis they were solved on."""

    results: list
    cap: int


def solve_points(points, basis: FockBasis, reduce=None,
                 start_cap: int | None = None) -> SolvedPoints:
    """``(reduce(rho), None)`` per parameter set, in input order, where rho
    is the driven steady state on ``basis`` up to the returned cap (``reduce``
    None keeps rho).

    Without ``start_cap`` or ``reduce``, the cap is the largest m + n of
    ``basis``, the ceiling. With both, the cap starts at ``start_cap`` (at
    least ``MIN_CAP``, at most the ceiling). Below the ceiling each point is
    solved one shell lower and its state corrected onto the cap, and that
    state is reported and certified by a truncation estimate one shell
    above the cap (``_extended_states``, ``_extension_error``). If a point's
    estimate is over ``TRUNCATION_TOL``, or its solve or correction failed,
    every point is solved one shell up, in the same pool, until all pass; a
    cap at the ceiling is solved there, with no estimate. ``reduce``'s
    result must then be a number or a dict of numbers.

    A degenerate or invalid state (``DegenerateSteadyStateError`` or
    ``ValueError``, from the solve or from ``reduce``) gives ``(None,
    (class name, message))``; any other exception propagates, also from a
    worker, with its type and message, and a worker that dies raises a
    RuntimeError naming its exit status. The points are solved in worker
    processes (``workers.WorkerPool``: one per CPU this process may run on,
    or per CPU where the platform cannot tell; at most one per point, so
    none for no points) whose BLAS reads one thread. The worker tasks are
    near-equal chunks of consecutive points, as few as hold at most
    ``CHUNK_POINTS`` each in a multiple of the worker count, each solved per
    cap as near-equal stacks (``_solve_chunk``); a point's result is that of
    its stack of one, so the results depend neither on the worker count nor
    on the chunks, nor, for a BLAS that reads ``workers.BLAS_THREAD_VARS``,
    on the caller's thread count.
    ``reduce`` must pickle by reference to a module the workers can import
    from the caller's ``sys.path`` (not ``__main__``).
    """
    check_size(basis)
    # imported here: only master-equation commands start workers
    from .workers import WorkerPool

    ceiling = max(m + n for m, n in basis.states)
    if start_cap is None or reduce is None:
        cap = ceiling
    else:
        cap = min(max(start_cap, MIN_CAP), ceiling)
    if not points:
        return SolvedPoints([], cap)
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(cpus, len(points))
    # a multiple of the worker count, of near-equal chunks
    chunks = _split(points, workers * -(-len(points) // (workers * CHUNK_POINTS)))
    with WorkerPool(workers) as pool:
        while True:
            solved = [item for chunk in pool.map(chunks, basis, None if cap == ceiling else cap,
                                                  reduce)
                      for item in chunk]
            if cap == ceiling or all(err <= TRUNCATION_TOL for _, err in solved):
                return SolvedPoints([result for result, _ in solved], cap)
            cap += 1


def _solve_chunk(points, basis: FockBasis, cap: int | None, reduce) -> list:
    """``(result, estimate)`` per point of a chunk: its ``solve_points``
    result on ``basis`` up to m + n <= ``cap``, and its ``_extension_error``;
    with ``cap`` None, on all of ``basis``, and the estimate None. Below the
    ceiling a point is solved one shell lower, up to m + n <= cap - 1, and
    its result is that of the state ``_extended_states`` corrects onto
    ``cap``. A result is ``(reduce(rho), None)``, or ``(None, (class name,
    message))`` for a ``DegenerateSteadyStateError`` or ``ValueError`` of the
    solve, of the correction or of ``reduce``. Each point is factored once,
    in as few near-equal stacks as keep their block buffers (``_SectorLU``)
    within ``STACK_BYTES``, or of one point where a point alone takes more.
    The generators are built outside any ``try``: a fault there propagates."""
    sub = basis if cap is None else FockBasis(tuple(s for s in basis.states if sum(s) < cap))
    plans = [_solver_plan(sub, "rotating_driven"), *([] if cap is None else
                                                     _extension(basis, cap - 1)[5])]
    step = max(1, STACK_BYTES // (16 * max(plan.start[-1] for plan in plans)))
    solved = []
    for stack in _split(points, -(-len(points) // step)):
        mats = [build_liouvillian(p, sub).data for p in stack]
        if cap is None:
            solved += [(_reduced(state, reduce), None) for state in _steady_states(sub, mats)]
            continue
        for state, check in zip(*_extended_states(sub, basis, stack, mats)):
            result = _reduced(state, reduce)
            solved.append((result, _extension_error(result, _reduced(check, reduce))))
    return solved


def _split(points, count: int) -> list:
    """``points`` as ``count`` runs of consecutive points, near-equal in length."""
    bounds = [len(points) * i // count for i in range(count + 1)]
    return [points[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _reduced(state, reduce) -> tuple:
    """A state's result as ``_solve_chunk`` gives it; None stays None."""
    try:
        if isinstance(state, Exception):
            raise state
        return (state if reduce is None or state is None else reduce(state), None)
    except (DegenerateSteadyStateError, ValueError) as exc:
        return (None, (type(exc).__name__, str(exc)))


@functools.cache
def _extension(basis: FockBasis, low: int) -> tuple:
    """The bases of ``basis``' states up to m + n <= low + 1 and low + 2;
    the pairs of states of the second by level, the larger m + n of the two
    less ``low``, clipped to 0 .. 2: the vec indices of levels 0, 1 and 2,
    and of 0 and 1 on the first basis; the generator's blocks between
    levels, each as (data indices, columns, row pointers); the unbordered
    ``_Plan``s of the blocks (1, 1) and (2, 2); the diagonal's places in
    levels 1 and 2. A level couples only to itself and its neighbours. Cached."""
    ext = FockBasis(tuple(s for s in basis.states if sum(s) <= low + 2))
    d = ext.size
    total = np.array([m + n for m, n in ext.states])
    level = np.clip(np.maximum(total[None, :], total[:, None]).ravel() - low, 0, 2)
    # each pair's position within its level; the basis up to low is a prefix
    # of ext (states ascend in m + n), so level 0 is its vec
    pos = [np.where(level == lv, np.cumsum(level == lv) - 1, -1) for lv in range(3)]
    gen = _generator(ext, "rotating_driven")
    rows = np.repeat(np.arange(d * d), np.diff(gen.indptr))
    blocks = {}
    for r, c in ((1, 0), (1, 1), (0, 1), (2, 1), (2, 2), (1, 2)):
        src = np.flatnonzero((pos[r][rows] >= 0) & (pos[c][gen.indices] >= 0))
        blocks[r, c] = (src, pos[c][gen.indices[src]],
                        np.searchsorted(pos[r][rows[src]], np.arange(pos[r].max() + 2)))
    k = (total[None, :] - total[:, None]).ravel()
    tau = np.arange(d * d).reshape(d, d).T.ravel()
    plans = [_sector_plan(*blocks[lv, lv][1:], k[level == lv], pos[lv][tau][level == lv])
             for lv in (1, 2)]
    order = [np.flatnonzero(level == lv) for lv in range(3)]
    d1 = int(np.sum(total <= low + 1))
    low_order = np.concatenate(order[:2])
    return (FockBasis(ext.states[:d1]), ext, np.concatenate(order),
            low_order // d * d1 + low_order % d, blocks, plans,
            [pos[lv][np.arange(d) * (d + 1)][total == low + lv] for lv in (1, 2)])


def _extended_states(sub: FockBasis, basis: FockBasis, points, mats: list) -> tuple:
    """The steady states of a stack on ``sub``, the states of ``basis`` up to
    m + n <= c - 1, corrected onto cap c (validated; each the exception of
    its solve or validation, all a ``DegenerateSteadyStateError`` where the
    stack's solve or D failed), and their checks on cap c + 1 (unvalidated,
    None where the state or the check failed).

    The generator up to c + 1 holds those up to c and c - 1 as principal
    blocks; (i, j) is its block of ``_extension``'s levels i (rows) and j.
    With A the cap-(c - 1) generator, C = (1, 0), D = (1, 1), B = (0, 1):
    the state x, padded with zeros, leaves C x on level 1. The correction is
    y = -D^-1 C x (D keeps the drive) and dx from the bordered A dx = -B y,
    trace(dx) = -trace(y), the refinement solve's second column (``border``)
    from the unrefined x. (x + dx, y) leaves C dx on level 1 and (2, 1) y on
    level 2, which the check sweeps down with G = (2, 2) and the same D and
    A: e2 = -G^-1 (2, 1) y, e1 = -D^-1 (C dx + (1, 2) e2), and A e0 = -B e1
    with trace(e0) = -trace(e1) - trace(e2); it is (x + dx + e0, y + e1, e2)."""
    low = max(m + n for m, n in sub.states)
    ext1, ext, order, order1, blocks, plans, diags = _extension(basis, low)
    gens = [build_liouvillian(p, ext).data.data for p in points]
    r1 = _solver_plan(sub, "rotating_driven").r1
    lus, ys = [], []

    def product(r, c, x):
        src, cols, indptr = blocks[r, c]
        shape = (len(indptr) - 1, x.shape[1])
        return np.stack([CSRMatrix(g[src], cols, indptr, shape) @ xp for g, xp in zip(gens, x)])

    def eliminate(lv):
        return _SectorLU(plans[lv - 1], np.stack([g[blocks[lv, lv][0]] for g in gens]))

    def embed(on, at, parts):
        v = np.empty(on.size ** 2, dtype=complex)
        v[at] = np.concatenate(parts)
        return unvec(v, on.size)

    def border(x):
        lus.append(eliminate(1))
        y = -lus[0].solve(product(1, 0, x))
        ys.append(y)
        rhs = -product(0, 1, y)
        rhs[:, r1] = -y[:, diags[0]].sum(axis=1)
        return rhs

    states, dx, lu = _steady_states(sub, mats, border)
    if dx is None:
        failed = DegenerateSteadyStateError(f"no correction onto excitation cap {low + 1}: "
                                            "the stack's solve or its block D is singular")
        return [s if isinstance(s, Exception) else failed for s in states], [None] * len(states)
    y = ys[0]
    cdx = product(1, 0, dx)
    try:
        e2 = -eliminate(2).solve(product(2, 1, y))
        e1 = -lus[0].solve(cdx + product(1, 2, e2))
        rhs = -product(0, 1, e1)
        rhs[:, r1] = -(e1[:, diags[0]].sum(axis=1) + e2[:, diags[1]].sum(axis=1))
        e0 = lu.solve(rhs)
    except DegenerateSteadyStateError:
        e0 = None
    corrected, checks = [], []
    for i, state in enumerate(states):
        check = None
        if not isinstance(state, Exception):
            x = state.data.reshape(-1, order="F") + dx[i]
            rho = embed(ext1, order1, [x, y[i]])
            try:
                state = DensityMatrix(basis=ext1, data=0.5 * (rho + rho.conj().T),
                                      residual=float(np.max(np.abs(cdx[i])))).validate()
                if e0 is not None:
                    check = DensityMatrix(ext, embed(ext, order, [x + e0[i], y[i] + e1[i], e2[i]]))
            except ValueError as exc:
                state = exc
        corrected.append(state)
        checks.append(check)
    return corrected, checks


def _extension_error(result: tuple, check: tuple) -> float:
    """A point's truncation estimate at cap c from its reduced result there
    and at its check onto cap c + 1 (``_extended_states``): max |new - old|
    / |new| over the numbers, 0 where one is unchanged. Infinite where
    either failed or is None, or a number is not finite."""
    if result[1] or check[1] or check[0] is None:
        return float("inf")
    old, new = (np.array(list(r.values()) if isinstance(r, dict) else [r], dtype=float)
                for r in (result[0], check[0]))
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(new == old, 0.0, np.abs(new - old) / np.abs(new))
    err = float(np.max(rel, initial=0.0))
    return err if np.isfinite(err) else float("inf")


@functools.cache
def _coherence_plan(basis: FockBasis, variant: str) -> np.ndarray:
    """Where the columns |1,0><0,0| and |0,1><0,0| of the ``variant``
    generator on the basis hold their entries: the data indices of their
    2x2 block, row-major, then those of their other entries. Cached per basis."""
    gen = _generator(basis, variant)
    n = basis.size ** 2
    k = basis.index_of(0, 0) * basis.size + np.array([basis.index_of(1, 0), basis.index_of(0, 1)])
    rows = np.repeat(np.arange(n), np.diff(gen.indptr))
    # the dissipators' number terms store the diagonal, the hopping the rest
    block = np.searchsorted(rows * n + gen.indices, (k[:, None] * n + k).ravel())
    return np.concatenate([block, np.flatnonzero(np.isin(gen.indices, k) & ~np.isin(rows, k))])


def _coherence_block(vals: np.ndarray) -> tuple:
    """The coherence block [[a, b], [c, dd]] from the generator data at
    ``_coherence_plan``'s indices, and half the distance of its eigenvalues,
    root = sqrt(((a - dd) / 2)^2 + b c): (a, b, c, dd, root). The 2x2
    arithmetic stays on numpy scalars: numpy's array arithmetic rounds some
    blocks apart. Another nonzero entry of the block's columns is a
    NumericalFailureError."""
    if vals[4:].any():
        raise NumericalFailureError("the single-photon coherence block is not invariant "
                                    "under the generator (is it driven?)")
    a, b, c, dd = vals[:4]
    return a, b, c, dd, np.sqrt((0.5 * (a - dd)) ** 2 + b * c)


def _block_pair(a, b, c, dd, root) -> LiouvillianSpectrum:
    """The eigenvalues mean +- root of ``_coherence_block``'s 2x2 block, the
    gap |2 root| and the overlap of the two unit eigenvectors."""
    mean = 0.5 * (a + dd)
    vals = np.array([mean + root, mean - root])
    vecs = []
    for i, lam in enumerate(vals):
        # null vector of [[a - lam, b], [c, dd - lam]], built from
        # whichever row gives the longer one (the first of equal ones)
        u, w = np.array([b, lam - a]), np.array([lam - dd, c])
        nu, nw = np.linalg.norm(u), np.linalg.norm(w)
        v, nrm = (w, nw) if nw > nu else (u, nu)
        # a zero null vector: the block is a multiple of the identity
        vecs.append(np.eye(2, dtype=complex)[i] if nrm == 0.0 else v / nrm)
    return LiouvillianSpectrum(eigenvalues=vals, gap=float(abs(2 * root)),
                               overlap=float(abs(np.vdot(*vecs))))


def _block_gap(block: tuple) -> float:
    """The gap |2 root| of a ``_coherence_block``, as ``_block_pair`` gives it."""
    return float(abs(2 * block[4]))


def coherence_sector_pair(sop: Superoperator) -> LiouvillianSpectrum:
    """Eigenvalue pair of the one-excitation x vacuum coherence block.

    For the undriven generator span{|1,0><0,0|, |0,1><0,0|} is exactly
    invariant (the jump terms vanish on it), so the pair is read from the
    2x2 block of L: its eigenvalues are -i times the one-photon eigenvalues
    of the non-Hermitian Hamiltonian, and their coalescence defines the
    tracked LEP. The block's two columns are read from the CSR data of a
    ``build_liouvillian`` pattern (``_coherence_plan``); a nonzero entry
    outside the block is a NumericalFailureError. The eigenvalues come from
    the closed 2x2 formula (``_coherence_block``, ``_block_pair``, which
    ``lep_locate`` evaluates too), which stays exact at the EP where a
    general eigensolver splits the pair by about sqrt(machine eps).
    """
    idx = _coherence_plan(sop.basis, _variant_of(sop.basis, sop.data))
    return _block_pair(*_coherence_block(sop.data.data[idx]))


def _lep_evaluator(p: SystemParams, basis: FockBasis):
    """The LEP search's evaluation on the undriven generator on ``basis``:
    a function of gamma_tip that gives ``_coherence_block`` of the generator
    at ``p.with_(gamma_tip=gamma_tip)``, bit for bit. Only the entries at
    ``_coherence_plan``'s indices are summed, fixed + (gamma_2 + gamma_tip)
    D[a_2], from the fixed part (``_fixed_part``) taken once here."""
    gen, fixed = _fixed_part(p, basis, "isolated")
    idx = _coherence_plan(basis, "isolated")
    fixed, diss = fixed[idx], gen.diss[1][idx]
    return lambda gamma_tip: _coherence_block(fixed + (p.gamma_2 + gamma_tip) * diss)


def lep_locate(p: SystemParams, gamma_tip_range: tuple[float, float],
               grid: int) -> LepResult:
    """Locate the Liouvillian EP as the gap minimum of the tracked pair.

    Scans the undriven lab-frame generator on ``grid`` (at least 3) points
    over gamma_tip, requires an interior gap minimum, refines it by
    golden-section search to ``LEP_TOL`` gamma_1', and checks the
    coalescence diagnostics (gap below ``LEP_GAP_THRESHOLD`` gamma_1',
    eigenmatrix overlap above ``LEP_OVERLAP_THRESHOLD``).

    Each evaluation sums only the coherence block (``_lep_evaluator``).
    The grid scan and the golden-section steps take its gap alone, |2 root|
    as ``_block_pair`` computes it; only the refined minimum takes the whole
    pair (``_block_pair``). The result keeps the grid's blocks, so the
    eigenvalues, eigenvectors and overlap of its rows are computed only
    where ``LepResult.grid_rows`` is read. A grid point that
    ``SystemParams`` rejects is its ValueError, checked once per search.
    """
    from .search import golden_section_minimize  # here: the sweep workers load no search

    lo, hi = gamma_tip_range
    if not lo < hi:
        raise ValueError("gamma_tip_range must be increasing")
    if grid < 3:
        raise ValueError(f"grid must be an integer >= 3 to hold an interior gap "
                         f"minimum, got {grid}")
    gts = np.linspace(lo, hi, grid)
    # checked once: SystemParams' error at the first rejected point (or gts[0])
    p.with_(gamma_tip=float(gts[np.argmin((gts >= 0) & (gts <= MAX_MAGNITUDE))]))
    block_at = _lep_evaluator(p, build_basis(per_mode=LEP_CUTOFF))
    blocks = [block_at(float(gt)) for gt in gts]
    imin = int(np.argmin([_block_gap(block) for block in blocks]))
    if imin == 0 or imin == grid - 1:
        raise LepNotFoundError(
            f"no interior gap minimum in gamma_tip range [{lo}, {hi}]"
        )
    res = golden_section_minimize(
        lambda gt: _block_gap(block_at(gt)), float(gts[imin - 1]), float(gts[imin + 1]),
        tol=LEP_TOL * p.gamma1_prime)
    best = _block_pair(*block_at(res.x))
    if best.gap > LEP_GAP_THRESHOLD * p.gamma1_prime or best.overlap < LEP_OVERLAP_THRESHOLD:
        raise LepNotFoundError(
            f"gap minimum at gamma_tip = {res.x:.6f} fails the coalescence "
            f"criteria (gap {best.gap:.3e}, overlap {best.overlap:.6f})"
        )
    return LepResult(gamma_tip=res.x, gap=best.gap, overlap=best.overlap,
                     grid_gamma_tips=gts, grid_blocks=blocks)
