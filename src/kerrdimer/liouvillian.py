"""Lindblad superoperator, steady state, and Liouvillian EPs.

Vectorization is column-stacking throughout: vec(A X B) = (B^T kron A) vec(X),
so rho[r, c] lives at vec index c*d + r.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import warnings
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve
from scipy.linalg.blas import zgemm

from .hilbert import FockBasis, build_basis, mode_operator
from .model import SystemParams, build_hamiltonian
from .search import golden_section_minimize
from .spectral import match_branches

__all__ = [
    "Superoperator",
    "DensityMatrix",
    "LiouvillianSpectrum",
    "LepResult",
    "ResourceLimitError",
    "DegenerateSteadyStateError",
    "NumericalFailureError",
    "LepNotFoundError",
    "vec",
    "unvec",
    "check_size",
    "excitation_cap",
    "driven_basis",
    "build_liouvillian",
    "steady_state",
    "solve_points",
    "coherence_sector_pair",
    "lep_locate",
]

# bases stay at most 64 states, so superoperators at most 4096 x 4096 (the
# full per-mode (7, 7) square, a test oracle only). steady_state factors
# dense blocks of one excitation-difference sector each, at most 344
# unknowns there (about 80 ms a solve at one BLAS thread), 289 on validate's
# reference, the 49-state driven basis of cutoff (7, 7) (2401 unknowns,
# about 35 ms), and 132 on the 30-state default driven basis (900, about 7 ms)
MAX_HILBERT_DIM = 64
# per-mode Fock cutoffs of the driven master-equation solves. Their basis
# also caps m + n at max(c1, c2) + 2 (driven_basis): under weak drive each
# photon costs about Omega^2 / gamma_1'^2 in population, so the 30 states of
# (5, 5) up to m + n = 7 give every reported column within 1e-14 relative of
# all 36, up to |5,5> with 10 photons, at the preset and at the SI drive
DEFAULT_CUTOFF = (5, 5)

# LEP search: per-mode cutoff of the undriven generator, and the coalescence
# criteria of the refined minimum (gap in units of gamma_1', eigenmatrix overlap)
LEP_CUTOFF = (2, 2)
LEP_GAP_THRESHOLD = 1e-3
LEP_OVERLAP_THRESHOLD = 0.99
LEP_TOL = 1e-9  # golden-section tolerance on gamma_tip, in units of gamma_1'
# pinned to 1 while solve_points' workers start
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class ResourceLimitError(RuntimeError):
    pass


class DegenerateSteadyStateError(RuntimeError):
    pass


class NumericalFailureError(RuntimeError):
    pass


class LepNotFoundError(RuntimeError):
    pass


def vec(rho: np.ndarray) -> np.ndarray:
    return np.asarray(rho, dtype=complex).reshape(-1, order="F")


def unvec(v: np.ndarray, d: int) -> np.ndarray:
    return np.asarray(v, dtype=complex).reshape((d, d), order="F")


@dataclass(frozen=True)
class Superoperator:
    """Sparse (CSR) Liouvillian matrix acting on column-stacked density matrices."""

    basis: FockBasis
    data: sparse.csr_matrix

    @property
    def dim(self) -> int:
        return self.basis.size


@dataclass(frozen=True)
class DensityMatrix:
    """State over a FockBasis; Hermitian, unit trace, PSD within tolerance."""

    basis: FockBasis
    data: np.ndarray
    residual: float = 0.0

    def validate(self, hermiticity_tol: float = 1e-10, trace_tol: float = 1e-10,
                 psd_floor: float = -1e-8) -> "DensityMatrix":
        rho = self.data
        herm = np.max(np.abs(rho - rho.conj().T))
        if herm > hermiticity_tol:
            raise ValueError(f"not Hermitian: max |rho - rho^+| = {herm:.3e}")
        tr = np.trace(rho)
        if abs(tr - 1.0) > trace_tol:
            raise ValueError(f"trace deviates from 1 by {abs(tr - 1.0):.3e}")
        lo = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min()
        if lo < psd_floor:
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
    """Located Liouvillian EP with its coalescence diagnostics."""

    gamma_tip: float
    gap: float
    overlap: float
    grid_rows: list[dict] = field(hash=False, compare=False)


@functools.cache
def _dissipators(basis: FockBasis) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
    """Unit-rate D[a_1] and D[a_2] on the basis, in sparse form."""
    eye = sparse.identity(basis.size, dtype=complex, format="csr")
    out = []
    for mode in (1, 2):
        a = sparse.csr_matrix(mode_operator(basis, mode, "annihilate").data)
        n = sparse.csr_matrix(mode_operator(basis, mode, "number").data)
        out.append((sparse.kron(a.conj(), a) - 0.5 * sparse.kron(eye, n)
                    - 0.5 * sparse.kron(n.T, eye)).tocsr())
    return tuple(out)


def excitation_cap(cutoff: tuple[int, int]) -> int:
    """Largest m + n of the driven basis at per-mode ``cutoff``: max(c1, c2)
    + 2, or c1 + c2 where that is smaller and the cap removes nothing."""
    return min(max(cutoff) + 2, sum(cutoff))


def driven_basis(cutoff: tuple[int, int]) -> FockBasis:
    """Basis of the driven master-equation solves at per-mode ``cutoff``: the
    states with m <= c1, n <= c2 and m + n <= ``excitation_cap(cutoff)``."""
    return build_basis(per_mode=cutoff, total=excitation_cap(cutoff))


def check_size(basis: FockBasis) -> None:
    """Raise ResourceLimitError when the basis is over the superoperator cap."""
    if basis.size > MAX_HILBERT_DIM:
        raise ResourceLimitError(
            f"basis size {basis.size} exceeds the superoperator cap {MAX_HILBERT_DIM}"
        )


def _unitary_and_mode1_loss(p: SystemParams, basis: FockBasis,
                            driven: bool) -> sparse.csr_matrix:
    """-i[H, .] + gamma_1' D[a_1]: the generator without its gamma_tip term."""
    d = basis.size
    h = build_hamiltonian(p, basis, "rotating_driven" if driven else "isolated").data
    # assembled through sparse Kronecker products (the factors are nearly
    # diagonal) and kept in CSR form
    hs = sparse.csr_matrix(h)
    eye = sparse.identity(d, dtype=complex, format="csr")
    return (-1j * (sparse.kron(eye, hs) - sparse.kron(hs.T, eye))
            + p.gamma1_prime * _dissipators(basis)[0])


# the undriven part is shared along an LEP scan, which varies only gamma_tip;
# callers key it on gamma_tip = 0 and never modify the returned matrix. The
# bound keeps a long coupling grid (one entry per J) from piling up entries.
_undriven_part = functools.lru_cache(maxsize=64)(_unitary_and_mode1_loss)


def build_liouvillian(p: SystemParams, basis: FockBasis, driven: bool = True) -> Superoperator:
    """Lindblad generator L rho = -i[H, rho] + sum_j gamma_j' D[a_j] rho.

    driven=True uses the rotating-frame driven Hamiltonian; driven=False the
    lab-frame isolated one (the generator used for the LEP analysis). On the
    undriven path only gamma_2' D[a_2] is summed anew per gamma_tip; the sum
    keeps its left-to-right order, so every entry is what a full assembly gives.
    """
    check_size(basis)
    part = (_unitary_and_mode1_loss(p, basis, True) if driven
            else _undriven_part(p.with_(gamma_tip=0.0), basis, False))
    lind = part + p.gamma2_prime * _dissipators(basis)[1]
    return Superoperator(basis=basis, data=lind.tocsr())


def steady_state(sop: Superoperator) -> DensityMatrix:
    """Trace-normalized null vector of the generator.

    Solved through a bordered linear system (one row replaced by the trace
    constraint), factored by block elimination over the excitation-difference
    sectors of the vec index (``_SectorLU``: dense LU of the k >= 0 blocks)
    and polished by one step of iterative refinement. A second bordered
    system with a different replaced row, solved by a Woodbury update from
    the same factorization and the same two-column solve, guards against a
    degenerate null space, which is reported rather than silently resolved.
    The returned state is exactly Hermitian.
    """
    d = sop.dim
    n = d * d
    lmat = sop.data
    i00 = sop.basis.index_of(0, 0)
    r1 = i00 * d + i00
    alt = d - 1 if i00 != d - 1 else 0
    r2 = alt * d + alt

    diag = np.arange(d) * (d + 1)  # vec indices of the diagonal
    # e_r1 and e_r2: the right-hand sides of M1 and M2, and the Woodbury U
    u = np.zeros((n, 2), dtype=complex)
    u[r1, 0] = 1.0
    u[r2, 1] = 1.0
    lu = _SectorLU(sop, r1)
    tau = lu.sectors.tau
    z = lu.solve(u)
    # M1 z is L z with row r1 replaced by the trace of z
    lz = lmat @ z
    tz = z[diag].sum(axis=0)
    # one refinement step: the factor alone leaves ~1e-25 absolute error,
    # which is visible on three-photon populations of ~1e-15. The residual
    # is Hermitian up to rounding, and solve takes its Hermitian part.
    res = -lz[:, 0]
    res[r1] = 1.0 - tz[0]
    v1 = z[:, 0] + lu.solve(0.5 * (res + res[tau].conj()))
    # exactly Hermitian: solve leaves sector 0 as its LU gives it, since
    # symmetrized there the two null vectors of a degenerate lossless point
    # came out alike and the guard below missed it
    v1 = 0.5 * (v1 + v1[tau].conj())
    scale = float(abs(lmat).max())
    residual = float(np.max(np.abs(lmat @ v1)))
    if not np.all(np.isfinite(v1)) or residual > 1e-8 * max(scale, 1.0):
        raise DegenerateSteadyStateError(
            f"steady-state solve did not converge (residual {residual:.3e})"
        )

    # second bordered system M2 (row r1 restored, row r2 replaced) via a
    # rank-2 Woodbury update M2 = M1 + U V^T, V^T = [L[r1] - trace; trace - L[r2]]
    vtz = np.array([lz[r1] - tz, tz - lz[r2]])
    try:
        w = np.linalg.solve(np.eye(2, dtype=complex) + vtz, vtz[:, 1])
    except np.linalg.LinAlgError as exc:
        raise DegenerateSteadyStateError(
            f"degeneracy-guard system is singular: {exc}"
        ) from exc
    v2 = z[:, 1] - z[:, 0] * w[0] - z[:, 1] * w[1]
    if (not np.all(np.isfinite(v2))
            or np.max(np.abs(v1 - v2)) > 1e-6 * max(np.max(np.abs(v1)), 1.0)):
        raise DegenerateSteadyStateError(
            "steady state is not unique: two trace-normalized null vectors differ"
        )

    rho = DensityMatrix(basis=sop.basis, data=unvec(v1, d), residual=residual)
    return rho.validate()


class _Sectors(NamedTuple):
    """Excitation-difference sectors of the vec index on one basis."""

    k: np.ndarray  # sector k = N(r) - N(c) of each vec index c*d + r
    pos: np.ndarray  # position in its sector; -k takes its transpose's in k
    tau: np.ndarray  # vec index of the transpose, c*d + r -> r*d + c
    members: list  # vec indices of sector k = 0 .. K, ascending
    mirror: np.ndarray  # sector-0 position of each sector-0 transpose


@functools.cache
def _sectors(basis: FockBasis) -> _Sectors:
    """The sector maps of the vec index on the basis, cached per basis."""
    d = basis.size
    total = np.array([m + n for m, n in basis.states])
    k = (total[None, :] - total[:, None]).ravel()
    tau = np.arange(d * d).reshape(d, d).T.ravel()
    members = [np.flatnonzero(k == j) for j in range(total.max() - total.min() + 1)]
    pos = np.empty(d * d, dtype=np.intp)
    for j, idx in enumerate(members):
        pos[idx] = np.arange(len(idx))
        if j:
            pos[tau[idx]] = pos[idx]
    return _Sectors(k, pos, tau, members, pos[tau[members[0]]])


class _SectorLU:
    """Factor of the bordered generator M1 (row r1 replaced by the trace
    row) by block elimination over the excitation-difference sectors.

    Every term of the generator but the drive conserves photon number, so
    sector k of the vec index couples only to k and k +- 1; an entry that
    couples sectors further apart is a ``NumericalFailureError``. M1 also
    commutes with rho -> rho^+, which maps sector k onto sector -k with
    conjugated entries. So sectors K .. 1 are eliminated into sector 0 by
    dense LU of their Schur complements, and the k < 0 side, never formed,
    contributes the conjugate, index-transposed correction of the k > 0
    side. A zero pivot is a ``DegenerateSteadyStateError``. ``solve`` takes
    right-hand sides whose columns are Hermitian as d x d matrices; its
    solutions hold the conjugate transpose of sector k in sector -k, and
    sector 0 as solved.
    """

    def __init__(self, sop: Superoperator, r1: int):
        sec = self.sectors = _sectors(sop.basis)
        d = sop.dim
        lmat = sop.data
        rows = np.repeat(np.arange(d * d), np.diff(lmat.indptr))
        kr, kc = sec.k[rows], sec.k[lmat.indices]
        if np.any(np.abs(kr - kc) > 1):
            raise NumericalFailureError(
                "the generator couples excitation-difference sectors more than one apart"
            )
        # the k >= 0 entries of L, but for row r1
        keep = (kr >= 0) & (kc >= 0) & (rows != r1)
        kr, kc, vals = kr[keep], kc[keep], lmat.data[keep]
        pr, pc = sec.pos[rows[keep]], sec.pos[lmat.indices[keep]]

        # dense and column-major, side by side in one buffer: the diagonal
        # blocks M1[j, j] for j = 0 .. K, then the couplings M1[j, j - 1]
        # for j = 1 .. K; the couplings M1[j, j + 1] stay sparse
        sizes = [len(idx) for idx in sec.members]
        kmax = len(sizes) - 1
        shapes = [(s, s) for s in sizes] + list(zip(sizes[1:], sizes[:-1]))
        start = np.cumsum([0] + [r * c for r, c in shapes])
        dense = kr >= kc
        slot = np.where(kr == kc, kr, kmax + kr)[dense]
        buf = np.zeros(start[-1], dtype=complex)
        np.add.at(buf, start[slot] + pc[dense] * np.take(sizes, kr[dense]) + pr[dense],
                  vals[dense])
        blocks = [buf[lo:hi].reshape(c, r).T
                  for lo, hi, (r, c) in zip(start, start[1:], shapes)]
        blocks[0][sec.pos[r1], sec.pos[np.arange(d) * (d + 1)]] = 1.0  # the trace row

        def coupling(j: int) -> sparse.csr_matrix:
            # rows stay in ascending order: pos is ascending in each sector
            sel = (kr == j) & (kc == j + 1)
            indptr = np.zeros(sizes[j] + 1, dtype=np.intp)
            np.cumsum(np.bincount(pr[sel], minlength=sizes[j]), out=indptr[1:])
            return sparse.csr_matrix((vals[sel], pc[sel], indptr), shape=(sizes[j], sizes[j + 1]))

        self.up = [coupling(j) for j in range(kmax)]  # M1[j, j + 1]
        self.lu = [None] * (kmax + 1)  # of the Schur complements S_j
        self.w = [None] + blocks[kmax + 1:]  # M1[j, j - 1], then S_j^-1 M1[j, j - 1]
        with warnings.catch_warnings():
            # a zero pivot is reported below, not as a LinAlgWarning
            warnings.simplefilter("ignore", LinAlgWarning)
            for j in range(kmax, -1, -1):
                lu = self.lu[j] = lu_factor(blocks[j], overwrite_a=True, check_finite=False)
                if np.any(lu[0].diagonal() == 0.0):
                    raise DegenerateSteadyStateError(
                        f"bordered steady-state solve is singular: zero pivot "
                        f"in excitation-difference sector {j}"
                    )
                if j:
                    w = self.w[j] = lu_solve(lu, self.w[j], overwrite_b=True,
                                             check_finite=False)
                    corr = self.up[j - 1] @ w
                    if j == 1:
                        corr += corr[np.ix_(sec.mirror, sec.mirror)].conj()
                    blocks[j - 1] -= corr

    def solve(self, b: np.ndarray) -> np.ndarray:
        sec = self.sectors
        kmax = len(self.lu) - 1
        cols = b.reshape(len(b), -1)
        y = [cols[idx] for idx in sec.members]
        t = [None] * (kmax + 1)  # S_j^-1 y_j
        for j in range(kmax, 0, -1):
            t[j] = lu_solve(self.lu[j], y[j], check_finite=False)
            g = self.up[j - 1] @ t[j]
            if j == 1:
                g += g[sec.mirror].conj()
            y[j - 1] -= g
        x = np.empty_like(cols)
        xk = x[sec.members[0]] = lu_solve(self.lu[0], y[0], check_finite=False)
        for j in range(1, kmax + 1):
            xk = t[j] - zgemm(1.0, self.w[j], xk)
            x[sec.members[j]] = xk
            x[sec.tau[sec.members[j]]] = xk.conj()
        return x.reshape(b.shape)


def solve_points(points, basis: FockBasis, reduce=None) -> list:
    """``(reduce(rho), None)`` per parameter set, in input order, where rho
    is the driven steady state on ``basis`` (``reduce`` None keeps rho).

    A degenerate or invalid state (``DegenerateSteadyStateError`` or
    ``ValueError``, from the solve or from ``reduce``) gives ``(None,
    (class name, message))``; any other exception propagates. The points
    are solved in spawned workers (one per CPU this process may run on, or
    per CPU where the platform cannot tell; at most one per point) whose
    BLAS is pinned to one thread, so the results depend neither on the
    worker count nor, for a BLAS that reads the pinned variables, on the
    caller's thread count. ``reduce`` must be picklable, and a script that
    calls this needs an ``if __name__ == "__main__":`` guard.
    """
    check_size(basis)
    # imported here: only master-equation commands start a pool
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(cpus, len(points))
    with _one_blas_thread(), ProcessPoolExecutor(workers, mp_context=get_context("spawn")) as pool:
        return list(pool.map(_solve_point, points, repeat(basis), repeat(reduce)))


def _solve_point(p: SystemParams, basis: FockBasis, reduce):
    """One ``solve_points`` result; the generator is built outside the ``try``."""
    sop = build_liouvillian(p, basis)
    try:
        rho = steady_state(sop)
        return (rho if reduce is None else reduce(rho)), None
    except (DegenerateSteadyStateError, ValueError) as exc:
        return None, (type(exc).__name__, str(exc))


@contextlib.contextmanager
def _one_blas_thread():
    """Pin the BLAS thread variables to 1 in ``os.environ`` for the block;
    on exit each gets its previous value back, or is removed if it was unset."""
    saved = {name: os.environ.get(name) for name in BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def coherence_sector_pair(sop: Superoperator) -> LiouvillianSpectrum:
    """Eigenvalue pair of the one-excitation x vacuum coherence block.

    For the undriven generator span{|1,0><0,0|, |0,1><0,0|} is exactly
    invariant (the jump terms vanish on it), so the pair is read from the
    2x2 block of L: its eigenvalues are -i times the one-photon eigenvalues
    of the non-Hermitian Hamiltonian, and their coalescence defines the
    tracked LEP. The eigenvalues come from the closed 2x2 formula, which
    stays exact at the EP where a general eigensolver splits the pair by
    about sqrt(machine eps).
    """
    d = sop.dim
    basis = sop.basis
    i00 = basis.index_of(0, 0)
    k = [i00 * d + basis.index_of(1, 0), i00 * d + basis.index_of(0, 1)]
    unit = np.zeros((d * d, 2))
    unit[k, [0, 1]] = 1.0
    cols = sop.data @ unit  # exact: every other product is a zero
    (a, b), (c, dd) = cols[k]
    cols[k] = 0.0
    if np.any(cols != 0.0):
        raise NumericalFailureError(
            "the single-photon coherence block is not invariant under the "
            "generator (is it driven?)"
        )
    mean = 0.5 * (a + dd)
    root = np.sqrt((0.5 * (a - dd)) ** 2 + b * c)
    vals = np.array([mean + root, mean - root])

    def eigvec(i: int) -> np.ndarray:
        # null vector of [[a - lam, b], [c, dd - lam]], built from
        # whichever row gives the longer one
        lam = vals[i]
        v = max((np.array([b, lam - a]), np.array([lam - dd, c])),
                key=np.linalg.norm)
        nrm = np.linalg.norm(v)
        if nrm == 0.0:  # the block is a multiple of the identity
            return np.eye(2, dtype=complex)[i]
        return v / nrm

    overlap = abs(np.vdot(eigvec(0), eigvec(1)))
    return LiouvillianSpectrum(eigenvalues=vals, gap=float(abs(2 * root)),
                               overlap=float(overlap))


def lep_locate(p: SystemParams, gamma_tip_range: tuple[float, float],
               grid: int) -> LepResult:
    """Locate the Liouvillian EP as the gap minimum of the tracked pair.

    Scans the undriven lab-frame generator on ``grid`` (at least 3) points
    over gamma_tip, requires an interior gap minimum, refines it by
    golden-section search to ``LEP_TOL`` gamma_1', and checks the
    coalescence diagnostics (gap below ``LEP_GAP_THRESHOLD`` gamma_1',
    eigenmatrix overlap above ``LEP_OVERLAP_THRESHOLD``).
    """
    lo, hi = gamma_tip_range
    if not lo < hi:
        raise ValueError("gamma_tip_range must be increasing")
    if grid < 3:
        raise ValueError(f"grid must be an integer >= 3 to hold an interior gap "
                         f"minimum, got {grid}")
    basis = build_basis(per_mode=LEP_CUTOFF)

    def pair_at(gt: float) -> LiouvillianSpectrum:
        sop = build_liouvillian(p.with_(gamma_tip=gt), basis, driven=False)
        return coherence_sector_pair(sop)

    gts = np.linspace(lo, hi, grid)
    rows = []
    gaps = np.empty(grid)
    prev = None
    for i, gt in enumerate(gts):
        sp = pair_at(float(gt))
        gaps[i] = sp.gap
        pair = sp.eigenvalues
        if prev is not None:  # nearest-neighbor continuation of branch tags
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
        raise LepNotFoundError(
            f"no interior gap minimum in gamma_tip range [{lo}, {hi}]"
        )
    res = golden_section_minimize(
        lambda gt: pair_at(gt).gap, float(gts[imin - 1]), float(gts[imin + 1]),
        tol=LEP_TOL * p.gamma1_prime)
    best = pair_at(res.x)
    if best.gap > LEP_GAP_THRESHOLD * p.gamma1_prime or best.overlap < LEP_OVERLAP_THRESHOLD:
        raise LepNotFoundError(
            f"gap minimum at gamma_tip = {res.x:.6f} fails the coalescence "
            f"criteria (gap {best.gap:.3e}, overlap {best.overlap:.6f})"
        )
    return LepResult(gamma_tip=res.x, gap=best.gap, overlap=best.overlap, grid_rows=rows)
