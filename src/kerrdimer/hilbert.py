"""Two-mode truncated Fock space and elementary mode operators."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FockBasis",
    "ComplexOperator",
    "build_basis",
    "mode_operator",
    "mode1_moment",
]


@dataclass(frozen=True)
class FockBasis:
    """Ordered two-mode Fock basis |m, n>.

    States are sorted by ascending total excitation N = m + n, ties broken
    by ascending m, so serialized indices are stable across runs.
    """

    states: tuple[tuple[int, int], ...]
    _index: dict[tuple[int, int], int] = field(repr=False, compare=False, hash=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(self.states)})

    @property
    def size(self) -> int:
        return len(self.states)

    def index_of(self, m: int, n: int) -> int:
        return self._index[(m, n)]

    def __contains__(self, state: tuple[int, int]) -> bool:
        return state in self._index


@dataclass(frozen=True)
class ComplexOperator:
    """Dense complex matrix tagged with the basis it acts on."""

    basis: FockBasis
    data: np.ndarray

    def __post_init__(self):
        data = np.ascontiguousarray(self.data, dtype=complex)
        if data.shape != (self.basis.size, self.basis.size):
            raise ValueError(
                f"operator shape {data.shape} does not match basis size {self.basis.size}"
            )
        data.flags.writeable = False
        object.__setattr__(self, "data", data)


def build_basis(*, per_mode: tuple[int, int] | None = None,
                total: int | None = None) -> FockBasis:
    """Enumerate the truncated two-mode Fock basis.

    ``per_mode=(n1_max, n2_max)``, which must be given, keeps every state
    with m <= n1_max and n <= n2_max; ``total=N`` keeps, of those, only the
    states with m + n <= N (no cap when None or N >= n1_max + n2_max).
    """
    if per_mode is None or min(per_mode) < 0:
        raise ValueError(f"per-mode truncation must be (n1_max, n2_max) >= 0, got {per_mode!r}")
    if total is not None and total < 0:
        raise ValueError(f"total excitation cap must be >= 0, got {total!r}")
    n1_max, n2_max = per_mode
    cap = n1_max + n2_max if total is None else total
    states = sorted(((m, n) for m in range(n1_max + 1) for n in range(n2_max + 1)
                     if m + n <= cap),
                    key=lambda mn: (mn[0] + mn[1], mn[0]))
    return FockBasis(states=tuple(states))


@functools.cache
def mode_operator(basis: FockBasis, mode: int, kind: str) -> ComplexOperator:
    """Annihilation or number operator for one mode on the truncated basis.

    Matrix elements follow <m-1, n| a_1 |m, n> = sqrt(m) (and the analogue
    for mode 2); transitions leaving the truncated basis are dropped, the
    standard Fock-truncation convention. Results are cached per (basis,
    mode, kind) and shared between callers; their data is read-only.
    """
    if mode not in (1, 2):
        raise ValueError("mode must be 1 or 2")
    if kind not in ("annihilate", "number"):
        raise ValueError("kind must be 'annihilate' or 'number'")

    d = basis.size
    a = np.zeros((d, d), dtype=complex)
    for j, (m, n) in enumerate(basis.states):
        target = (m - 1, n) if mode == 1 else (m, n - 1)
        amp = m if mode == 1 else n
        if target in basis:
            a[basis.index_of(*target), j] = np.sqrt(amp)

    data = a if kind == "annihilate" else a.conj().T @ a
    return ComplexOperator(basis, data)


@functools.cache
def mode1_moment(basis: FockBasis, order: int) -> ComplexOperator:
    """Normal-ordered mode-1 moment a_1'^order a_1^order on the basis.

    The Kerr term is order 2, and g2 and g3 read orders 2 and 3. The product
    is taken left to right, and the result is cached per (basis, order) like
    ``mode_operator``; its data is read-only.
    """
    a1 = mode_operator(basis, 1, "annihilate").data
    return ComplexOperator(basis, functools.reduce(np.matmul, [a1.conj().T] * order + [a1] * order))
