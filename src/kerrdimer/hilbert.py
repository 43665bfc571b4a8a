"""Two-mode truncated Fock space and elementary mode operators."""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TotalTruncation",
    "PerModeTruncation",
    "FockBasis",
    "ComplexOperator",
    "build_basis",
    "mode_operator",
]


@dataclass(frozen=True)
class TotalTruncation:
    """Keep every state with m + n <= n_max."""

    n_max: int


@dataclass(frozen=True)
class PerModeTruncation:
    """Keep every state with m <= n1_max and n <= n2_max."""

    n1_max: int
    n2_max: int


@dataclass(frozen=True)
class FockBasis:
    """Ordered two-mode Fock basis |m, n> under a truncation rule.

    States are sorted by ascending total excitation N = m + n, ties broken
    by ascending m, so serialized indices are stable across runs.
    """

    truncation: TotalTruncation | PerModeTruncation
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

    def to_json(self) -> str:
        """Canonical serialization: JSON array of [m, n] pairs in basis order."""
        return json.dumps([[m, n] for m, n in self.states])


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

    def _check_same_basis(self, other: "ComplexOperator") -> None:
        if self.basis != other.basis:
            raise ValueError("operators act on different bases")

    def dag(self) -> "ComplexOperator":
        return ComplexOperator(self.basis, self.data.conj().T)

    def __add__(self, other: "ComplexOperator") -> "ComplexOperator":
        self._check_same_basis(other)
        return ComplexOperator(self.basis, self.data + other.data)

    def __sub__(self, other: "ComplexOperator") -> "ComplexOperator":
        self._check_same_basis(other)
        return ComplexOperator(self.basis, self.data - other.data)

    def __matmul__(self, other: "ComplexOperator") -> "ComplexOperator":
        self._check_same_basis(other)
        return ComplexOperator(self.basis, self.data @ other.data)

    def __mul__(self, scalar: complex) -> "ComplexOperator":
        return ComplexOperator(self.basis, self.data * scalar)

    __rmul__ = __mul__


def build_basis(
    truncation: TotalTruncation | PerModeTruncation | None = None,
    *,
    total: int | None = None,
    per_mode: tuple[int, int] | None = None,
) -> FockBasis:
    """Enumerate the truncated two-mode Fock basis.

    Either pass a truncation rule object, or use the ``total=N_max`` /
    ``per_mode=(n1_max, n2_max)`` shorthands.
    """
    if truncation is None:
        if (total is None) == (per_mode is None):
            raise ValueError("specify exactly one of total= or per_mode=")
        truncation = TotalTruncation(total) if total is not None else PerModeTruncation(*per_mode)

    if isinstance(truncation, TotalTruncation):
        if truncation.n_max < 0:
            raise ValueError("total truncation must be >= 0")
        states = [
            (m, n_tot - m)
            for n_tot in range(truncation.n_max + 1)
            for m in range(n_tot + 1)
        ]
    elif isinstance(truncation, PerModeTruncation):
        if truncation.n1_max < 0 or truncation.n2_max < 0:
            raise ValueError("per-mode truncation must be >= 0")
        states = [
            (m, n)
            for m in range(truncation.n1_max + 1)
            for n in range(truncation.n2_max + 1)
        ]
        states.sort(key=lambda mn: (mn[0] + mn[1], mn[0]))
    else:
        raise TypeError(f"unknown truncation rule: {truncation!r}")

    return FockBasis(truncation=truncation, states=tuple(states))


@functools.cache
def mode_operator(basis: FockBasis, mode: int, kind: str) -> ComplexOperator:
    """Ladder or number operator for one mode on the truncated basis.

    Matrix elements follow <m-1, n| a_1 |m, n> = sqrt(m) (and the analogue
    for mode 2); transitions leaving the truncated basis are dropped, the
    standard Fock-truncation convention. Results are cached per (basis,
    mode, kind) and shared between callers; their data is read-only.
    """
    if mode not in (1, 2):
        raise ValueError("mode must be 1 or 2")
    if kind not in ("annihilate", "create", "number"):
        raise ValueError("kind must be 'annihilate', 'create' or 'number'")

    d = basis.size
    a = np.zeros((d, d), dtype=complex)
    for j, (m, n) in enumerate(basis.states):
        target = (m - 1, n) if mode == 1 else (m, n - 1)
        amp = m if mode == 1 else n
        if target in basis:
            a[basis.index_of(*target), j] = np.sqrt(amp)

    if kind == "annihilate":
        data = a
    elif kind == "create":
        data = a.conj().T
    else:
        data = a.conj().T @ a
    return ComplexOperator(basis, data)
