import numpy as np
import pytest
from hypothesis import given, strategies as st

from kerrdimer.hilbert import build_basis, mode_operator


def test_per_mode_truncation_size():
    assert build_basis(per_mode=(3, 3)).size == 16
    assert build_basis(per_mode=(5, 2)).size == 18


@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6))
def test_per_mode_truncation_invariants(n1, n2):
    basis = build_basis(per_mode=(n1, n2))
    assert basis.size == (n1 + 1) * (n2 + 1)
    # deterministic ordering: ascending N = m + n, then ascending m
    keys = [(m + n, m) for m, n in basis.states]
    assert keys == sorted(keys)
    # index_of is a bijection onto 0..size-1
    assert sorted(basis.index_of(m, n) for m, n in basis.states) == list(range(basis.size))


def test_negative_truncation_rejected():
    with pytest.raises(ValueError):
        build_basis(per_mode=(-1, 2))


@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6),
       st.integers(min_value=0, max_value=14))
def test_total_cap_intersects_per_mode(n1, n2, total):
    basis = build_basis(per_mode=(n1, n2), total=total)
    # exactly the per-mode states with m + n <= total, in the per-mode order
    per_mode = build_basis(per_mode=(n1, n2))
    assert basis.states == tuple(s for s in per_mode.states if sum(s) <= total)
    assert all(m <= n1 and n <= n2 and m + n <= total for m, n in basis.states)
    keys = [(m + n, m) for m, n in basis.states]
    assert keys == sorted(keys)
    if total >= n1 + n2:
        assert basis == per_mode
    assert build_basis(per_mode=(n1, n2), total=None) == per_mode


@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6),
       st.integers(max_value=-1))
def test_negative_total_rejected(n1, n2, total):
    with pytest.raises(ValueError, match="total excitation cap"):
        build_basis(per_mode=(n1, n2), total=total)


def test_annihilation_matrix_elements():
    # single-mode cutoff 2 in mode 1: elements sqrt(1), sqrt(2)
    basis = build_basis(per_mode=(2, 0))
    a = mode_operator(basis, 1, "annihilate").data
    i0, i1, i2 = (basis.index_of(m, 0) for m in range(3))
    assert a[i0, i1] == pytest.approx(1.0)
    assert a[i1, i2] == pytest.approx(np.sqrt(2))
    assert np.count_nonzero(a) == 2


def test_number_operator_diagonal():
    basis = build_basis(per_mode=(3, 2))
    for mode in (1, 2):
        n = mode_operator(basis, mode, "number").data
        expected = np.diag([float(s[mode - 1]) for s in basis.states])
        assert np.allclose(n, expected, atol=1e-15)


def test_commutator_truncation_artifact():
    n_max = 4
    basis = build_basis(per_mode=(n_max, 2))
    a = mode_operator(basis, 1, "annihilate").data
    comm = a @ a.conj().T - a.conj().T @ a
    expected = np.diag([1.0 if m < n_max else -float(n_max) for m, _ in basis.states])
    assert np.allclose(comm, expected, atol=1e-14)


def test_modes_commute_on_per_mode_basis():
    basis = build_basis(per_mode=(3, 3))
    a1 = mode_operator(basis, 1, "annihilate").data
    a2 = mode_operator(basis, 2, "annihilate").data
    assert np.max(np.abs(a1 @ a2 - a2 @ a1)) == 0.0


def test_operator_data_is_readonly():
    op = mode_operator(build_basis(per_mode=(2, 2)), 1, "annihilate")
    with pytest.raises(ValueError):
        op.data[0, 0] = 1.0


def test_truncation_rule_objects():
    with pytest.raises(ValueError):
        build_basis()
