import numpy as np
import pytest
from hypothesis import given, strategies as st

from kerrdimer.hilbert import build_basis, mode_operator


def test_total_truncation_examples():
    assert build_basis(total=0).states == ((0, 0),)
    assert build_basis(total=1).states == ((0, 0), (0, 1), (1, 0))
    assert build_basis(total=3).size == 10


def test_per_mode_truncation_size():
    assert build_basis(per_mode=(3, 3)).size == 16
    assert build_basis(per_mode=(5, 2)).size == 18


@given(st.integers(min_value=0, max_value=8))
def test_total_truncation_invariants(n_max):
    basis = build_basis(total=n_max)
    assert basis.size == (n_max + 1) * (n_max + 2) // 2
    # deterministic ordering: ascending N = m + n, then ascending m
    keys = [(m + n, m) for m, n in basis.states]
    assert keys == sorted(keys)
    # index_of is a bijection onto 0..size-1
    assert sorted(basis.index_of(m, n) for m, n in basis.states) == list(range(basis.size))


@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6))
def test_per_mode_truncation_invariants(n1, n2):
    basis = build_basis(per_mode=(n1, n2))
    assert basis.size == (n1 + 1) * (n2 + 1)
    keys = [(m + n, m) for m, n in basis.states]
    assert keys == sorted(keys)


def test_negative_truncation_rejected():
    with pytest.raises(ValueError):
        build_basis(total=-1)
    with pytest.raises(ValueError):
        build_basis(per_mode=(-1, 2))


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


def test_total_number_bounded_under_total_truncation():
    basis = build_basis(total=3)
    ntot = mode_operator(basis, 1, "number").data + mode_operator(basis, 2, "number").data
    assert np.allclose(ntot, np.diag(np.diag(ntot)))
    diag = np.real(np.diag(ntot))
    assert np.all(diag <= 3.0 + 1e-15)
    assert np.allclose(diag, [m + n for m, n in basis.states])


def test_operator_data_is_readonly():
    op = mode_operator(build_basis(total=2), 1, "annihilate")
    with pytest.raises(ValueError):
        op.data[0, 0] = 1.0


def test_truncation_rule_objects():
    with pytest.raises(ValueError):
        build_basis(total=2, per_mode=(2, 2))
    with pytest.raises(ValueError):
        build_basis()
