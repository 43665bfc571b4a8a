import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from kerrdimer.search import MAX_ITER, bisect_root, golden_section_minimize


@given(st.floats(min_value=-3.0, max_value=3.0))
def test_golden_finds_parabola_minimum(center):
    # localization of a smooth minimum with O(1) offset saturates near
    # sqrt(machine eps); ask only for what bisection of slopes can deliver
    res = golden_section_minimize(lambda x: (x - center) ** 2 + 1.0, -5.0, 5.0, tol=1e-10)
    assert res.x == pytest.approx(center, abs=1e-6)


def test_golden_handles_sqrt_kink():
    # the EP gap profile: V-shaped square-root minimum
    res = golden_section_minimize(lambda x: np.sqrt(abs(x - 1.7)), 0.0, 4.0, tol=1e-10)
    assert res.x == pytest.approx(1.7, abs=1e-8)


def test_golden_invalid_bracket():
    with pytest.raises(ValueError):
        golden_section_minimize(lambda x: x * x, 2.0, 1.0)


@given(st.floats(min_value=-0.9, max_value=0.9))
@example(5e-324)
@example(-5e-324)
def test_bisect_linear_root(root):
    res = bisect_root(lambda x: x - root, -1.0, 1.0, tol=1e-12)
    assert res.x == pytest.approx(root, abs=1e-10)


def test_bisect_requires_sign_change():
    with pytest.raises(ValueError):
        bisect_root(lambda x: x * x + 1.0, -1.0, 1.0)


def test_bisect_endpoint_root():
    res = bisect_root(lambda x: x, 0.0, 1.0)
    assert res.x == 0.0


def counting(f):
    def counted(x):
        counted.calls += 1
        return f(x)
    counted.calls = 0
    return counted


@pytest.mark.parametrize("search, f", [
    (golden_section_minimize, lambda x: (x - 0.3) ** 2),
    (bisect_root, lambda x: x - 0.3),
], ids=["golden", "bisect"])
def test_evaluations_per_search(search, f):
    # two endpoint evaluations, then one per iteration; the answer is the
    # bracket midpoint, which is not evaluated again
    f = counting(f)
    res = search(f, -1.0, 1.0, tol=1e-9)
    assert 0 < res.iterations < MAX_ITER
    assert f.calls == 2 + res.iterations
