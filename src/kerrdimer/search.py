"""Deterministic 1-D searches used for critical-point extraction."""

from __future__ import annotations

from dataclasses import dataclass

_INV_PHI = 0.6180339887498949  # (sqrt(5) - 1) / 2
MAX_ITER = 200  # iteration cap of both searches, far above what tol needs

__all__ = ["SearchResult", "golden_section_minimize", "bisect_root"]


@dataclass(frozen=True)
class SearchResult:
    x: float
    iterations: int


def golden_section_minimize(f, lo: float, hi: float, tol: float = 1e-9) -> SearchResult:
    """Minimize a unimodal function on [lo, hi] by golden-section search."""
    if not lo < hi:
        raise ValueError("need lo < hi")
    a, b = lo, hi
    x1 = b - _INV_PHI * (b - a)
    x2 = a + _INV_PHI * (b - a)
    f1, f2 = f(x1), f(x2)
    it = 0
    while (b - a) > tol and it < MAX_ITER:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_PHI * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_PHI * (b - a)
            f2 = f(x2)
        it += 1
    return SearchResult(x=0.5 * (a + b), iterations=it)


def bisect_root(f, lo: float, hi: float, tol: float = 1e-9) -> SearchResult:
    """Root of f on a sign-changing bracket [lo, hi] by bisection.

    Sides are chosen by comparing signs, not by the sign of a product,
    which underflows to zero for tiny |f|.
    """
    fa, fb = f(lo), f(hi)
    if fa == 0.0:
        return SearchResult(x=lo, iterations=0)
    if fb == 0.0:
        return SearchResult(x=hi, iterations=0)
    if (fa > 0) == (fb > 0):
        raise ValueError("bracket does not change sign")
    a, b = lo, hi
    it = 0
    while (b - a) > tol and it < MAX_ITER:
        m = 0.5 * (a + b)
        fm = f(m)
        if fm == 0.0:
            return SearchResult(x=m, iterations=it)
        if (fm > 0) != (fa > 0):
            b = m
        else:
            a, fa = m, fm
        it += 1
    return SearchResult(x=0.5 * (a + b), iterations=it)
