"""Deterministic value formatting for CSV/JSON dataset output."""

from __future__ import annotations

import math
import numbers

__all__ = ["format_value"]


def format_value(v) -> str:
    """Shortest round-trip text for a cell; None becomes the empty string."""
    if isinstance(v, float):  # np.float64 too; its repr would name the type
        return repr(float(v))
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, numbers.Integral):
        return str(int(v))
    if isinstance(v, numbers.Real):
        x = float(v)
        if math.isnan(x):
            return "nan"
        return repr(x)
    if isinstance(v, numbers.Complex):
        return repr(complex(v))
    return str(v)
