"""Small shared helpers."""

from __future__ import annotations

import numpy as np


def fmt17(x: float) -> str:
    """Full-precision decimal float (17 significant digits, round-trips)."""
    return format(float(x), ".17g")


def logsumexp(a) -> np.float64:
    """log(sum(exp(a))), bit for bit as scipy.special.logsumexp computes it.

    With c copies of the maximum a_max and s the sum of exp(a_i - a_max)
    over the rest, it is log1p(s / c) + log(c) + a_max; a non-finite
    result is replaced by the direct log(sum(exp(a))).
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.max(a)
        is_max = a == a_max
        count = np.count_nonzero(is_max)
        s = np.sum(np.exp(np.where(is_max, -np.inf, a) - a_max))
        out = np.log1p(s / count if s else s) + np.log(count) + a_max
        return out if np.isfinite(out) else np.log(np.sum(np.exp(a)))
