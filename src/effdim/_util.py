"""Small shared helpers."""

from __future__ import annotations

import numpy as np


def fmt17(x: float) -> str:
    """Full-precision decimal float (17 significant digits, round-trips)."""
    return format(float(x), ".17g")


def logsumexp(a):
    """log(sum(exp(a))) over the last axis, each row bit for bit as
    scipy.special.logsumexp computes it for that row alone.

    With c copies of the row maximum a_max and s the sum of
    exp(a_i - a_max) over the rest, it is log1p(s / c) + log(c) + a_max;
    a non-finite result is replaced by the direct log(sum(exp(a))).  A
    1-D ``a`` gives a scalar, an (S, N) ``a`` one value per row.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.max(a, axis=-1, keepdims=True)
        is_max = a == a_max
        count = np.count_nonzero(is_max, axis=-1)
        s = np.sum(np.exp(np.where(is_max, -np.inf, a) - a_max), axis=-1)
        out = (np.log1p(np.where(s != 0, s / count, s)) + np.log(count)
               + a_max[..., 0])
        bad = ~np.isfinite(out)
        if bad.any():
            out = np.where(bad, np.log(np.sum(np.exp(a), axis=-1)), out)
        return out[()]
