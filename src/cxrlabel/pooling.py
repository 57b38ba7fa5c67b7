"""Numeric kernel: pooling variants, balanced cross-entropy, heatmaps.

log-sum-exp pooling interpolates between average (r -> 0) and max
(r -> inf) pooling. The balanced cross-entropy weighs positive and
negative terms by batch label counts so sparse positives still carry
gradient. Heatmap composition projects a spatial feature map through
per-class prediction weights.
"""

from __future__ import annotations

import math

from cxrlabel.errors import (
    LOSS_NAMES,
    CxrLabelError,
    DegenerateBatch,
    DimMismatch,
    EmptyRegion,
    NonPositiveR,
)
from cxrlabel.lazy import np

# Scores are clamped to [EPS, 1-EPS] before any log.
CLAMP_EPS = 1e-7


def _region(values) -> tuple[np.ndarray, float, float]:
    """The cells of a pooling region as a flat float array, with their
    least and greatest values; one min/max pair also shows that every cell
    is finite, as NaN and +-inf carry through to one of them."""
    region = np.asarray(values, dtype=float).ravel()
    if region.size == 0:
        raise EmptyRegion("pooling region has no cells")
    lo, hi = region.min(), region.max()
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise CxrLabelError("pooling region contains non-finite values")
    return region, lo, hi


def lse_pool(values, r: float) -> float:
    """Stable shifted log-sum-exp pool over the region.

    Computes x* + (1/r) * log((1/S) * sum(exp(r * (x - x*)))) with
    x* = max(|x|) = |max(max x, -min x)|; every exponent is <= 0 because
    x <= max(|x|), so the sum never overflows.
    """
    if not r > 0:
        raise NonPositiveR(f"r must be > 0, got {r}")
    region, lo, hi = _region(values)
    # abs() turns the -0.0 of an all-zero region into the 0.0 max(|x|) is.
    shift = abs(max(hi, -lo))
    terms = region - shift
    np.multiply(terms, r, out=terms)
    np.exp(terms, out=terms)
    return float(shift + np.log(terms.sum() / region.size) / r)


def avg_pool(values) -> float:
    return float(np.mean(_region(values)[0]))


def max_pool(values) -> float:
    return float(_region(values)[2])


def _pair(y, f) -> tuple[np.ndarray, np.ndarray]:
    y_arr = np.asarray(y, dtype=float).ravel()
    f_arr = np.asarray(f, dtype=float).ravel()
    if y_arr.shape != f_arr.shape:
        raise DimMismatch(f"labels {y_arr.shape} vs scores {f_arr.shape}")
    if y_arr.size == 0:
        raise DegenerateBatch("empty batch")
    if not np.all((y_arr == 0) | (y_arr == 1)):
        raise CxrLabelError("labels must be 0/1")
    return y_arr, np.clip(f_arr, CLAMP_EPS, 1.0 - CLAMP_EPS)


def beta_weights(y) -> tuple[float, float]:
    """Per-batch balancing factors (beta_P, beta_N)."""
    y_arr = np.asarray(y, dtype=float).ravel()
    p = float(np.sum(y_arr == 1))
    n = float(np.sum(y_arr == 0))
    if p == 0 or n == 0:
        raise DegenerateBatch(f"batch needs both polarities, got |P|={p} |N|={n}")
    total = p + n
    return total / p, total / n


def _weighted_ce(y, f, beta_p: float, beta_n: float) -> float:
    positive = -np.sum(np.log(f[y == 1]))
    negative = -np.sum(np.log(1.0 - f[y == 0]))
    return float(beta_p * positive + beta_n * negative)


def wcel(y, f) -> float:
    """Balanced cross-entropy with beta_P = (|P|+|N|)/|P|, beta_N likewise."""
    y_arr, f_arr = _pair(y, f)
    beta_p, beta_n = beta_weights(y_arr)
    return _weighted_ce(y_arr, f_arr, beta_p, beta_n)


def cel(y, f) -> float:
    """Plain cross-entropy: the balanced form with unit weights."""
    y_arr, f_arr = _pair(y, f)
    return _weighted_ce(y_arr, f_arr, 1.0, 1.0)


def el(y, f) -> float:
    """Euclidean loss: sum of squared score errors."""
    y_arr, f_arr = _pair(y, f)
    return float(np.sum((f_arr - y_arr) ** 2))


def hl(y, f) -> float:
    """Hinge loss over labels/scores remapped to {-1, +1} margins."""
    y_arr, f_arr = _pair(y, f)
    margins = 1.0 - (2.0 * y_arr - 1.0) * (2.0 * f_arr - 1.0)
    return float(np.sum(np.maximum(0.0, margins)))


def wcel_gradient(y, f) -> np.ndarray:
    """Analytic d(loss)/d(score), elementwise over the flattened batch."""
    y_arr, f_arr = _pair(y, f)
    beta_p, beta_n = beta_weights(y_arr)
    return np.where(y_arr == 1, -beta_p / f_arr, beta_n / (1.0 - f_arr))


LOSSES = dict(zip(LOSS_NAMES, (cel, wcel, el, hl)))


def compose_heatmaps(act, w) -> np.ndarray:
    """Project an S x S x D activation map through D x C weights.

    out[i, j, c] = sum_d act[i, j, d] * w[d, c]
    """
    act_arr = np.asarray(act, dtype=float)
    w_arr = np.asarray(w, dtype=float)
    if act_arr.ndim != 3:
        raise DimMismatch(f"activation tensor must be 3-D, got {act_arr.ndim}-D")
    if w_arr.ndim != 2:
        raise DimMismatch(f"weights must be 2-D, got {w_arr.ndim}-D")
    if act_arr.shape[2] != w_arr.shape[0]:
        raise DimMismatch(
            f"inner dims disagree: D={act_arr.shape[2]} vs D={w_arr.shape[0]}"
        )
    if not (np.all(np.isfinite(act_arr)) and np.all(np.isfinite(w_arr))):
        raise CxrLabelError("non-finite values in composition inputs")
    return np.tensordot(act_arr, w_arr, axes=([2], [0]))
