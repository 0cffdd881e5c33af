"""Reference losses and their analytic gradients.

Training heads are scored with three terms: cross-entropy over class
probabilities, mean squared error on raw quaternion components, and mean
squared error on the translation vector, combined as
``L = L_cls + lambda1 * L_quat + lambda2 * L_trans``.

The quaternion term is deliberately raw: q and -q encode the same
rotation, so identical rotations can score 4.0. ``hemisphere_align=True``
opts into flipping the prediction onto the target hemisphere first; it is
off by default to mirror the plain regression target.

Every loss has a closed-form gradient with respect to the prediction, and
``finite_diff_check`` compares a gradient against central differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import Quaternion, Translation

LOG_CLAMP = 1e-12
PROB_SUM_TOL = 1e-6


class DimensionMismatchError(ValueError):
    """Target and prediction vectors have different lengths."""


class NotOneHotError(ValueError):
    """Class target is not a one-hot vector."""


@dataclass(frozen=True, slots=True)
class LossWeights:
    lambda1: float = 1.0
    lambda2: float = 1.0

    def __post_init__(self) -> None:
        if not (self.lambda1 >= 0.0 and self.lambda2 >= 0.0):
            raise ValueError(f"loss weights must be >= 0, got ({self.lambda1}, {self.lambda2})")


def _check_class_vectors(y: np.ndarray, y_hat: np.ndarray) -> None:
    if y.shape != y_hat.shape or y.ndim != 1 or y.size == 0:
        raise DimensionMismatchError(f"expected equal 1-D shapes, got {y.shape} and {y_hat.shape}")
    if not (np.all((y == 0.0) | (y == 1.0)) and y.sum() == 1.0):
        raise NotOneHotError(f"target must be one-hot, got {y.tolist()}")
    if np.any(y_hat < 0.0) or np.any(y_hat > 1.0) or abs(float(y_hat.sum()) - 1.0) > PROB_SUM_TOL:
        raise ValueError(f"predicted probabilities must lie in [0, 1] and sum to 1, got {y_hat.tolist()}")


def cls_cross_entropy(y: np.ndarray, y_hat: np.ndarray) -> float:
    """Cross-entropy -sum(y * log(y_hat)) with logs clamped at 1e-12."""
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    _check_class_vectors(y, y_hat)
    return float(-np.sum(y * np.log(np.maximum(y_hat, LOG_CLAMP))))


def cls_cross_entropy_grad(y: np.ndarray, y_hat: np.ndarray) -> np.ndarray:
    """d/dy_hat of the cross-entropy: -y / y_hat (zero off the hot class)."""
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    _check_class_vectors(y, y_hat)
    return -y / np.maximum(y_hat, LOG_CLAMP)


def _aligned(q: Quaternion, q_hat: Quaternion, hemisphere_align: bool) -> Quaternion:
    if hemisphere_align and q.dot(q_hat) < 0.0:
        return Quaternion(-q_hat.w, -q_hat.x, -q_hat.y, -q_hat.z)
    return q_hat


def quat_mse(q: Quaternion, q_hat: Quaternion, hemisphere_align: bool = False) -> float:
    """Squared error ||q - q_hat||^2 over the four raw components."""
    q_hat = _aligned(q, q_hat, hemisphere_align)
    return ((q.w - q_hat.w) ** 2 + (q.x - q_hat.x) ** 2
            + (q.y - q_hat.y) ** 2 + (q.z - q_hat.z) ** 2)


def quat_mse_grad(q: Quaternion, q_hat: Quaternion, hemisphere_align: bool = False) -> np.ndarray:
    """d/dq_hat of quat_mse: 2 * (q_hat - q), after optional alignment."""
    aligned = _aligned(q, q_hat, hemisphere_align)
    grad = 2.0 * np.array([aligned.w - q.w, aligned.x - q.x,
                           aligned.y - q.y, aligned.z - q.z])
    if aligned is not q_hat:
        grad = -grad  # chain rule through the sign flip
    return grad


def trans_mse(t: Translation, t_hat: Translation) -> float:
    """Squared error ||t - t_hat||^2 over the three components."""
    return (t.x - t_hat.x) ** 2 + (t.y - t_hat.y) ** 2 + (t.z - t_hat.z) ** 2


def trans_mse_grad(t: Translation, t_hat: Translation) -> np.ndarray:
    """d/dt_hat of trans_mse: 2 * (t_hat - t)."""
    return 2.0 * np.array([t_hat.x - t.x, t_hat.y - t.y, t_hat.z - t.z])


def total_loss(cls_loss: float, quat_loss: float, trans_loss: float,
               weights: LossWeights = LossWeights()) -> float:
    """Weighted sum cls + lambda1 * quat + lambda2 * trans."""
    for name, value in (("cls", cls_loss), ("quat", quat_loss), ("trans", trans_loss)):
        if not math.isfinite(value):
            raise ValueError(f"{name} loss must be finite, got {value}")
    return cls_loss + weights.lambda1 * quat_loss + weights.lambda2 * trans_loss


def finite_diff_check(loss_fn: Callable[[np.ndarray], float],
                      grad_fn: Callable[[np.ndarray], np.ndarray],
                      point: np.ndarray,
                      epsilon: float = 1e-5) -> float:
    """Max gradient discrepancy against central differences at ``point``.

    Each component error is normalized by ``max(1, |analytic|, |numeric|)``,
    so the result reads as a relative error for O(1)-or-larger gradients
    and an absolute error near zero.
    """
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    point = np.asarray(point, dtype=np.float64)
    analytic = np.asarray(grad_fn(point), dtype=np.float64)
    if analytic.shape != point.shape:
        raise DimensionMismatchError(f"gradient shape {analytic.shape} != point shape {point.shape}")
    worst = 0.0
    for i in range(point.size):
        step = np.zeros_like(point)
        step[i] = epsilon
        numeric = float(loss_fn(point + step) - loss_fn(point - step)) / (2.0 * epsilon)
        scale = max(1.0, abs(numeric), abs(float(analytic[i])))
        worst = max(worst, abs(numeric - float(analytic[i])) / scale)
    return float(worst)
