"""Loss functions over prediction/label vectors.

Only cross-entropy has an analytic gradient here; the others are
metrics. ``t`` below is the vector length.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import DomainError, ShapeError
from .tensor import F64, ONE

# Clamp bound for cross-entropy logs and divisions; log(0) never happens.
CE_EPS = 1e-12
# The clamp's bounds and ce_grad's -1, read-only 0-d arrays like tensor.ONE.
CE_LO = np.array(CE_EPS)
CE_HI = np.array(1.0 - CE_EPS)
MINUS_ONE = np.array(-1.0)
CE_LO.flags.writeable = CE_HI.flags.writeable = MINUS_ONE.flags.writeable = False


class LossKind(Enum):
    MSE = "mse"
    MSLE = "msle"
    L2 = "l2"
    L1 = "l1"
    MAE = "mae"
    MAPE = "mape"
    CROSS_ENTROPY = "cross_entropy"


def _check_pair(yhat: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    yhat = np.asarray(yhat, dtype=F64)
    y = np.asarray(y, dtype=F64)
    if yhat.ndim != 1 or y.ndim != 1:
        raise ShapeError("loss expects rank-1 prediction and label vectors")
    if yhat.shape != y.shape:
        raise ShapeError(f"length mismatch: {yhat.shape[0]} vs {y.shape[0]}")
    if yhat.shape[0] < 1:
        raise ShapeError("loss needs at least one component")
    return yhat, y


def _label_mask(y: np.ndarray) -> np.ndarray:
    """``y == 1.0``, after checking that every label is exactly 0 or 1.

    The check compares counts: NaN, +-inf and every value other than +-0
    and 1 are nonzero, so the counts differ exactly when some label is
    neither 0 nor 1."""
    mask = y == ONE
    if np.count_nonzero(y) != np.count_nonzero(mask):
        raise DomainError("cross-entropy labels must be exactly 0 or 1")
    return mask


def loss(kind: LossKind, yhat: np.ndarray, y: np.ndarray) -> float:
    """Scalar loss between predictions ``yhat`` and labels ``y``."""
    yhat, y = _check_pair(yhat, y)
    t = y.shape[0]
    if kind == LossKind.CROSS_ENTROPY:
        mask = _label_mask(y)
        yc = np.minimum(np.maximum(yhat, CE_LO), CE_HI)
        # One log per component: the other label's term is +-0 * a finite
        # log, so dropping it leaves every term's bits unchanged. Negating
        # the sum, not each log, is exact: the pairwise sum is sign-symmetric.
        return -float(np.log(np.where(mask, yc, ONE - yc)).sum()) / t
    if kind == LossKind.MSE:
        return float(np.sum((y - yhat) ** 2) / t)
    if kind == LossKind.MSLE:
        if np.any(y <= -1.0) or np.any(yhat <= -1.0):
            raise DomainError("MSLE needs all values > -1")
        return float(np.sum((np.log(y + 1.0) - np.log(yhat + 1.0)) ** 2) / t)
    if kind == LossKind.L2:
        return float(np.sum((y - yhat) ** 2))
    if kind == LossKind.L1:
        return float(np.sum(np.abs(y - yhat)))
    if kind == LossKind.MAE:
        return float(np.sum(np.abs(y - yhat)) / t)
    if kind == LossKind.MAPE:
        if np.any(y == 0.0):
            raise DomainError("MAPE is undefined when a label is zero")
        return float(np.sum(np.abs((y - yhat) / y)) * 100.0 / t)
    raise DomainError(f"unknown loss kind {kind!r}")


def ce_grad(yhat: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of the cross-entropy loss with respect to each prediction.

    Component i is (1/t) * (-y_i/yhat_i + (1 - y_i)/(1 - yhat_i)) with
    yhat clamped away from 0 and 1 before the divisions. With a 0/1 label
    one of the two terms is +-0 and the other finite and nonzero, so each
    component is the other term alone, bit for bit.
    """
    yhat, y = _check_pair(yhat, y)
    mask = _label_mask(y)
    t = y.shape[0]
    yc = np.minimum(np.maximum(yhat, CE_LO), CE_HI)
    return np.where(mask, MINUS_ONE / yc, ONE / (ONE - yc)) / t
