"""The paper's activation functions, ReLU and sigmoid, with their first
derivatives; and softmax, which ``predict`` applies to a network's output
and no layer uses."""

from __future__ import annotations

from enum import IntEnum

import numpy as np

from .errors import ShapeError, UnsupportedError
from .tensor import F64, ONE, ZERO


class ActivationKind(IntEnum):
    # Values double as the on-disk tag in the model file; do not renumber.
    SIGMOID = 0
    RELU = 2


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # e = exp(-|z|) never overflows: 1 / (1 + e^-z) for z >= 0, e^z / (1 + e^z)
    # below. min(z, -z) rather than -|z| hands a NaN through with its sign.
    # The numerator exp(min(z, 0)) is exactly 1.0 for z >= 0 (-0.0 included)
    # and e itself below, from the same exp of the same input; it is a
    # cheaper select than np.where(z >= 0, 1.0, e), with the same bits.
    e = np.exp(np.minimum(z, -z))
    return np.exp(np.minimum(z, ZERO)) / (ONE + e)


def softmax(z: np.ndarray) -> np.ndarray:
    """Normalize the rank-1 vector ``z`` to probabilities."""
    z = np.asarray(z, dtype=F64)
    if z.ndim != 1:
        raise ShapeError(f"softmax expects rank 1, got rank {z.ndim}")
    # Max-subtraction changes nothing analytically but keeps exp finite.
    e = np.exp(z - np.max(z))
    return e / np.sum(e)


def apply(kind: ActivationKind, z: np.ndarray) -> np.ndarray:
    """Apply the activation elementwise."""
    z = np.asarray(z, dtype=F64)
    # init builds ReLU and sigmoid layers, most of them ReLU: test that first.
    if kind == ActivationKind.RELU:
        return np.maximum(ZERO, z)
    if kind == ActivationKind.SIGMOID:
        return _sigmoid(z)
    raise UnsupportedError(f"unknown activation {kind!r}")


def derivative(kind: ActivationKind, z: np.ndarray) -> np.ndarray:
    """Elementwise first derivative evaluated at the pre-activation ``z``.

    ReLU takes the right-hand branch at z == 0 (slope 1).
    """
    z = np.asarray(z, dtype=F64)
    if kind == ActivationKind.RELU:
        # The cast gives np.where(z >= 0, 1.0, 0.0)'s bits: 1.0 at +-0, 0.0 at NaN.
        return (z >= ZERO).astype(F64)
    if kind == ActivationKind.SIGMOID:
        s = _sigmoid(z)
        return s * (ONE - s)
    raise UnsupportedError(f"unknown activation {kind!r}")
