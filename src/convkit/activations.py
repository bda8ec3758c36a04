"""Elementwise activation functions and their first derivatives."""

from __future__ import annotations

from enum import IntEnum

import numpy as np

from .errors import ShapeError, UnsupportedError

LEAKY_SLOPE = 0.01


class ActivationKind(IntEnum):
    # Values double as the on-disk tag in the model file; do not renumber.
    SIGMOID = 0
    TANH = 1
    RELU = 2
    LEAKY_RELU = 3
    SOFTMAX = 4


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # e = exp(-|z|) never overflows: 1 / (1 + e^-z) for z >= 0, e^z / (1 + e^z)
    # below. min(z, -z) rather than -|z| hands a NaN through with its sign.
    # The numerator exp(min(z, 0)) is exactly 1.0 for z >= 0 (-0.0 included)
    # and e itself below, from the same exp of the same input; it is a
    # cheaper select than np.where(z >= 0, 1.0, e), with the same bits.
    e = np.exp(np.minimum(z, -z))
    return np.exp(np.minimum(z, 0.0)) / (1.0 + e)


def _softmax(z: np.ndarray) -> np.ndarray:
    # Max-subtraction changes nothing analytically but keeps exp finite.
    e = np.exp(z - np.max(z))
    return e / np.sum(e)


def apply(kind: ActivationKind, z: np.ndarray) -> np.ndarray:
    """Apply the activation elementwise (softmax normalizes the whole vector)."""
    z = np.asarray(z, dtype=np.float64)
    # init builds ReLU and sigmoid layers only, most of them ReLU: test those first.
    if kind == ActivationKind.RELU:
        return np.maximum(0.0, z)
    if kind == ActivationKind.SIGMOID:
        return _sigmoid(z)
    if kind == ActivationKind.TANH:
        return np.tanh(z)
    if kind == ActivationKind.LEAKY_RELU:
        return np.where(z >= 0, z, LEAKY_SLOPE * z)
    if kind == ActivationKind.SOFTMAX:
        if z.ndim != 1:
            raise ShapeError(f"softmax expects rank 1, got rank {z.ndim}")
        return _softmax(z)
    raise UnsupportedError(f"unknown activation {kind!r}")


def derivative(kind: ActivationKind, z: np.ndarray) -> np.ndarray:
    """Elementwise first derivative evaluated at the pre-activation ``z``.

    ReLU and leaky ReLU take the right-hand branch at z == 0 (slope 1).
    Softmax has no elementwise derivative; it is inference-only here.
    """
    z = np.asarray(z, dtype=np.float64)
    if kind == ActivationKind.RELU:
        # The cast gives np.where(z >= 0, 1.0, 0.0)'s bits: 1.0 at +-0, 0.0 at NaN.
        return (z >= 0).astype(np.float64)
    if kind == ActivationKind.SIGMOID:
        s = _sigmoid(z)
        return s * (1.0 - s)
    if kind == ActivationKind.TANH:
        t = np.tanh(z)
        return 1.0 - t * t
    if kind == ActivationKind.LEAKY_RELU:
        return np.where(z >= 0, 1.0, LEAKY_SLOPE)
    if kind == ActivationKind.SOFTMAX:
        raise UnsupportedError("softmax is inference-only; no elementwise derivative")
    raise UnsupportedError(f"unknown activation {kind!r}")
