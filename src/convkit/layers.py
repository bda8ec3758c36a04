"""Structural layers: convolution, max pooling, and dense, with forward
passes that produce traces and backward passes that consume them.

Conventions fixed here once:

* Convolution is the cross-correlation form: the kernel slides without
  index reversal, ``preact[p, i, j] = sum_{c,u,v} K[p,c,u,v] *
  Ipad[c, i*s+u, j*s+v] + b[p]``. The accumulation runs in ascending
  (c, u, v) order with the bias added last, so results are bit-identical
  to a naive nested loop.
* The kernel gradient ``dK[p, c, u, v]`` is one pairwise ``np.sum`` per
  tap over its h1*w1 products ``grad[p] * Ipad[c, u:u+h1, v:v+w1]``,
  laid out contiguously in row-major (i, j) order.
* Dense weights are (n_out, n_in) with z = W a + b.
* Max-pool ties break to the first maximum in row-major window order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor
from .activations import ActivationKind, apply, derivative
from .errors import GeometryError, ShapeError, UnsupportedError


@dataclass(frozen=True)
class ConvGeometry:
    """Input extents, kernel extents and sliding parameters of a conv layer."""

    in_h: int
    in_w: int
    in_c: int
    k_h: int
    k_w: int
    n_kernels: int
    stride: int = 1
    pad: int = 0

    def __post_init__(self):
        for name in ("in_h", "in_w", "in_c", "k_h", "k_w", "n_kernels", "stride"):
            if getattr(self, name) < 1:
                raise GeometryError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.pad < 0:
            raise GeometryError(f"pad must be >= 0, got {self.pad}")
        conv_output_dims(self)  # raises if the sliding-window arithmetic breaks


@dataclass(frozen=True)
class PoolGeometry:
    """Square pooling window and its stride."""

    window: int
    stride: int

    def __post_init__(self):
        if self.window < 1 or self.stride < 1:
            raise GeometryError(
                f"pool window/stride must be >= 1, got {self.window}/{self.stride}"
            )


def conv_output_dims(g: ConvGeometry) -> tuple[int, int, int]:
    """Output (height, width, depth) of a convolution layer.

    Height is (in_h + 2*pad - k_h)/stride + 1 and must be integral;
    likewise width. Depth equals the kernel count.
    """
    span_h = g.in_h + 2 * g.pad - g.k_h
    span_w = g.in_w + 2 * g.pad - g.k_w
    if span_h < 0 or span_w < 0:
        raise GeometryError(
            f"kernel {g.k_h}x{g.k_w} exceeds padded input "
            f"{g.in_h + 2 * g.pad}x{g.in_w + 2 * g.pad}"
        )
    if span_h % g.stride or span_w % g.stride:
        raise GeometryError(
            f"conv dims not integral: ({g.in_h}+2*{g.pad}-{g.k_h}) and "
            f"({g.in_w}+2*{g.pad}-{g.k_w}) must divide by stride {g.stride}"
        )
    return span_h // g.stride + 1, span_w // g.stride + 1, g.n_kernels


def pool_output_dims(h1: int, w1: int, d1: int, g: PoolGeometry) -> tuple[int, int, int]:
    """Output (height, width, depth) of a pooling layer; depth is preserved."""
    span_h = h1 - g.window
    span_w = w1 - g.window
    if span_h < 0 or span_w < 0:
        raise GeometryError(f"pool window {g.window} exceeds input {h1}x{w1}")
    if span_h % g.stride or span_w % g.stride:
        raise GeometryError(
            f"pool dims not integral: ({h1}-{g.window}) and ({w1}-{g.window}) "
            f"must divide by stride {g.stride}"
        )
    return span_h // g.stride + 1, span_w // g.stride + 1, d1


@dataclass
class KernelBank:
    """Convolution filters with one scalar bias each, plus their geometry."""

    kernels: np.ndarray  # (n_kernels, in_c, k_h, k_w)
    biases: np.ndarray  # (n_kernels,)
    geometry: ConvGeometry

    def __post_init__(self):
        self.kernels = np.asarray(self.kernels, dtype=np.float64)
        self.biases = np.asarray(self.biases, dtype=np.float64)
        g = self.geometry
        want = (g.n_kernels, g.in_c, g.k_h, g.k_w)
        if self.kernels.shape != want:
            raise ShapeError(f"kernels shape {self.kernels.shape} != {want}")
        if self.biases.shape != (g.n_kernels,):
            raise ShapeError(f"biases shape {self.biases.shape} != ({g.n_kernels},)")


@dataclass
class DenseLayer:
    """Fully connected layer: weights (n_out, n_in), biases (n_out,)."""

    weights: np.ndarray
    biases: np.ndarray
    activation: ActivationKind

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.biases = np.asarray(self.biases, dtype=np.float64)
        if self.weights.ndim != 2 or self.biases.ndim != 1:
            raise ShapeError("dense layer expects rank-2 weights and rank-1 biases")
        if self.weights.shape[0] != self.biases.shape[0]:
            raise ShapeError(
                f"bias length {self.biases.shape[0]} != n_out {self.weights.shape[0]}"
            )

    @property
    def n_in(self) -> int:
        return self.weights.shape[1]

    @property
    def n_out(self) -> int:
        return self.weights.shape[0]


@dataclass
class ForwardTrace:
    """Per-layer cache consumed by the matching backward pass.

    ``input`` is the layer's input as seen in forward; ``preact`` is the
    pre-activation (conv and dense only); ``argmax_rows``/``argmax_cols``
    are the absolute winner coordinates per pooled output (pool only).
    """

    input: np.ndarray
    preact: np.ndarray | None = None
    argmax_rows: np.ndarray | None = None
    argmax_cols: np.ndarray | None = None


def _pad_image(image: np.ndarray, pad: int) -> np.ndarray:
    if pad == 0:
        return image
    return np.pad(image, ((0, 0), (pad, pad), (pad, pad)))


def conv_forward(
    image: np.ndarray, bank: KernelBank, activation: ActivationKind
) -> tuple[np.ndarray, np.ndarray, ForwardTrace]:
    """Slide the kernel bank over the (channels, H, W) image.

    Returns the pre-activation feature maps, the activated maps, and the
    trace caching the input image and pre-activation.
    """
    image = np.asarray(image, dtype=np.float64)
    g = bank.geometry
    if image.shape != (g.in_c, g.in_h, g.in_w):
        raise ShapeError(f"image shape {image.shape} != {(g.in_c, g.in_h, g.in_w)}")
    h1, w1, d1 = conv_output_dims(g)
    padded = _pad_image(image, g.pad)
    s = g.stride
    preact = np.zeros((d1, h1, w1))
    for c in range(g.in_c):
        for u in range(g.k_h):
            for v in range(g.k_w):
                window = padded[c, u : u + (h1 - 1) * s + 1 : s,
                                v : v + (w1 - 1) * s + 1 : s]
                preact += bank.kernels[:, c, u, v, None, None] * window
    preact += bank.biases[:, None, None]
    act = apply(activation, preact)
    return preact, act, ForwardTrace(input=image, preact=preact)


def maxpool_forward(
    act: np.ndarray, g: PoolGeometry
) -> tuple[np.ndarray, ForwardTrace]:
    """Keep the maximum of each window, remembering where it came from."""
    act = np.asarray(act, dtype=np.float64)
    if act.ndim != 3:
        raise ShapeError(f"maxpool expects rank 3, got rank {act.ndim}")
    d1, h1, w1 = act.shape
    h2, w2, d2 = pool_output_dims(h1, w1, d1, g)
    s, k = g.stride, g.window
    # One plane per window offset, stacked in row-major (du, dv) order so
    # argmax's first-maximum rule is exactly the tie-break contract.
    planes = np.empty((k * k, d2, h2, w2))
    for du in range(k):
        for dv in range(k):
            planes[du * k + dv] = act[:, du : du + (h2 - 1) * s + 1 : s,
                                      dv : dv + (w2 - 1) * s + 1 : s]
    flat_win = np.argmax(planes, axis=0)
    pooled = np.take_along_axis(planes, flat_win[None], axis=0)[0]
    base_r = np.arange(h2)[None, :, None] * s
    base_c = np.arange(w2)[None, None, :] * s
    trace = ForwardTrace(
        input=act,
        argmax_rows=base_r + flat_win // k,
        argmax_cols=base_c + flat_win % k,
    )
    return pooled, trace


def maxpool_backward(grad_pooled: np.ndarray, trace: ForwardTrace) -> np.ndarray:
    """Route each pooled gradient back to its winning input position.

    Every non-winning position gets zero; overlapping windows accumulate.
    """
    grad_pooled = np.asarray(grad_pooled, dtype=np.float64)
    if trace.argmax_rows is None or trace.argmax_cols is None:
        raise ShapeError("trace does not come from maxpool_forward")
    if grad_pooled.shape != trace.argmax_rows.shape:
        raise ShapeError(
            f"grad shape {grad_pooled.shape} != pooled shape {trace.argmax_rows.shape}"
        )
    out = np.zeros_like(trace.input)
    d2 = grad_pooled.shape[0]
    chan = np.broadcast_to(
        np.arange(d2)[:, None, None], grad_pooled.shape
    )
    np.add.at(out, (chan, trace.argmax_rows, trace.argmax_cols), grad_pooled)
    return out


def conv_backward(
    grad_preact: np.ndarray, image: np.ndarray, bank: KernelBank
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of the loss with respect to kernels and biases.

    ``grad_preact`` is the loss gradient at the pre-activation maps (the
    activation derivative already multiplied in). Kernel gradients are
    the cross-correlation of the padded input with ``grad_preact``, each
    element one pairwise sum over its tap's h1*w1 contiguous products;
    bias gradients are plain sums over each map. Stride must be 1.
    """
    g = bank.geometry
    if g.stride != 1:
        raise UnsupportedError("conv backward supports stride 1 only")
    image = np.asarray(image, dtype=np.float64)
    grad_preact = np.asarray(grad_preact, dtype=np.float64)
    if image.shape != (g.in_c, g.in_h, g.in_w):
        raise ShapeError(f"image shape {image.shape} != {(g.in_c, g.in_h, g.in_w)}")
    h1, w1, d1 = conv_output_dims(g)
    if grad_preact.shape != (d1, h1, w1):
        raise ShapeError(f"grad shape {grad_preact.shape} != {(d1, h1, w1)}")
    padded = _pad_image(image, g.pad)
    # order="C" lays each tap's h1*w1 products out contiguously: the reshape
    # is a view, and each sum is the pairwise sum a per-tap np.sum computes.
    windows = np.lib.stride_tricks.sliding_window_view(padded, (h1, w1), axis=(1, 2))
    products = np.multiply(grad_preact[:, None, None, None], windows[None], order="C")
    grad_kernels = products.reshape(d1, g.in_c, g.k_h, g.k_w, h1 * w1).sum(axis=-1)
    grad_biases = np.sum(grad_preact, axis=(1, 2))
    return grad_kernels, grad_biases


def dense_forward(
    a_prev: np.ndarray, layer: DenseLayer
) -> tuple[np.ndarray, np.ndarray, ForwardTrace]:
    """z = W a_prev + b, a = activation(z); trace caches a_prev and z."""
    a_prev = np.asarray(a_prev, dtype=np.float64)
    if a_prev.ndim != 1 or a_prev.shape[0] != layer.n_in:
        raise ShapeError(f"input shape {a_prev.shape} != ({layer.n_in},)")
    z = tensor.matvec(layer.weights, a_prev) + layer.biases
    a = apply(layer.activation, z)
    return z, a, ForwardTrace(input=a_prev, preact=z)


def dense_backward(
    grad_a: np.ndarray, layer: DenseLayer, trace: ForwardTrace
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Chain-rule step through one dense layer.

    With delta = grad_a * activation'(z): weight gradient is the outer
    product delta x a_prev, bias gradient is delta, and the gradient
    passed to the previous layer is W^T delta.
    """
    grad_a = np.asarray(grad_a, dtype=np.float64)
    if trace.preact is None:
        raise ShapeError("trace does not come from dense_forward")
    if grad_a.shape != (layer.n_out,):
        raise ShapeError(f"grad shape {grad_a.shape} != ({layer.n_out},)")
    if layer.activation == ActivationKind.SOFTMAX:
        raise UnsupportedError("cannot backpropagate through softmax")
    delta = grad_a * derivative(layer.activation, trace.preact)
    grad_w = np.outer(delta, trace.input)
    grad_b = delta.copy()
    # Ascending-i accumulation for W^T delta keeps runs bit-reproducible.
    grad_a_prev = np.cumsum(layer.weights * delta[:, None], axis=0)[-1]
    return grad_w, grad_b, grad_a_prev
