"""Structural layers: convolution, max pooling, and dense, with forward
passes that produce traces and backward passes that consume them.

Conventions fixed here once:

* Convolution is the cross-correlation form: the kernel slides without
  index reversal, ``preact[p, i, j] = sum_{c,u,v} K[p,c,u,v] *
  Ipad[c, i*s+u, j*s+v] + b[p]``, summed over the taps in ascending
  (c, u, v) order from +0.0 (a loop's ``acc = 0.0``; the dense sums start
  at -0.0) with the bias added last, so results are bit-identical to a
  naive nested loop. The conv activation is ReLU by construction.
* The kernel gradient ``dK[p, c, u, v]`` is one pairwise ``np.sum`` per
  tap over its h1*w1 products ``grad[p] * Ipad[c, u:u+h1, v:v+w1]``,
  laid out contiguously in row-major (i, j) order. The bias gradient
  ``db[p]`` is likewise one pairwise sum over the h1*w1 values of
  ``grad[p]``, in row-major (i, j) order.
* Both conv passes form their products one kernel group at a time, and
  ``_by_kernel_group`` alone picks the groups: as many kernels as fit
  ``tensor.SLAB_BYTES``, at least one. A group only decides which
  kernels' products are in memory together, never the order of a sum; a
  bank that fits one group is summed in one pass.
* Dense weights are (n_out, n_in) with z = W a + b. Both ``W a`` and
  the backward ``W^T delta`` sum in ascending index order (over j and
  over i respectively) with one accumulator per output element, through
  ``tensor.sum_rows``.
* Max-pool ties break to the first maximum in row-major window order;
  the pooled value is the winner's own bits. The trace keeps each winner
  as one flat C-order position in the input, and backward adds the
  gradients at the winners in pooled row-major order.
* Conv taps and pool windows are gathered with ``take`` through index
  tables of one kind: the flat positions of a window sliding over a
  C-order (C, H, W) map, which depend only on the map shape, the window
  extent and the stride. The conv reads one row per tap, the pool one row
  per window. Each table is built once, kept read-only in a small cache,
  and never returned: every output is a new array. The gathers replaced
  strided views without changing any sum order.
* Inside a ``_KeptResults`` scope, which only ``gradcheck.check_network``
  enters, ``conv_forward`` and ``maxpool_forward`` each keep their last
  call's key and results, the results made read-only, and a call whose
  key matches returns the kept results. The conv key is the geometry,
  the image's dtype, shape and bytes and the bytes of the kernels and
  biases; the pool key the geometry, the input's shape and its bytes. A
  conv hit still calls ``apply`` on the kept pre-activation, so the
  activation is called as often as without the scope. Outside the scope
  each layer keeps nothing and returns new, writable arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor
from .activations import ActivationKind, apply, derivative
from .errors import GeometryError, ShapeError, UnsupportedError


@dataclass(frozen=True)
class ConvGeometry:
    """Input extents, kernel extents and sliding parameters of a conv layer.

    ``output_dims`` is ``conv_output_dims`` of the geometry, computed once
    at construction; it is derived, so equality and hashing ignore it."""

    in_h: int
    in_w: int
    in_c: int
    k_h: int
    k_w: int
    n_kernels: int
    stride: int = 1
    pad: int = 0
    output_dims: tuple[int, int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("in_h", "in_w", "in_c", "k_h", "k_w", "n_kernels", "stride"):
            if getattr(self, name) < 1:
                raise GeometryError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.pad < 0:
            raise GeometryError(f"pad must be >= 0, got {self.pad}")
        # raises if the sliding-window arithmetic breaks
        object.__setattr__(self, "output_dims", conv_output_dims(self))


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
    """Fully connected layer: weights (n_out, n_in), biases (n_out,), and a
    ReLU or sigmoid activation."""

    weights: np.ndarray
    biases: np.ndarray
    activation: ActivationKind

    def __post_init__(self):
        try:
            self.activation = ActivationKind(self.activation)
        except ValueError as e:
            raise UnsupportedError(f"unknown activation {self.activation!r}") from e
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


@dataclass(slots=True)
class ForwardTrace:
    """Per-layer cache consumed by the matching backward pass.

    ``input`` is the layer's input as seen in forward; ``preact`` is the
    pre-activation (conv and dense only); ``winners`` is the flat C-order
    position in ``input`` of each pooled output's winner (pool only).
    """

    input: np.ndarray
    preact: np.ndarray | None = None
    winners: np.ndarray | None = None


# The kept results of conv_forward and maxpool_forward, by layer: None
# outside a _KeptResults scope, a dict of (key, *results) inside one.
_kept: dict | None = None


class _KeptResults:
    """The scope in which conv_forward and maxpool_forward return their
    last call's results for a call with the same key. Entering starts with
    nothing kept; leaving, also on an exception, restores what was kept
    before."""

    def __enter__(self) -> "_KeptResults":
        global _kept
        self._outer, _kept = _kept, {}
        return self

    def __exit__(self, *exc) -> None:
        global _kept
        _kept = self._outer


# Index tables depend only on a map shape and a window, so each is built
# once and kept read-only. The cache is emptied when it reaches _MAX_TABLES
# entries, so a run over many geometries cannot grow it without bound. A
# conv entry is keyed (shape, window, stride) with a tuple window; a pool
# entry is keyed (shape, window, stride) with an int window.
_TABLES: dict = {}
_MAX_TABLES = 64


def _cache(key, entry):
    """Store ``entry`` under ``key``, emptying a full cache first."""
    if len(_TABLES) >= _MAX_TABLES:
        _TABLES.clear()
    _TABLES[key] = entry
    return entry


def _window_parts(shape: tuple[int, int, int], window: tuple[int, int, int],
                  stride: int) -> tuple[np.ndarray, np.ndarray]:
    """The two flat parts of the window positions of extent
    ``window = (k_c, k_h, k_w)`` sliding over a C-order ``shape = (C, H, W)``
    map, by ``stride`` over H and W and by k_c over C: entry e = (c, u, v)
    in ascending order contributes ``per_entry[e]``, output o in row-major
    (channel block, i, j) order ``per_output[o]``, and their sum is the
    entry's flat position in the map. Entry 0 and output 0 are both 0."""
    (n_c, n_h, n_w), (k_c, k_h, k_w) = shape, window
    c, u, v = np.ogrid[:k_c, :k_h, :k_w]
    b, i, j = np.ogrid[: n_c - k_c + 1 : k_c, : n_h - k_h + 1 : stride,
                       : n_w - k_w + 1 : stride]
    return ((c * n_h + u) * n_w + v).ravel(), ((b * n_h + i) * n_w + j).ravel()


def _window_table(shape: tuple[int, int, int], window: tuple[int, int, int],
                  stride: int) -> np.ndarray:
    """(entries, outputs) flat positions of the windows ``_window_parts``
    describes: row e is window entry e, column o is output o. One
    broadcast add of the two parts, so no temporary is as large as the
    table."""
    key = (shape, window, stride)
    table = _TABLES.get(key)
    if table is None:
        per_entry, per_output = _window_parts(shape, window, stride)
        table = per_entry[:, None] + per_output
        table.flags.writeable = False
        _cache(key, table)
    return table


def _pool_windows(shape: tuple[int, int, int], g: PoolGeometry):
    """The pool's cached entry for a (d1, h1, w1) map: the (outputs, k*k)
    row table, whose row o holds output o's window positions in row-major
    (du, dv) order; the per-entry and per-output parts it is the sum of;
    and the pooled shape (d2, h2, w2). Raises for a window the map cannot
    hold, and caches nothing then."""
    key = (shape, g.window, g.stride)
    entry = _TABLES.get(key)
    if entry is None:
        d1, h1, w1 = shape
        h2, w2, d2 = pool_output_dims(h1, w1, d1, g)
        per_entry, per_output = _window_parts(shape, (1, g.window, g.window), g.stride)
        rows = per_output[:, None] + per_entry
        for part in (rows, per_entry, per_output):
            part.flags.writeable = False
        entry = _cache(key, (rows, per_entry, per_output, (d2, h2, w2)))
    return entry


def _taps(image: np.ndarray, g: ConvGeometry) -> np.ndarray:
    """(n_taps, h1*w1) gather of the zero-padded (channels, H, W) image:
    row t holds the inputs tap t = (c, u, v) multiplies, in row-major
    (i, j) output order. The image is converted to float64 and checked
    against the geometry first. A new array: no view of the image or the
    table."""
    image = np.ascontiguousarray(image, dtype=tensor.F64)
    if image.shape != (g.in_c, g.in_h, g.in_w):
        raise ShapeError(f"image shape {image.shape} != {(g.in_c, g.in_h, g.in_w)}")
    if g.pad:
        image = np.pad(image, ((0, 0), (g.pad, g.pad), (g.pad, g.pad)))
    return image.take(_window_table(image.shape, (g.in_c, g.k_h, g.k_w), g.stride))


def _by_kernel_group(sums, per_kernel: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """``sums(per_kernel[k:k+group], taps)`` for each group of kernels (axis
    0 of ``per_kernel``) whose products fit ``tensor.SLAB_BYTES``, at least
    one, joined in kernel order. A kernel's products, forward or backward,
    are one product per tap entry, so they take ``taps.nbytes``. A bank
    that fits one group is one call, with no copy."""
    group = max(1, tensor.SLAB_BYTES // taps.nbytes)
    if group >= len(per_kernel):
        return sums(per_kernel, taps)
    return np.concatenate([sums(per_kernel[k : k + group], taps)
                           for k in range(0, len(per_kernel), group)])


def _tap_sums(kernels: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Flat (g*h1*w1,) sums over the taps of (g, taps, 1) kernel columns
    times (taps, h1*w1) taps: one C-order row of products per tap, in
    ascending (c, u, v) order, added by ``tensor.sum_rows`` from +0.0."""
    # order="C" makes each tap's products one contiguous row: numpy would
    # otherwise follow the transposed kernels' layout.
    products = np.multiply(kernels.swapaxes(0, 1), taps[:, None, :], order="C")
    return tensor.sum_rows(products.reshape(len(taps), -1), initial=0.0)


def _window_sums(grad: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """(g, taps) sums of (g, 1, h1*w1) gradient maps times (taps, h1*w1)
    taps: one pairwise sum per (kernel, tap) over its products."""
    # order="C" lays each tap's h1*w1 products out contiguously, so each
    # sum is the pairwise sum a per-tap np.sum computes.
    return np.multiply(grad, taps[None], order="C").sum(axis=-1)


def conv_forward(
    image: np.ndarray, bank: KernelBank
) -> tuple[np.ndarray, np.ndarray, ForwardTrace]:
    """Slide the kernel bank over the (channels, H, W) image and apply ReLU.

    ``_taps`` checks the image and gathers each tap's inputs through a
    table cached per geometry. For each kernel group (``_by_kernel_group``),
    each tap's products are one C-order row of a (taps, g*h1*w1) tensor,
    taps in ascending (c, u, v) order; ``tensor.sum_rows`` adds the rows
    from +0.0, then the biases are added.

    Returns the pre-activation feature maps, the ReLU maps, and the trace
    caching the input image and pre-activation. Inside a ``_KeptResults``
    scope the pre-activation is read-only and may be a kept one.
    """
    g = bank.geometry
    if _kept is not None:
        pixels = np.asarray(image)
        key = (g, pixels.dtype, pixels.shape, pixels.tobytes(),
               bank.kernels.tobytes(), bank.biases.tobytes())
        kept = _kept.get("conv")
        if kept is not None and kept[0] == key:
            preact = kept[1]
            return preact, apply(ActivationKind.RELU, preact), ForwardTrace(image, preact)
    h1, w1, d1 = g.output_dims
    taps = _taps(image, g)
    preact = _by_kernel_group(_tap_sums, bank.kernels.reshape(d1, -1, 1), taps)
    preact = preact.reshape(d1, h1, w1)
    preact += bank.biases[:, None, None]  # in place: sum_rows returns a new array
    if _kept is not None:
        preact.flags.writeable = False
        _kept["conv"] = (key, preact)
    act = apply(ActivationKind.RELU, preact)
    return preact, act, ForwardTrace(image, preact)


def maxpool_forward(
    act: np.ndarray, g: PoolGeometry
) -> tuple[np.ndarray, ForwardTrace]:
    """Keep the maximum of each window, remembering where it came from.

    One ``take`` through the row table cached per geometry gathers each
    output's window as one contiguous row of the C-order input, in
    row-major (du, dv) order, so argmax's first-maximum rule along the
    row is exactly the tie-break contract. A winner is the cached
    per-entry part at the argmax plus the output's per-output part.
    Inside a ``_KeptResults`` scope the pooled map and the winners are
    read-only and may be kept ones.
    """
    act = np.asarray(act, dtype=tensor.F64)
    if act.ndim != 3:
        raise ShapeError(f"maxpool expects rank 3, got rank {act.ndim}")
    if _kept is not None:
        key = (g, act.shape, act.tobytes())
        kept = _kept.get("pool")
        if kept is not None and kept[0] == key:
            return kept[1], ForwardTrace(act, None, kept[2])
    rows, per_entry, per_output, pooled_shape = _pool_windows(act.shape, g)
    sel = act.take(rows).argmax(axis=1)
    winners = (per_entry.take(sel) + per_output).reshape(pooled_shape)
    # Gather the winners themselves (not a max, which may return the
    # other zero of a -0.0/0.0 tie or a different NaN).
    pooled = act.take(winners)
    if _kept is not None:
        pooled.flags.writeable = winners.flags.writeable = False
        _kept["pool"] = (key, pooled, winners)
    return pooled, ForwardTrace(act, None, winners)


def maxpool_backward(grad_pooled: np.ndarray, trace: ForwardTrace) -> np.ndarray:
    """Route each pooled gradient back to its winning input position.

    Every non-winning position gets zero; overlapping windows accumulate.
    One ``np.bincount`` over the flat winners adds the gradients in pooled
    row-major order into sums started at 0.0.
    """
    grad_pooled = np.asarray(grad_pooled, dtype=tensor.F64)
    if trace.winners is None:
        raise ShapeError("trace does not come from maxpool_forward")
    if grad_pooled.shape != trace.winners.shape:
        raise ShapeError(
            f"grad shape {grad_pooled.shape} != pooled shape {trace.winners.shape}"
        )
    out = np.bincount(trace.winners.ravel(), weights=grad_pooled.ravel(),
                      minlength=trace.input.size)
    return out.reshape(trace.input.shape)


def conv_backward(
    grad_preact: np.ndarray, image: np.ndarray, bank: KernelBank
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of the loss with respect to kernels and biases.

    ``grad_preact`` is the loss gradient at the pre-activation maps (the
    activation derivative already multiplied in). Kernel gradients are
    the cross-correlation of the padded input with ``grad_preact``, each
    element one pairwise sum over its tap's h1*w1 contiguous products,
    formed one kernel group (``_by_kernel_group``) at a time; each bias
    gradient is one pairwise sum over its map's h1*w1 values in row-major
    order. Stride must be 1.
    """
    g = bank.geometry
    if g.stride != 1:
        raise UnsupportedError("conv backward supports stride 1 only")
    grad_preact = np.asarray(grad_preact, dtype=tensor.F64)
    h1, w1, d1 = g.output_dims
    taps = _taps(image, g)
    if grad_preact.shape != (d1, h1, w1):
        raise ShapeError(f"grad shape {grad_preact.shape} != {(d1, h1, w1)}")
    grad_kernels = _by_kernel_group(_window_sums, grad_preact.reshape(d1, 1, h1 * w1), taps)
    grad_kernels = grad_kernels.reshape(bank.kernels.shape)
    grad_biases = np.ascontiguousarray(grad_preact).reshape(d1, -1).sum(axis=1)
    return grad_kernels, grad_biases


def dense_forward(
    a_prev: np.ndarray, layer: DenseLayer
) -> tuple[np.ndarray, np.ndarray, ForwardTrace]:
    """z = W a_prev + b, a = activation(z); trace caches a_prev and z."""
    a_prev = np.asarray(a_prev, dtype=tensor.F64)
    if a_prev.ndim != 1 or a_prev.shape[0] != layer.n_in:
        raise ShapeError(f"input shape {a_prev.shape} != ({layer.n_in},)")
    z = tensor.matvec(layer.weights, a_prev)
    z += layer.biases  # in place: matvec returns a new array
    a = apply(layer.activation, z)
    return z, a, ForwardTrace(a_prev, z)


def dense_backward(
    grad_a: np.ndarray, layer: DenseLayer, trace: ForwardTrace
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Chain-rule step through one dense layer.

    With delta = grad_a * activation'(z): weight gradient is the outer
    product delta x a_prev, bias gradient is delta, and the gradient
    passed to the previous layer is W^T delta.
    """
    grad_a = np.asarray(grad_a, dtype=tensor.F64)
    if trace.preact is None:
        raise ShapeError("trace does not come from dense_forward")
    if grad_a.shape != (layer.n_out,):
        raise ShapeError(f"grad shape {grad_a.shape} != ({layer.n_out},)")
    delta = grad_a * derivative(layer.activation, trace.preact)
    grad_w = delta[:, None] * trace.input
    grad_b = delta
    # Ascending-i accumulation for W^T delta keeps runs bit-reproducible.
    grad_a_prev = tensor.sum_rows(np.multiply(layer.weights, delta[:, None], order="C"))
    return grad_w, grad_b, grad_a_prev
