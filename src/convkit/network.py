"""The full model: one convolution layer, one max-pool layer, and a stack
of dense layers, trained by plain gradient descent on cross-entropy.

Also owns the binary model-file format. Everything here is deterministic:
a fixed seed fixes initialization, shuffle order, and therefore every
byte of every artifact a run produces.
"""

from __future__ import annotations

import copy
import io
import math
import struct
from dataclasses import dataclass, field, replace
from typing import BinaryIO, NamedTuple

import numpy as np

from . import tensor
from .activations import ActivationKind, apply, derivative
from .dataio import Dataset, _opened, _Reader, check_labels
from .errors import DomainError, GeometryError, ParseError, ShapeError, UnsupportedError
from .layers import (
    ConvGeometry,
    DenseLayer,
    ForwardTrace,
    KernelBank,
    PoolGeometry,
    conv_backward,
    conv_forward,
    dense_backward,
    dense_forward,
    maxpool_backward,
    maxpool_forward,
    pool_output_dims,
)
from .losses import LossKind, ce_grad, loss

MODEL_MAGIC = b"CNNF"
MODEL_VERSION = 1


@dataclass(frozen=True)
class Architecture:
    """Geometry description from which a network can be initialized."""

    conv: ConvGeometry
    pool: PoolGeometry
    dense_widths: tuple[int, ...]

    def flat_length(self) -> int:
        h1, w1, d1 = self.conv.output_dims
        h2, w2, d2 = pool_output_dims(h1, w1, d1, self.pool)
        return h2 * w2 * d2

    def array_bytes(self) -> dict[str, int]:
        """Bytes of each float64 array whose size the architecture fixes,
        for ``tensor.check_bytes``. The parameters bound the dense
        products, which form at weight size. "conv products" is the whole
        bank's products for one sample, which a conv call forms one kernel
        group (``tensor.SLAB_BYTES``) at a time; they bound its taps and
        its int64 tap table. The pool window planes bound their int64
        window table. A large pad grows the conv arrays without adding a
        parameter, so each is counted."""
        g, flat = self.conv, self.flat_length()
        h1, w1, d1 = g.output_dims
        n_taps = g.in_c * g.k_h * g.k_w
        n_params, n_in = d1 * (n_taps + 1), flat
        for width in self.dense_widths:
            n_params, n_in = n_params + width * (n_in + 1), width
        return {
            "parameters": 8 * n_params,
            "conv products": 8 * n_taps * d1 * h1 * w1,
            "pool windows": 8 * self.pool.window**2 * flat,
        }


@dataclass
class Network:
    """Parameters and topology: ReLU conv -> pool -> flatten -> dense stack.

    All parameters live in one float64 vector, ``params``, laid out as
    ``param_groups`` says. Construction copies the given bank and dense
    layers and gathers their arrays into a new ``params``; the network's
    own bank and layers then hold views into it, so in-place writes to
    them write ``params``.
    """

    bank: KernelBank
    pool: PoolGeometry
    dense: list[DenseLayer]
    params: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.dense:
            raise ShapeError("network needs at least one dense layer")
        arch = Architecture(
            self.bank.geometry, self.pool, tuple(layer.n_out for layer in self.dense)
        )
        n_in = arch.flat_length()
        for i, layer in enumerate(self.dense):
            if layer.n_in != n_in:
                raise ShapeError(
                    f"dense[{i}] expects {layer.n_in} inputs, chain provides {n_in}"
                )
            n_in = layer.n_out
        tensor.check_bytes(arch.array_bytes())
        self.bank = replace(self.bank)
        self.dense = [replace(layer) for layer in self.dense]
        slots = _slots(self)
        self.params = np.concatenate([getattr(o, a).ravel() for _, o, a in slots])
        for (_, owner, attr), (_, sl, shape) in zip(slots, param_groups(self)):
            setattr(owner, attr, self.params[sl].reshape(shape))

    @property
    def class_count(self) -> int:
        return self.dense[-1].n_out


def _slots(net: Network) -> list[tuple[str, object, str]]:
    """(group name, owner, attribute) of each parameter array, in model-file
    order: kernels, conv biases, then W and b of each dense layer."""
    slots = [("conv.kernels", net.bank, "kernels"), ("conv.biases", net.bank, "biases")]
    for i, layer in enumerate(net.dense):
        slots += [(f"dense[{i}].W", layer, "weights"), (f"dense[{i}].b", layer, "biases")]
    return slots


def param_groups(net: Network) -> list[tuple[str, slice, tuple[int, ...]]]:
    """(name, slice of ``net.params``, shape) of each parameter group, in
    model-file order."""
    groups, start = [], 0
    for name, owner, attr in _slots(net):
        shape = getattr(owner, attr).shape
        groups.append((name, slice(start, start + math.prod(shape)), shape))
        start += math.prod(shape)
    return groups


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    epochs: int
    batch_size: int
    rng_seed: int

    def __post_init__(self):
        # 0 is a lawful no-op that leaves the network untouched.
        if not math.isfinite(self.learning_rate) or self.learning_rate < 0:
            raise DomainError(
                f"learning rate must be finite and >= 0, got {self.learning_rate}"
            )
        if self.epochs < 1 or self.batch_size < 1:
            raise DomainError("epochs and batch_size must be >= 1")
        if not 0 <= self.rng_seed < 1 << 64:
            raise DomainError(f"seed must be an unsigned 64-bit integer, got {self.rng_seed}")


class EpochStats(NamedTuple):
    epoch: int
    mean_loss: float
    accuracy: float


def init(arch: Architecture, seed: int) -> Network:
    """Fresh network with uniform [-1/sqrt(fan_in), 1/sqrt(fan_in)] weights
    and zero biases, fully determined by ``seed``."""
    if not arch.dense_widths:
        raise ShapeError("architecture needs at least one dense width")
    if not 0 <= seed < 1 << 64:
        raise DomainError(f"seed must be an unsigned 64-bit integer, got {seed}")
    tensor.check_bytes(arch.array_bytes())
    g = arch.conv
    rng = np.random.Generator(np.random.PCG64(seed))
    bound = 1.0 / np.sqrt(g.in_c * g.k_h * g.k_w)
    kernels = rng.uniform(-bound, bound, size=(g.n_kernels, g.in_c, g.k_h, g.k_w))
    bank = KernelBank(kernels=kernels, biases=np.zeros(g.n_kernels), geometry=g)
    layers = []
    n_in = arch.flat_length()
    last = len(arch.dense_widths) - 1
    for i, width in enumerate(arch.dense_widths):
        bound = 1.0 / np.sqrt(n_in)
        w = rng.uniform(-bound, bound, size=(width, n_in))
        kind = ActivationKind.SIGMOID if i == last else ActivationKind.RELU
        layers.append(DenseLayer(weights=w, biases=np.zeros(width), activation=kind))
        n_in = width
    return Network(bank=bank, pool=arch.pool, dense=layers)


def forward(net: Network, image: np.ndarray) -> tuple[np.ndarray, list[ForwardTrace]]:
    """Run the image through the whole network.

    Returns the predicted vector and one trace per layer, in order:
    conv, pool, then each dense layer.
    """
    _, act, conv_trace = conv_forward(image, net.bank)
    pooled, pool_trace = maxpool_forward(act, net.pool)
    a = pooled.reshape(-1)
    traces = [conv_trace, pool_trace]
    for layer in net.dense:
        _, a, t = dense_forward(a, layer)
        traces.append(t)
    return a, traces


def _column_major(net: Network) -> Network:
    """A shallow copy of ``net`` for forward passes over fixed weights: each
    dense layer holds a column-major copy of its weights, so ``matvec`` reads
    a contiguous ``W.T`` and forms the same products. The copy's weights are
    not views into ``params``; it must not outlive the batch or the call it
    was made for."""
    fwd = copy.copy(net)
    fwd.dense = [
        replace(layer, weights=np.asfortranarray(layer.weights)) for layer in net.dense
    ]
    return fwd


def backward(
    net: Network, traces: list[ForwardTrace], y: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Add the cross-entropy gradient for one sample and its 0/1 target
    vector ``y``, from the traces its forward call produced, into ``out``
    (float64, laid out like ``net.params``) with one ``+=`` per group, and
    return ``out``."""
    y = np.asarray(y, dtype=tensor.F64)
    if len(traces) != 2 + len(net.dense):
        raise ShapeError(f"expected {2 + len(net.dense)} traces, got {len(traces)}")
    if y.shape != (net.class_count,):
        raise ShapeError(f"label shape {y.shape} != ({net.class_count},)")
    if getattr(out, "dtype", None) != np.float64 or out.shape != net.params.shape:
        raise ShapeError(f"out must be float64 and shaped like params {net.params.shape}")
    conv_trace, pool_trace = traces[0], traces[1]
    final = traces[-1]
    yhat = apply(net.dense[-1].activation, final.preact)
    grad = ce_grad(yhat, y)
    end = out.size  # each group's slice ends where the next group's starts
    for layer, trace in zip(reversed(net.dense), reversed(traces[2:])):
        gw, gb, grad = dense_backward(grad, layer, trace)
        out[end - gb.size : end] += gb
        end -= gb.size
        out[end - gw.size : end] += gw.ravel()
        end -= gw.size
    grad_act = maxpool_backward(grad.reshape(pool_trace.winners.shape), pool_trace)
    grad_preact = grad_act * derivative(ActivationKind.RELU, conv_trace.preact)
    gk, gcb = conv_backward(grad_preact, conv_trace.input, net.bank)
    out[end - gcb.size : end] += gcb
    out[: gk.size] += gk.ravel()
    return out


def sgd_step(net: Network, grads: np.ndarray, alpha: float) -> Network:
    """One plain gradient-descent update, theta <- theta - alpha * grad, into
    a new network; ``net`` is left untouched."""
    if not 0 < alpha < math.inf:
        raise DomainError(f"learning rate must be finite and > 0, got {alpha}")
    grads = np.asarray(grads, dtype=np.float64)
    if grads.shape != net.params.shape:
        raise ShapeError(f"gradient shape {grads.shape} != params {net.params.shape}")
    stepped = replace(net)
    stepped.params -= alpha * grads
    return stepped


def _first_nonfinite_group(net: Network) -> str:
    bad = int(np.flatnonzero(~np.isfinite(net.params))[0])
    return next(name for name, sl, _ in param_groups(net) if sl.start <= bad < sl.stop)


def train(
    net: Network, data: Dataset, cfg: TrainConfig
) -> tuple[Network, list[EpochStats]]:
    """Mini-batch gradient descent; the batch gradient is the mean of the
    per-sample gradients. ``backward`` adds each sample's gradient, in
    sample order, into one zeroed buffer per batch, which is then divided
    by the batch's sample count.

    Shuffle order comes from a counter-based generator keyed on the seed,
    one non-overlapping stream per epoch, so runs are reproducible
    bit-for-bit. History records post-epoch metrics on the training set.
    """
    if len(data.images) == 0:
        raise DomainError("cannot train on an empty dataset")
    n = len(data.images)
    # The labels may have changed since the Dataset checked them; each one
    # indexes the target row below.
    check_labels(data.labels, data.class_count)
    target = np.zeros(data.class_count)
    grads = np.empty_like(net.params)
    history: list[EpochStats] = []
    # A diverging run overflows a step before the non-finite guards below
    # stop it; they report the failure, so numpy's warnings would be noise.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            if cfg.learning_rate > 0:
                rng = np.random.Generator(
                    np.random.Philox(key=cfg.rng_seed, counter=epoch * (1 << 64))
                )
                order = rng.permutation(n)
                for start in range(0, n, cfg.batch_size):
                    idx = order[start : start + cfg.batch_size]
                    fwd = _column_major(net)
                    grads.fill(0.0)
                    for i in idx:
                        label = data.labels[i]
                        target[label] = 1.0
                        backward(net, forward(fwd, data.images[i])[1], target, grads)
                        target[label] = 0.0
                    grads /= len(idx)
                    net = sgd_step(net, grads, cfg.learning_rate)
                    if not np.isfinite(net.params).all():
                        raise DomainError(
                            f"epoch {epoch + 1}: parameter group "
                            f"{_first_nonfinite_group(net)} went non-finite"
                        )
            try:
                mean_loss, accuracy = evaluate(net, data)
            except NonFiniteLossError as e:
                raise DomainError(f"epoch {epoch + 1}: training loss went non-finite") from e
            history.append(EpochStats(epoch + 1, mean_loss, accuracy))
    return net, history


class NonFiniteLossError(DomainError):
    """``evaluate`` met a mean loss that is NaN or infinite."""


def evaluate(net: Network, data: Dataset) -> tuple[float, float]:
    """Mean cross-entropy loss and argmax accuracy over a dataset (ties go to
    the lowest class index). Raises ``NonFiniteLossError`` when the mean
    loss is not finite, as it is for parameters so large that the forward
    pass overflows."""
    if len(data.images) == 0:
        raise DomainError("cannot evaluate an empty dataset")
    check_labels(data.labels, data.class_count)
    fwd = _column_major(net)
    target = np.zeros(data.class_count)  # each sample's 0/1 target in turn
    total = 0.0
    correct = 0
    # The check below reports an overflow, so numpy's warnings would be noise.
    with np.errstate(over="ignore", invalid="ignore"):
        for image, label in zip(data.images, data.labels):
            yhat, _ = forward(fwd, image)
            target[label] = 1.0
            total += loss(LossKind.CROSS_ENTROPY, yhat, target)
            target[label] = 0.0
            if yhat.argmax() == label:
                correct += 1
    n = len(data.images)
    if not math.isfinite(total / n):
        raise NonFiniteLossError(f"mean loss over {n} samples is {total / n}")
    return total / n, correct / n


# --- model file ---------------------------------------------------------
#
# Little-endian throughout. Layout, with no padding between sections:
#
#   magic   "CNNF"
#   u32     version (1)
#   u32 x8  conv geometry: in_h, in_w, in_c, k_h, k_w, n_kernels, stride, pad
#           (no activation tag: the conv layer is ReLU by construction)
#   u32 x2  pool geometry: window, stride
#   u32     dense layer count
#   per dense layer: u32 n_in, u32 n_out, u8 activation tag (0 sigmoid, 2 ReLU)
#   f64[]   Network.params, in param_groups order:
#           conv kernels, filter-major (kernel, channel, row, col),
#           conv biases,
#           per dense layer: weights row-major, then biases


def save(net: Network, sink: str | BinaryIO) -> None:
    """Write the network to a path or binary stream; load() restores it
    bit-for-bit. A dense activation ``load`` would refuse is an
    ``UnsupportedError``, raised before any byte is written."""
    g = net.bank.geometry
    out = io.BytesIO()
    out.write(MODEL_MAGIC)
    out.write(struct.pack("<I", MODEL_VERSION))
    out.write(
        struct.pack(
            "<8I", g.in_h, g.in_w, g.in_c, g.k_h, g.k_w, g.n_kernels, g.stride, g.pad
        )
    )
    out.write(struct.pack("<2I", net.pool.window, net.pool.stride))
    out.write(struct.pack("<I", len(net.dense)))
    for i, layer in enumerate(net.dense):
        try:  # the tag may have been reassigned since the layer checked it
            kind = ActivationKind(layer.activation)
        except ValueError as e:
            raise UnsupportedError(f"dense[{i}]: {e}") from e
        out.write(struct.pack("<IIB", layer.n_in, layer.n_out, kind))
    out.write(net.params.astype("<f8").tobytes())
    blob = out.getvalue()
    if hasattr(sink, "write"):
        sink.write(blob)
    else:
        with open(sink, "wb") as f:
            f.write(blob)


def load(source: str | BinaryIO) -> Network:
    """Read a model file, raising a distinct ParseError for bad magic,
    version mismatch, truncation, trailing bytes or inconsistent extents.

    The header fixes the file's length: 52 bytes, 9 per dense layer and 8
    per parameter. The parameter bytes are checked with
    ``tensor.check_bytes`` before any parameter is read, and at most one
    byte past that length is read."""
    with _opened(source) as f:
        return _read_model(_Reader(f))


def _read_model(r: _Reader) -> Network:
    magic = r.take(4, "magic")
    if magic != MODEL_MAGIC:
        raise ParseError(f"bad magic {magic!r}, expected {MODEL_MAGIC!r}")
    (version,) = r.unpack("<I", "version")
    if version != MODEL_VERSION:
        raise ParseError(f"unsupported model version {version}")
    try:
        conv = ConvGeometry(*r.unpack("<8I", "conv geometry"))
        pool = PoolGeometry(*r.unpack("<2I", "pool geometry"))
    except GeometryError as e:  # not a TruncationError, which names its section
        raise ParseError(f"inconsistent geometry: {e}") from e
    (n_dense,) = r.unpack("<I", "dense count")
    if n_dense < 1 or n_dense > 1_000_000:
        raise ParseError(f"implausible dense layer count {n_dense}")
    dense_geom = []
    for i in range(n_dense):
        n_in, n_out, tag = r.unpack("<IIB", f"dense[{i}] geometry")
        try:
            kind = ActivationKind(tag)
        except ValueError as e:
            raise ParseError(f"dense[{i}] has unknown activation tag {tag}") from e
        if n_in < 1 or n_out < 1:
            raise ParseError(f"dense[{i}] has non-positive extents {n_in}x{n_out}")
        dense_geom.append((n_in, n_out, kind))
    g = conv
    n_params = g.n_kernels * (g.in_c * g.k_h * g.k_w + 1)
    n_params += sum(n_out * (n_in + 1) for n_in, n_out, _ in dense_geom)
    tensor.check_bytes({"parameters": 8 * n_params})
    kernels = r.f64_array(
        g.n_kernels * g.in_c * g.k_h * g.k_w, "conv kernels"
    ).reshape(g.n_kernels, g.in_c, g.k_h, g.k_w)
    biases = r.f64_array(g.n_kernels, "conv biases")
    layers = []
    for i, (n_in, n_out, kind) in enumerate(dense_geom):
        w = r.f64_array(n_in * n_out, f"dense[{i}] weights").reshape(n_out, n_in)
        b = r.f64_array(n_out, f"dense[{i}] biases")
        layers.append(DenseLayer(weights=w, biases=b, activation=kind))
    r.end("parameters")
    try:
        return Network(
            bank=KernelBank(kernels=kernels, biases=biases, geometry=conv),
            pool=pool,
            dense=layers,
        )
    except ValueError as e:
        raise ParseError(f"inconsistent extents: {e}") from e
