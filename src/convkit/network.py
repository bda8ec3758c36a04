"""The full model: one convolution layer, one max-pool layer, and a stack
of dense layers, trained by plain gradient descent on cross-entropy.

Also owns the binary model-file format. Everything here is deterministic:
a fixed seed fixes initialization, shuffle order, and therefore every
byte of every artifact a run produces.
"""

from __future__ import annotations

import io
import math
import struct
from dataclasses import dataclass, field, replace
from typing import BinaryIO, NamedTuple

import numpy as np

from . import tensor
from .activations import ActivationKind, apply, derivative
from .dataio import Dataset
from .errors import DomainError, ParseError, ShapeError, TruncationError, UnsupportedError
from .layers import (
    ConvGeometry,
    DenseLayer,
    ForwardTrace,
    KernelBank,
    PoolGeometry,
    conv_backward,
    conv_forward,
    conv_output_dims,
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
        h1, w1, d1 = conv_output_dims(self.conv)
        h2, w2, d2 = pool_output_dims(h1, w1, d1, self.pool)
        return h2 * w2 * d2


@dataclass
class Network:
    """Parameters and topology: conv -> pool -> flatten -> dense stack.

    All parameters live in one float64 vector, ``params``, laid out as
    ``param_groups`` says. Construction copies the given bank and dense
    layers and gathers their arrays into a new ``params``; the network's
    own bank and layers then hold views into it, so in-place writes to
    them write ``params``.
    """

    bank: KernelBank
    conv_activation: ActivationKind
    pool: PoolGeometry
    dense: list[DenseLayer]
    params: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.dense:
            raise ShapeError("network needs at least one dense layer")
        h1, w1, d1 = conv_output_dims(self.bank.geometry)
        h2, w2, d2 = pool_output_dims(h1, w1, d1, self.pool)
        flat = h2 * w2 * d2
        n_in = flat
        for i, layer in enumerate(self.dense):
            if layer.n_in != n_in:
                raise ShapeError(
                    f"dense[{i}] expects {layer.n_in} inputs, chain provides {n_in}"
                )
            n_in = layer.n_out
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
    g = arch.conv
    n_params, n_in = g.n_kernels * (g.in_c * g.k_h * g.k_w + 1), arch.flat_length()
    for width in arch.dense_widths:
        n_params, n_in = n_params + width * (n_in + 1), width
    if n_params > tensor.MAX_ELEMENTS:
        raise ShapeError(
            f"architecture has {n_params} parameters, more than {tensor.MAX_ELEMENTS}"
        )
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
    return Network(
        bank=bank,
        conv_activation=ActivationKind.RELU,
        pool=arch.pool,
        dense=layers,
    )


def forward(net: Network, image: np.ndarray) -> tuple[np.ndarray, list[ForwardTrace]]:
    """Run the image through the whole network.

    Returns the predicted vector and one trace per layer, in order:
    conv, pool, then each dense layer.
    """
    _, act, conv_trace = conv_forward(image, net.bank, net.conv_activation)
    pooled, pool_trace = maxpool_forward(act, net.pool)
    a = tensor.flatten(pooled)
    traces = [conv_trace, pool_trace]
    for layer in net.dense:
        _, a, t = dense_forward(a, layer)
        traces.append(t)
    return a, traces


def backward(net: Network, traces: list[ForwardTrace], y: np.ndarray) -> np.ndarray:
    """Gradient of the cross-entropy loss for one sample, using the traces
    the matching forward call produced, laid out like ``net.params``."""
    y = np.asarray(y, dtype=np.float64)
    if len(traces) != 2 + len(net.dense):
        raise ShapeError(f"expected {2 + len(net.dense)} traces, got {len(traces)}")
    if y.shape != (net.class_count,):
        raise ShapeError(f"label shape {y.shape} != ({net.class_count},)")
    conv_trace, pool_trace = traces[0], traces[1]
    final = traces[-1]
    yhat = apply(net.dense[-1].activation, final.preact)
    grad = ce_grad(yhat, y)
    dense_grads: list[np.ndarray] = []
    for layer, trace in zip(reversed(net.dense), reversed(traces[2:])):
        gw, gb, grad = dense_backward(grad, layer, trace)
        dense_grads[:0] = [gw.ravel(), gb]
    pooled_shape = pool_trace.argmax_rows.shape
    grad_act = maxpool_backward(tensor.unflatten(grad, pooled_shape), pool_trace)
    grad_preact = grad_act * derivative(net.conv_activation, conv_trace.preact)
    gk, gcb = conv_backward(grad_preact, conv_trace.input, net.bank)
    return np.concatenate([gk.ravel(), gcb, *dense_grads])


def sgd_step(net: Network, grads: np.ndarray, alpha: float) -> Network:
    """One plain gradient-descent update, theta <- theta - alpha * grad, into
    a new network; ``net`` is left untouched."""
    if alpha <= 0:
        raise DomainError(f"learning rate must be > 0, got {alpha}")
    grads = np.asarray(grads, dtype=np.float64)
    if grads.shape != net.params.shape:
        raise ShapeError(f"gradient shape {grads.shape} != params {net.params.shape}")
    stepped = replace(net)
    stepped.params -= alpha * grads
    return stepped


def _mean_grads(batch: list[np.ndarray]) -> np.ndarray:
    # A sequential sum in sample order: np.sum's pairwise order changes bits.
    acc = np.zeros_like(batch[0])
    for g in batch:
        acc += g
    return acc / len(batch)


def _first_nonfinite_group(net: Network) -> str:
    bad = int(np.flatnonzero(~np.isfinite(net.params))[0])
    return next(name for name, sl, _ in param_groups(net) if sl.start <= bad < sl.stop)


def train(
    net: Network, data: Dataset, cfg: TrainConfig
) -> tuple[Network, list[EpochStats]]:
    """Mini-batch gradient descent; the batch gradient is the mean of the
    per-sample gradients.

    Shuffle order comes from a counter-based generator keyed on the seed,
    one non-overlapping stream per epoch, so runs are reproducible
    bit-for-bit. History records post-epoch metrics on the training set.
    """
    if len(data.images) == 0:
        raise DomainError("cannot train on an empty dataset")
    n = len(data.images)
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
                    grads = []
                    for i in idx:
                        _, traces = forward(net, data.images[i])
                        grads.append(backward(net, traces, data.labels[i]))
                    net = sgd_step(net, _mean_grads(grads), cfg.learning_rate)
                    if not np.isfinite(net.params).all():
                        raise DomainError(
                            f"epoch {epoch + 1}: parameter group "
                            f"{_first_nonfinite_group(net)} went non-finite"
                        )
            mean_loss, accuracy = evaluate(net, data)
            if not math.isfinite(mean_loss):
                raise DomainError(f"epoch {epoch + 1}: training loss went non-finite")
            history.append(EpochStats(epoch + 1, mean_loss, accuracy))
    return net, history


def evaluate(net: Network, data: Dataset) -> tuple[float, float]:
    """Mean cross-entropy loss and argmax accuracy over a dataset (ties go to
    the lowest class index)."""
    if len(data.images) == 0:
        raise DomainError("cannot evaluate an empty dataset")
    total = 0.0
    correct = 0
    for image, label in zip(data.images, data.labels):
        yhat, _ = forward(net, image)
        total += loss(LossKind.CROSS_ENTROPY, yhat, label)
        if int(np.argmax(yhat)) == int(np.argmax(label)):
            correct += 1
    n = len(data.images)
    return total / n, correct / n


# --- model file ---------------------------------------------------------
#
# Little-endian throughout. Layout, with no padding between sections:
#
#   magic   "CNNF"
#   u32     version (1)
#   u32 x8  conv geometry: in_h, in_w, in_c, k_h, k_w, n_kernels, stride, pad
#   u32 x2  pool geometry: window, stride
#   u32     dense layer count
#   per dense layer: u32 n_in, u32 n_out, u8 activation tag
#   f64[]   Network.params, in param_groups order:
#           conv kernels, filter-major (kernel, channel, row, col),
#           conv biases,
#           per dense layer: weights row-major, then biases


def save(net: Network, sink: str | BinaryIO) -> None:
    """Write the network to a path or binary stream; load() restores it
    bit-for-bit. The format has no conv activation field (load() reads
    ReLU), so any other conv activation is refused."""
    if net.conv_activation != ActivationKind.RELU:
        raise UnsupportedError(
            f"the model format stores ReLU conv layers only, got {net.conv_activation.name}"
        )
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
    for layer in net.dense:
        out.write(struct.pack("<IIB", layer.n_in, layer.n_out, int(layer.activation)))
    out.write(net.params.astype("<f8").tobytes())
    blob = out.getvalue()
    if hasattr(sink, "write"):
        sink.write(blob)
    else:
        with open(sink, "wb") as f:
            f.write(blob)


class _Reader:
    """Sequential reader that names the section a truncation happened in."""

    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int, section: str) -> bytes:
        if self.pos + n > len(self.blob):
            raise TruncationError(
                f"file truncated in section '{section}' "
                f"(need {n} bytes at offset {self.pos}, have {len(self.blob) - self.pos})"
            )
        chunk = self.blob[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u32(self, section: str) -> int:
        return struct.unpack("<I", self.take(4, section))[0]

    def u8(self, section: str) -> int:
        return self.take(1, section)[0]

    def f64_array(self, count: int, section: str) -> np.ndarray:
        raw = self.take(8 * count, section)
        return np.frombuffer(raw, dtype="<f8").astype(np.float64)


def load(source: str | BinaryIO) -> Network:
    """Read a model file, raising a distinct ParseError for bad magic,
    version mismatch, truncation, or inconsistent extents."""
    if hasattr(source, "read"):
        blob = source.read()
    else:
        with open(source, "rb") as f:
            blob = f.read()
    r = _Reader(blob)
    magic = r.take(4, "magic")
    if magic != MODEL_MAGIC:
        raise ParseError(f"bad magic {magic!r}, expected {MODEL_MAGIC!r}")
    version = r.u32("version")
    if version != MODEL_VERSION:
        raise ParseError(f"unsupported model version {version}")
    vals = [r.u32("conv geometry") for _ in range(8)]
    try:
        conv = ConvGeometry(*vals)
        pool = PoolGeometry(r.u32("pool geometry"), r.u32("pool geometry"))
    except ValueError as e:
        raise ParseError(f"inconsistent geometry: {e}") from e
    n_dense = r.u32("dense count")
    if n_dense < 1 or n_dense > 1_000_000:
        raise ParseError(f"implausible dense layer count {n_dense}")
    dense_geom = []
    for i in range(n_dense):
        n_in = r.u32(f"dense[{i}] geometry")
        n_out = r.u32(f"dense[{i}] geometry")
        tag = r.u8(f"dense[{i}] geometry")
        try:
            kind = ActivationKind(tag)
        except ValueError as e:
            raise ParseError(f"dense[{i}] has unknown activation tag {tag}") from e
        if n_in < 1 or n_out < 1:
            raise ParseError(f"dense[{i}] has non-positive extents {n_in}x{n_out}")
        dense_geom.append((n_in, n_out, kind))
    g = conv
    kernels = r.f64_array(
        g.n_kernels * g.in_c * g.k_h * g.k_w, "conv kernels"
    ).reshape(g.n_kernels, g.in_c, g.k_h, g.k_w)
    biases = r.f64_array(g.n_kernels, "conv biases")
    layers = []
    for i, (n_in, n_out, kind) in enumerate(dense_geom):
        w = r.f64_array(n_in * n_out, f"dense[{i}] weights").reshape(n_out, n_in)
        b = r.f64_array(n_out, f"dense[{i}] biases")
        layers.append(DenseLayer(weights=w, biases=b, activation=kind))
    if r.pos != len(blob):
        raise ParseError(f"{len(blob) - r.pos} trailing bytes after parameters")
    try:
        return Network(
            bank=KernelBank(kernels=kernels, biases=biases, geometry=conv),
            conv_activation=ActivationKind.RELU,
            pool=pool,
            dense=layers,
        )
    except ValueError as e:
        raise ParseError(f"inconsistent extents: {e}") from e
