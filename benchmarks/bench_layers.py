"""pytest-benchmark cases for the layers, ``tensor.matvec`` over row-major
and column-major weights, the loss, the sigmoid and its derivative, the
ReLU derivative at the conv maps, the SGD update and a whole network's
forward and backward at the benchmark's two geometries: bars (8x8 input, 6 kernels of 3x3, 2x2 pool, dense 32,2: first
dense layer 54 -> 32) and MNIST (28x28 input, 8 kernels of 5x5, 2x2 pool,
dense 64,10: first dense layer 1152 -> 64). The conv cases also run a
padded 2-channel bars geometry (8x8x2 input, 6 kernels of 3x3, pad 1),
a path no benchmark workload takes.

``test_check_network`` times the whole gradient oracle on the README
network and bars sample 0, and ``test_train_epoch`` one ``train`` epoch
on bars and on an MNIST-shaped set, recording its minor page faults.

Run from the repository root with::

    PYTHONPATH=src python -m pytest benchmarks --benchmark-only

and add ``--benchmark-json=<file>`` to keep the statistics. Raw wall
times on a shared host move by up to 2x between runs, so each case also
times a fixed numpy reference loop (``reference_s``) just before and just
after it, and records in ``extra_info`` the reference time and its own
median over it (``median_over_reference``). That ratio, not the median,
compares runs minutes apart. The tier-1 suite does not collect this
directory (``testpaths`` is ``tests``), so after deleting or renaming any
library function run every case once; the reference loop is skipped
then::

    PYTHONPATH=src python -m pytest benchmarks --benchmark-disable -q
"""

import resource
import statistics
import time

import numpy as np
import pytest

from convkit import network as nm
from convkit import tensor
from convkit.activations import ActivationKind, apply, derivative
from convkit.dataio import Dataset, synth_bars
from convkit.gradcheck import check_network
from convkit.layers import (
    ConvGeometry,
    DenseLayer,
    KernelBank,
    PoolGeometry,
    conv_backward,
    conv_forward,
    conv_output_dims,
    dense_backward,
    dense_forward,
    maxpool_backward,
    maxpool_forward,
)
from convkit.losses import LossKind, ce_grad, loss

GEOMETRIES = {
    "bars": ConvGeometry(8, 8, 1, 3, 3, 6),
    "mnist": ConvGeometry(28, 28, 1, 5, 5, 8),
}
CONV_GEOMETRIES = {**GEOMETRIES, "bars-2ch-pad1": ConvGeometry(8, 8, 2, 3, 3, 6, pad=1)}
POOL = PoolGeometry(2, 2)
DENSE = {"bars": (54, 32), "mnist": (1152, 64)}  # (n_in, n_out)
WIDTHS = {"bars": (32, 2), "mnist": (64, 10)}

# The reference loop: numpy only, so no change to convkit moves it. It makes
# the kinds of small-array calls the cases make (a gather, a product, an
# axis-0 sum, a max and an argmax along rows) at the MNIST conv map's size.
_REF = np.random.default_rng(5)
REF_MAP = _REF.standard_normal(8 * 24 * 24)
REF_TABLE = _REF.integers(0, REF_MAP.size, (25, 576))
REF_KERNELS = _REF.standard_normal((25, 1))


def reference_s(passes: int = 15, reps: int = 20) -> float:
    """Median seconds of one pass of ``reps`` reference iterations."""
    times = []
    for _ in range(passes):
        start = time.perf_counter()
        for _ in range(reps):
            taps = REF_MAP.take(REF_TABLE)
            sums = np.add.reduce(taps * REF_KERNELS, axis=0)
            np.maximum(0.0, sums).reshape(-1, 4).argmax(axis=1)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


@pytest.fixture(autouse=True)
def reference_ratio(request):
    """Time the reference loop around a timed case and record the case's
    median over the mean of the two reference times."""
    bench = request.getfixturevalue("benchmark")
    if bench.disabled:
        yield
        return
    before = reference_s()
    yield
    ref = (before + reference_s()) / 2
    bench.extra_info["reference_s"] = ref
    if bench.stats is not None:
        bench.extra_info["median_over_reference"] = bench.stats.stats.median / ref


def operands(g: ConvGeometry):
    """A seeded kernel bank, input image and pre-activation gradient."""
    rng = np.random.default_rng(0)
    bound = 1.0 / np.sqrt(g.in_c * g.k_h * g.k_w)
    kernels = rng.uniform(-bound, bound, size=(g.n_kernels, g.in_c, g.k_h, g.k_w))
    bank = KernelBank(kernels=kernels, biases=np.zeros(g.n_kernels), geometry=g)
    image = rng.uniform(0.0, 1.0, size=(g.in_c, g.in_h, g.in_w))
    h1, w1, d1 = conv_output_dims(g)
    return bank, image, rng.standard_normal((d1, h1, w1))


@pytest.mark.parametrize("geometry", CONV_GEOMETRIES)
def test_conv_forward(benchmark, geometry):
    bank, image, _ = operands(CONV_GEOMETRIES[geometry])
    benchmark(conv_forward, image, bank)


@pytest.mark.parametrize("geometry", CONV_GEOMETRIES)
def test_conv_backward(benchmark, geometry):
    bank, image, grad = operands(CONV_GEOMETRIES[geometry])
    benchmark(conv_backward, grad, image, bank)


@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_maxpool_forward(benchmark, geometry):
    bank, image, _ = operands(GEOMETRIES[geometry])
    _, act, _ = conv_forward(image, bank)
    benchmark(maxpool_forward, act, POOL)


@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_maxpool_backward(benchmark, geometry):
    bank, image, _ = operands(GEOMETRIES[geometry])
    _, act, _ = conv_forward(image, bank)
    pooled, trace = maxpool_forward(act, POOL)
    grad = np.random.default_rng(2).standard_normal(pooled.shape)
    benchmark(maxpool_backward, grad, trace)


def dense_operands(geometry: str):
    """A seeded ReLU dense layer, its input and an upstream gradient."""
    n_in, n_out = DENSE[geometry]
    rng = np.random.default_rng(1)
    bound = 1.0 / np.sqrt(n_in)
    weights = rng.uniform(-bound, bound, size=(n_out, n_in))
    layer = DenseLayer(weights, np.zeros(n_out), ActivationKind.RELU)
    return layer, rng.uniform(0.0, 1.0, size=n_in), rng.standard_normal(n_out)


@pytest.mark.parametrize("geometry", DENSE)
def test_dense_forward(benchmark, geometry):
    layer, a_prev, _ = dense_operands(geometry)
    benchmark(dense_forward, a_prev, layer)


@pytest.mark.parametrize("layout", ["row-major", "column-major"])
@pytest.mark.parametrize("geometry", DENSE)
def test_matvec(benchmark, geometry, layout):
    # train and evaluate pass column-major weights (a contiguous W.T);
    # a single forward such as predict passes the row-major ones.
    layer, a_prev, _ = dense_operands(geometry)
    w = layer.weights if layout == "row-major" else np.asfortranarray(layer.weights)
    benchmark(tensor.matvec, w, a_prev)


@pytest.mark.parametrize("geometry", DENSE)
def test_dense_backward(benchmark, geometry):
    layer, a_prev, grad = dense_operands(geometry)
    _, _, trace = dense_forward(a_prev, layer)
    benchmark(dense_backward, grad, layer, trace)


def network_operands(geometry: str):
    """The seed-42 network of a geometry, one seeded sample and its traces."""
    net = nm.init(nm.Architecture(GEOMETRIES[geometry], POOL, WIDTHS[geometry]), 42)
    _, image, _ = operands(GEOMETRIES[geometry])
    label = np.eye(net.class_count)[1]
    _, traces = nm.forward(net, image)
    return net, image, label, traces


@pytest.mark.parametrize("geometry", WIDTHS)
def test_network_forward(benchmark, geometry):
    net, image, _, _ = network_operands(geometry)
    benchmark(nm.forward, net, image)


@pytest.mark.parametrize("geometry", WIDTHS)
def test_network_backward(benchmark, geometry):
    # every round adds one more copy of the gradient into the same buffer
    net, _, label, traces = network_operands(geometry)
    benchmark(nm.backward, net, traces, label, np.zeros_like(net.params))


@pytest.mark.parametrize("geometry", WIDTHS)
def test_sgd_step(benchmark, geometry):
    net, _, label, traces = network_operands(geometry)
    grads = nm.backward(net, traces, label, np.zeros_like(net.params))
    benchmark(nm.sgd_step, net, grads, 0.1)


def epoch_operands(geometry: str):
    """The training set, batch size, learning rate and round count of one
    ``train`` epoch: bars as perfbench's bars_train trains it (200 bars
    samples, full batch, alpha 0.05), and 1,000 seeded 28x28 samples over
    10 classes at batch 32, as in mnist_train."""
    if geometry == "bars":
        return synth_bars(200, 8, 8, seed=42), 200, 0.05, 50
    rng = np.random.default_rng(4)
    images = rng.uniform(0.0, 1.0, size=(1000, 1, 28, 28))
    data = Dataset(images=images, labels=rng.permutation(1000) % 10, class_count=10)
    return data, 32, 0.05, 5


@pytest.mark.parametrize("geometry", WIDTHS)
def test_train_epoch(benchmark, geometry):
    # One train epoch per round, round after round in one process with no
    # set-up in between: on bars, the whole per-sample path. perfbench sets
    # up before every op, so it cannot see the minor page faults that
    # training epoch after epoch takes; extra_info records them per round,
    # the first round cold.
    data, batch_size, alpha, rounds = epoch_operands(geometry)
    net = nm.init(nm.Architecture(GEOMETRIES[geometry], POOL, WIDTHS[geometry]), 42)
    cfg = nm.TrainConfig(learning_rate=alpha, epochs=1, batch_size=batch_size, rng_seed=42)
    faults = []

    def epoch():
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        nm.train(net, data, cfg)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)

    benchmark.pedantic(epoch, rounds=rounds, iterations=1)
    benchmark.extra_info["minor_faults_per_round"] = faults


def output_operands(geometry: str):
    """Seeded output pre-activations and a one-hot label of the geometry's
    class count."""
    k = WIDTHS[geometry][-1]
    z = np.random.default_rng(3).standard_normal(k)
    return z, apply(ActivationKind.SIGMOID, z), np.eye(k)[1]


@pytest.mark.parametrize("geometry", WIDTHS)
def test_sigmoid_apply(benchmark, geometry):
    z, _, _ = output_operands(geometry)
    benchmark(apply, ActivationKind.SIGMOID, z)


@pytest.mark.parametrize("geometry", WIDTHS)
def test_sigmoid_derivative(benchmark, geometry):
    z, _, _ = output_operands(geometry)
    benchmark(derivative, ActivationKind.SIGMOID, z)


@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_relu_derivative(benchmark, geometry):
    # at the pre-activation conv maps, which backward differentiates
    bank, image, _ = operands(GEOMETRIES[geometry])
    preact, _, _ = conv_forward(image, bank)
    benchmark(derivative, ActivationKind.RELU, preact)


@pytest.mark.parametrize("geometry", WIDTHS)
def test_cross_entropy_loss(benchmark, geometry):
    _, yhat, y = output_operands(geometry)
    benchmark(loss, LossKind.CROSS_ENTROPY, yhat, y)


@pytest.mark.parametrize("geometry", WIDTHS)
def test_ce_grad(benchmark, geometry):
    _, yhat, y = output_operands(geometry)
    benchmark(ce_grad, yhat, y)


def test_check_network(benchmark):
    # the gradcheck workload's op: 3,773 forwards of the README network
    data = synth_bars(200, 8, 8, seed=42)
    net = nm.init(nm.Architecture(GEOMETRIES["bars"], POOL, WIDTHS["bars"]), 42)
    sample = (data.images[0], int(data.labels[0]))
    report = benchmark(check_network, net, sample)
    assert report.passed
