"""The benchmark's workloads: inputs, set-up, one op, verification, and the
call counts each op implies.

Every workload is a closed loop with one caller: the benchmark calls the
library and waits for the result before it starts the next op.

* ``bars_train``: the README example run (synth_bars 200 x 8x8, 6 conv
  kernels of 3x3, pool 2/2, dense 32,2, full batch, alpha 0.05), then
  ``evaluate`` on a held-out bars set. Tiny images and one SGD step per
  epoch, so per-call overhead dominates.
* ``mnist_train``: the MNIST criterion's shape (28x28, 10 classes, 8
  kernels of 5x5, dense 64,10, batch 32, alpha 0.1, 1000 samples) read
  from a seeded synthetic IDX pair through ``dataset_from_idx``, then
  ``save``, ``load`` and ``evaluate`` on a held-out IDX set. Exercises the
  update path, persistence and IDX parsing, with 60x more arithmetic per
  conv call than ``bars_train``.
* ``gradcheck``: ``check_network`` on the README example network (1,886
  parameters), one bars sample per op. Forward-only with N=1, and it
  calls ``losses.loss`` rather than ``ce_grad``.
"""

from __future__ import annotations

import hashlib
import io
import math
import os
import struct
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from convkit import dataio, gradcheck, network as nm
from convkit.layers import ConvGeometry, PoolGeometry, conv_output_dims

# As in the README: big-endian u32 headers, u8 payload.
IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

GRADCHECK_THRESHOLD = 1e-6


def sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def history_csv(history) -> str:
    """The metrics CSV exactly as ``convkit train`` writes it."""
    lines = ["epoch,mean_loss,accuracy"]
    lines += [f"{e},{l:.6f},{a:.6f}" for e, l, a in history]
    return "\n".join(lines) + "\n"


def model_bytes(net: nm.Network) -> bytes:
    buf = io.BytesIO()
    nm.save(net, buf)
    return buf.getvalue()


def param_count(arch: nm.Architecture) -> int:
    g = arch.conv
    widths = (arch.flat_length(),) + tuple(arch.dense_widths)
    return g.n_kernels * (g.in_c * g.k_h * g.k_w + 1) + sum(
        (a + 1) * b for a, b in zip(widths, widths[1:]))


def write_idx_pair(directory: str, stem: str, n: int, seed: int,
                   rows: int = 28, cols: int = 28, classes: int = 10) -> tuple[str, str]:
    """Write a seeded synthetic IDX image/label pair and return the paths.

    Class k draws a two-pixel-wide bar on faint noise: horizontal for the
    first half of the classes, vertical for the rest, at a position set
    by k with one pixel of jitter.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    labels = rng.permutation(np.arange(n) % classes).astype(np.uint8)
    pixels = rng.integers(0, 32, size=(n, rows, cols), dtype=np.uint8)
    half = (classes + 1) // 2
    jitter = rng.integers(0, 2, size=n)
    for i, k in enumerate(labels):
        if k < half:
            r = 2 + int(k) * (rows - 4) // half + int(jitter[i])
            pixels[i, r : r + 2, :] = 255
        else:
            c = 2 + int(k - half) * (cols - 4) // half + int(jitter[i])
            pixels[i, :, c : c + 2] = 255
    img_path = os.path.join(directory, f"{stem}-images-idx3-ubyte")
    lbl_path = os.path.join(directory, f"{stem}-labels-idx1-ubyte")
    with open(img_path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, n, rows, cols))
        f.write(pixels.tobytes())
    with open(lbl_path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABEL_MAGIC, n))
        f.write(labels.tobytes())
    return img_path, lbl_path


@dataclass
class OpResult:
    items: int  # training samples (epochs x n) or parameters checked
    main_s: float  # wall time of network.train or check_network
    job_s: float  # wall time of the whole op
    outputs: Any
    saved_bytes: int = 0  # size of the model file the op wrote
    factor: float = 1.0  # scale from wall time to calibrated time


def _sample_macs(arch: nm.Architecture) -> tuple[int, int]:
    """Multiply-accumulates of one sample through conv and the dense stack."""
    g = arch.conv
    h1, w1, d1 = conv_output_dims(g)
    conv = h1 * w1 * d1 * g.in_c * g.k_h * g.k_w
    widths = (arch.flat_length(),) + tuple(arch.dense_widths)
    dense = sum(a * b for a, b in zip(widths, widths[1:]))
    return conv, dense


def _layer_calls(arch: nm.Architecture, forwards: int, backwards: int) -> dict[str, int]:
    """Calls into the layer functions implied by whole-network passes."""
    n_dense = len(arch.dense_widths)
    return {
        "network.forward": forwards,
        "network.backward": backwards,
        "layers.conv_forward": forwards,
        "layers.maxpool_forward": forwards,
        "layers.dense_forward": n_dense * forwards,
        "tensor.matvec": n_dense * forwards,
        # conv activation, each dense activation, and the output
        # activation backward() recomputes before ce_grad
        "activations.apply": (1 + n_dense) * forwards + backwards,
        "activations.derivative": (1 + n_dense) * backwards,
        "losses.ce_grad": backwards,
        "layers.conv_backward": backwards,
        "layers.maxpool_backward": backwards,
        "layers.dense_backward": n_dense * backwards,
    }


def work_counts(arch: nm.Architecture, forwards: int, backwards: int) -> dict[str, int]:
    """Multiply-accumulates of the given whole-network passes, per layer."""
    conv, dense = _sample_macs(arch)
    return {
        "layers.conv_forward.macs": forwards * conv,
        # kernel gradient: one product per kernel tap per output position
        "layers.conv_backward.macs": backwards * conv,
        "layers.dense_forward.macs": forwards * dense,
        # outer product for the weight gradient plus W^T delta
        "layers.dense_backward.macs": backwards * 2 * dense,
    }


class TrainWorkload:
    """Train from a fresh network, then evaluate a held-out set."""

    name: str
    arch: nm.Architecture
    n: int
    held_out: int
    epochs: int
    batch_size: int
    alpha: float
    persist: bool  # save and reload the model before the held-out evaluate
    load_fn: str  # the dataio function set-up reads the data through
    data_bytes = 0  # IDX bytes one set-up parses

    def __init__(self, seed: int, tmpdir: str):
        self.seed = seed
        self.tmpdir = tmpdir

    def setup(self):
        raise NotImplementedError

    def op(self, state, index: int) -> OpResult:
        train_data, held_data, net = state
        cfg = nm.TrainConfig(learning_rate=self.alpha, epochs=self.epochs,
                             batch_size=self.batch_size, rng_seed=self.seed)
        path = os.path.join(self.tmpdir, "model.cnnf")
        start = time.perf_counter()
        trained, history = nm.train(net, train_data, cfg)
        train_end = time.perf_counter()
        if self.persist:
            nm.save(trained, path)
            evaluated = nm.load(path)
        else:
            evaluated = trained
        held = nm.evaluate(evaluated, held_data)
        end = time.perf_counter()
        return OpResult(items=self.epochs * self.n, main_s=train_end - start,
                        job_s=end - start, outputs=(trained, history, held),
                        saved_bytes=os.path.getsize(path) if self.persist else 0)

    def verify(self, state, result: OpResult, pins: dict | None) -> tuple[list[str], dict]:
        trained, history, held = result.outputs
        problems = []
        blob = model_bytes(trained)
        if model_bytes(nm.load(io.BytesIO(blob))) != blob:
            problems.append("save -> load -> save changed the model bytes")
        if self.persist:
            with open(os.path.join(self.tmpdir, "model.cnnf"), "rb") as f:
                if f.read() != blob:
                    problems.append("the saved model file differs from save() to a stream")
        if len(history) != self.epochs:
            problems.append(f"history has {len(history)} epochs, expected {self.epochs}")
        values = [v for _, l, a in history for v in (l, a)] + list(held)
        if not all(math.isfinite(v) for v in values):
            problems.append("non-finite loss or accuracy")
        digests = {
            "model_sha256": sha256(blob),
            "csv_sha256": sha256(history_csv(history).encode()),
            "model_bytes": len(blob),
        }
        if pins is not None:
            for key in ("model_sha256", "csv_sha256"):
                if digests[key] != pins[key]:
                    problems.append(f"{key} {digests[key]} != pinned {pins[key]}")
        return problems, digests

    def passes(self) -> tuple[int, int]:
        """Whole-network forward and backward passes of one op: a forward and
        a backward per training sample, a forward per sample in the
        per-epoch evaluate, and a forward per held-out sample."""
        return 2 * self.n * self.epochs + self.held_out, self.n * self.epochs

    def expected_calls(self) -> dict[str, int]:
        steps = self.epochs * -(-self.n // self.batch_size)
        calls = _layer_calls(self.arch, *self.passes())
        calls.update({
            self.load_fn: 2,  # training set and held-out set
            "network.init": 1,
            "network.train": 1,
            "network.sgd_step": steps,
            "network.evaluate": self.epochs + 1,  # once per epoch, then held-out
            "losses.loss": self.n * self.epochs + self.held_out,
            "network.save": int(self.persist),
            "network.load": int(self.persist),
        })
        return calls


class BarsTrain(TrainWorkload):
    name = "bars_train"
    arch = nm.Architecture(ConvGeometry(8, 8, 1, 3, 3, 6), PoolGeometry(2, 2), (32, 2))
    n, held_out = 200, 100
    epochs = 1
    batch_size = 200
    alpha = 0.05
    persist = False
    load_fn = "dataio.synth_bars"
    # Passes of the calibration reference loop and its quiet wall time on
    # a 2-vCPU Xeon (Sapphire Rapids) virtual machine; see calibration.py.
    reference = (100, 0.014)

    def setup(self):
        train_data = dataio.synth_bars(self.n, 8, 8, seed=self.seed)
        held_data = dataio.synth_bars(self.held_out, 8, 8, seed=self.seed + 1)
        return train_data, held_data, nm.init(self.arch, self.seed)


class MnistTrain(TrainWorkload):
    name = "mnist_train"
    arch = nm.Architecture(ConvGeometry(28, 28, 1, 5, 5, 8), PoolGeometry(2, 2), (64, 10))
    n, held_out = 1000, 200
    epochs = 1
    batch_size = 32
    alpha = 0.1
    persist = True
    load_fn = "dataio.dataset_from_idx"
    reference = (200, 0.24)

    def __init__(self, seed: int, tmpdir: str):
        super().__init__(seed, tmpdir)
        self.train_files = write_idx_pair(tmpdir, "train", self.n, seed)
        self.held_files = write_idx_pair(tmpdir, "held", self.held_out, seed + 1)
        self.data_bytes = sum(os.path.getsize(p)
                              for p in self.train_files + self.held_files)

    def setup(self):
        train_data = dataio.dataset_from_idx(*self.train_files, class_count=10)
        held_data = dataio.dataset_from_idx(*self.held_files, class_count=10)
        return train_data, held_data, nm.init(self.arch, self.seed)


class Gradcheck:
    """check_network on one sample per op, cycling over the first few."""

    name = "gradcheck"
    arch = BarsTrain.arch
    params = param_count(arch)
    n = 200
    samples = 4
    data_bytes = 0
    reference = (300, 0.042)

    def __init__(self, seed: int, tmpdir: str):
        self.seed = seed

    def setup(self):
        data = dataio.synth_bars(self.n, 8, 8, seed=self.seed)
        return data, nm.init(self.arch, self.seed)

    def op(self, state, index: int) -> OpResult:
        data, net = state
        i = index % self.samples
        before = _param_arrays(net, copy=True)
        start = time.perf_counter()
        report = gradcheck.check_network(net, (data.images[i], data.labels[i]),
                                         threshold=GRADCHECK_THRESHOLD)
        elapsed = time.perf_counter() - start
        return OpResult(items=self.params, main_s=elapsed, job_s=elapsed,
                        outputs=(i, report, before))

    def verify(self, state, result: OpResult, pins: dict | None) -> tuple[list[str], dict]:
        _, net = state
        i, report, before = result.outputs
        rows = [[g, float(mx), float(mean), int(excl), bool(ok)]
                for g, mx, mean, excl, ok in report.rows()]
        problems = []
        if not report.passed:
            problems.append(f"gradcheck failed at {GRADCHECK_THRESHOLD}: {rows}")
        if not all(np.array_equal(a, b) for a, b in zip(before, _param_arrays(net))):
            problems.append("check_network did not restore the parameters")
        if pins is not None and rows != pins["rows"][i]:
            problems.append(f"gradcheck rows for sample {i} differ from the pins: {rows}")
        return problems, {"sample": i, "rows": rows, "passed": report.passed}

    def passes(self) -> tuple[int, int]:
        """Two forwards per parameter, plus the forward and backward that
        give the analytic gradient."""
        return 2 * self.params + 1, 1

    def expected_calls(self) -> dict[str, int]:
        calls = _layer_calls(self.arch, *self.passes())
        calls.update({
            "dataio.synth_bars": 1,
            "network.init": 1,
            "gradcheck.check_network": 1,
            "losses.loss": 2 * self.params,
        })
        return calls


def _param_arrays(net: nm.Network, copy: bool = False) -> list[np.ndarray]:
    arrays = [net.bank.kernels, net.bank.biases]
    for layer in net.dense:
        arrays += [layer.weights, layer.biases]
    return [a.copy() for a in arrays] if copy else arrays


WORKLOADS = {w.name: w for w in (BarsTrain, MnistTrain, Gradcheck)}
