"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest -s tests/test_acceptance.py`` to see them all).

Convergence thresholds were frozen after one calibration run of this
build and are deterministic thereafter (fixed seeds, fixed arithmetic).
"""

import hashlib
import io
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from convkit import network as nm
from convkit.cli import main
from convkit.dataio import Dataset, dataset_from_idx, synth_bars
from convkit.errors import DomainError, GeometryError
from convkit.gradcheck import check_network
from convkit.layers import (
    ConvGeometry,
    KernelBank,
    PoolGeometry,
    conv_backward,
    conv_forward,
    conv_output_dims,
    maxpool_forward,
    pool_output_dims,
)
from convkit.losses import LossKind, ce_grad, loss

from test_layers import (
    conv_forward_oracle,
    flat_winners,
    maxpool_oracle,
    sliding_window_count,
)
from test_tensor import rot180

FIXTURE_ARCH = nm.Architecture(
    conv=ConvGeometry(8, 8, 1, 3, 3, 2),
    pool=PoolGeometry(2, 2),
    dense_widths=(8, 2),
)


def report(name, ok, extra="", status=None):
    status = status or ("PASS" if ok else "FAIL")
    suffix = f" ({extra})" if extra else ""
    print(f"[acceptance] {name}: {status}{suffix}")


def random_sample(rng):
    image = rng.uniform(0.0, 1.0, size=(1, 8, 8))
    return image, int(rng.integers(0, 2))


def test_criterion_1_whole_network_gradient_oracle():
    name = "1 whole-network gradient oracle (20 seeds, <= 1e-6)"
    ok = False
    extra = ""
    try:
        start = time.monotonic()
        worst = 0.0
        excluded = 0
        for seed in range(20):
            net = nm.init(FIXTURE_ARCH, seed)
            rng = np.random.default_rng(1000 + seed)
            rep = check_network(net, random_sample(rng), threshold=1e-6)
            worst = max(worst, max(g.max_rel_err for g in rep.groups))
            excluded += sum(g.n_excluded for g in rep.groups)
            assert rep.passed, rep.format()
        elapsed = time.monotonic() - start
        assert worst <= 1e-6
        assert elapsed <= 30.0, f"took {elapsed:.1f}s"
        extra = f"max_rel_err={worst:.2e}, excluded={excluded}, {elapsed:.1f}s"
        ok = True
    finally:
        report(name, ok, extra)


def test_criterion_2_layer_level_oracles():
    name = "2 layer-level oracles (conv/pool exact, rot-180 <= 1e-12)"
    ok = False
    try:
        rng = np.random.default_rng(60)
        # conv forward: bit-identical to the naive nested loop
        for _ in range(20):
            c = int(rng.integers(1, 3))
            k = int(rng.integers(1, 4))
            h = k + int(rng.integers(1, 6))
            image = rng.standard_normal((c, h, h))
            g = ConvGeometry(h, h, c, k, k, int(rng.integers(1, 4)))
            bank = KernelBank(
                kernels=rng.standard_normal((g.n_kernels, c, k, k)),
                biases=rng.standard_normal(g.n_kernels),
                geometry=g,
            )
            preact, _, _ = conv_forward(image, bank)
            assert np.array_equal(
                preact, conv_forward_oracle(image, bank.kernels, bank.biases, 1, 0)
            )

        # max pooling: identical values and winners vs brute force
        for _ in range(20):
            d = int(rng.integers(1, 4))
            window = int(rng.integers(1, 4))
            stride = int(rng.integers(1, 4))
            h = window + stride * int(rng.integers(0, 5))
            act = rng.standard_normal((d, h, h))
            pooled, trace = maxpool_forward(act, PoolGeometry(window, stride))
            exp_pooled, exp_rows, exp_cols = maxpool_oracle(act, window, stride)
            assert np.array_equal(pooled, exp_pooled)
            assert np.array_equal(trace.winners, flat_winners(exp_rows, exp_cols, act.shape))

        # kernel gradient: rotated-input convolution form vs the
        # cross-correlation implementation
        for _ in range(20):
            c = int(rng.integers(1, 3))
            k = int(rng.integers(1, 4))
            h = k + int(rng.integers(1, 5))
            pad = int(rng.integers(0, 2))
            image = rng.standard_normal((c, h, h))
            g = ConvGeometry(h, h, c, k, k, 2, 1, pad)
            bank = KernelBank(
                kernels=rng.standard_normal((2, c, k, k)),
                biases=np.zeros(2),
                geometry=g,
            )
            h1, w1, d1 = conv_output_dims(g)
            grad = rng.standard_normal((d1, h1, w1))
            gk, _ = conv_backward(grad, image, bank)
            padded = np.pad(image, ((0, 0), (pad, pad), (pad, pad)))
            hp = h + 2 * pad
            alt = np.zeros_like(gk)
            for p in range(d1):
                for cc in range(c):
                    rot = rot180(padded[cc])
                    for u in range(k):
                        for v in range(k):
                            acc = 0.0
                            for i in range(h1):
                                for j in range(w1):
                                    acc += rot[hp - 1 - (u + i), hp - 1 - (v + j)] \
                                        * grad[p, i, j]
                            alt[p, cc, u, v] = acc
            assert np.max(np.abs(gk - alt)) <= 1e-12
        ok = True
    finally:
        report(name, ok)


def test_criterion_3_dimension_formulas():
    name = "3 dimension formulas (1000 configs vs window enumeration)"
    ok = False
    try:
        rng = np.random.default_rng(61)
        valid_seen = 0
        invalid_seen = 0
        for _ in range(1000):
            h = int(rng.integers(1, 40))
            w = int(rng.integers(1, 40))
            k = int(rng.integers(1, 8))
            stride = int(rng.integers(1, 5))
            pad = int(rng.integers(0, 4))
            nh = sliding_window_count(h, k, stride, pad)
            nw = sliding_window_count(w, k, stride, pad)
            fits = k <= h + 2 * pad and k <= w + 2 * pad
            integral = (
                fits
                and (h + 2 * pad - k) % stride == 0
                and (w + 2 * pad - k) % stride == 0
            )
            if integral:
                g = ConvGeometry(h, w, 1, k, k, 4, stride, pad)
                assert conv_output_dims(g) == (nh, nw, 4)
                valid_seen += 1
            else:
                invalid_seen += 1
                with pytest.raises(GeometryError):
                    ConvGeometry(h, w, 1, k, k, 4, stride, pad)
            # pooling formula on an unpadded window slide
            pk = int(rng.integers(1, 6))
            ps = int(rng.integers(1, 4))
            if pk <= h and (h - pk) % ps == 0 and pk <= w and (w - pk) % ps == 0:
                assert pool_output_dims(h, w, 3, PoolGeometry(pk, ps)) == (
                    sliding_window_count(h, pk, ps, 0),
                    sliding_window_count(w, pk, ps, 0),
                    3,
                )
            else:
                with pytest.raises(GeometryError):
                    pool_output_dims(h, w, 3, PoolGeometry(pk, ps))
        assert valid_seen > 0 and invalid_seen > 0
        ok = True
    finally:
        report(name, ok)


def test_criterion_4_bars_convergence():
    name = "4 synthetic bars convergence (held-out accuracy >= 0.95)"
    ok = False
    extra = ""
    try:
        start = time.monotonic()
        arch = nm.Architecture(
            conv=ConvGeometry(8, 8, 1, 3, 3, 6),
            pool=PoolGeometry(2, 2),
            dense_widths=(32, 2),
        )
        train_data = synth_bars(200, 8, 8, seed=42)
        cfg = nm.TrainConfig(
            learning_rate=0.05, epochs=150, batch_size=200, rng_seed=42
        )
        net, history = nm.train(nm.init(arch, 42), train_data, cfg)
        losses = [h.mean_loss for h in history]
        assert all(b < a for a, b in zip(losses[:10], losses[1:10])), \
            "loss not strictly decreasing over the first 10 epochs"
        held_out = synth_bars(100, 8, 8, seed=43)
        _, accuracy = nm.evaluate(net, held_out)
        elapsed = time.monotonic() - start
        assert accuracy >= 0.95, f"held-out accuracy {accuracy}"
        assert elapsed <= 60.0, f"took {elapsed:.1f}s"
        extra = f"accuracy={accuracy:.3f}, {elapsed:.1f}s"
        if golden_skip_reason() is None:
            model = io.BytesIO()
            nm.save(net, model)
            assert hashlib.sha256(model.getvalue()).hexdigest() == CRITERION_4_MODEL_SHA256
        else:
            extra += ", model digest not pinned on this platform"
        ok = True
    finally:
        report(name, ok, extra)


def _mnist_dir():
    root = Path(os.environ.get("CONVKIT_MNIST_DIR", "data/mnist"))
    names = [
        "train-images-idx3-ubyte",
        "train-labels-idx1-ubyte",
        "t10k-images-idx3-ubyte",
        "t10k-labels-idx1-ubyte",
    ]
    if all((root / n).exists() for n in names):
        return root
    return None


def test_criterion_5_mnist_subset():
    name = "5 MNIST subset (test accuracy >= 0.85 in 20 epochs)"
    root = _mnist_dir()
    if root is None:
        report(name, True, "no IDX files under data/mnist", status="SKIP")
        pytest.skip("MNIST IDX files not present")
    ok = False
    extra = ""
    try:
        start = time.monotonic()
        full_train = dataset_from_idx(
            str(root / "train-images-idx3-ubyte"),
            str(root / "train-labels-idx1-ubyte"),
            class_count=10,
        )
        full_test = dataset_from_idx(
            str(root / "t10k-images-idx3-ubyte"),
            str(root / "t10k-labels-idx1-ubyte"),
            class_count=10,
        )
        train_data = Dataset(
            images=full_train.images[:1000],
            labels=full_train.labels[:1000],
            class_count=10,
        )
        test_data = Dataset(
            images=full_test.images[:200],
            labels=full_test.labels[:200],
            class_count=10,
        )
        arch = nm.Architecture(
            conv=ConvGeometry(28, 28, 1, 5, 5, 8),
            pool=PoolGeometry(2, 2),
            dense_widths=(64, 10),
        )
        cfg = nm.TrainConfig(learning_rate=0.1, epochs=20, batch_size=32, rng_seed=42)
        net, _ = nm.train(nm.init(arch, 42), train_data, cfg)
        _, accuracy = nm.evaluate(net, test_data)
        elapsed = time.monotonic() - start
        assert accuracy >= 0.85, f"test accuracy {accuracy}"
        assert elapsed <= 300.0, f"took {elapsed:.1f}s"
        extra = f"accuracy={accuracy:.3f}, {elapsed:.1f}s"
        ok = True
    finally:
        report(name, ok, extra)


def test_criterion_6_loss_suite():
    name = "6 loss suite (properties, domains, gradient, scale relations)"
    ok = False
    try:
        rng = np.random.default_rng(62)
        for _ in range(100):
            t = int(rng.integers(1, 9))
            yhat = rng.uniform(-2.0, 2.0, size=t)
            y = rng.uniform(0.5, 2.0, size=t)
            for kind in (LossKind.MSE, LossKind.L2, LossKind.L1,
                         LossKind.MAE, LossKind.MAPE):
                assert loss(kind, yhat, y) >= 0.0
                assert loss(kind, y.copy(), y) == 0.0
            msle_yhat = rng.uniform(-0.9, 3.0, size=t)
            msle_y = rng.uniform(-0.9, 3.0, size=t)
            assert loss(LossKind.MSLE, msle_yhat, msle_y) >= 0.0
            assert loss(LossKind.MSLE, msle_y.copy(), msle_y) == 0.0
            p = rng.uniform(0.05, 0.95, size=t)
            b = (rng.uniform(size=t) < 0.5).astype(np.float64)
            assert loss(LossKind.CROSS_ENTROPY, p, b) >= 0.0
            assert loss(LossKind.CROSS_ENTROPY, b.copy(), b) <= 1e-11
            # scale relations: the division form is float-exact; the
            # multiplicative form can double-round by one ulp
            assert loss(LossKind.MSE, yhat, y) == loss(LossKind.L2, yhat, y) / t
            assert loss(LossKind.MAE, yhat, y) == loss(LossKind.L1, yhat, y) / t
            assert loss(LossKind.L2, yhat, y) == pytest.approx(
                t * loss(LossKind.MSE, yhat, y), rel=1e-15)
            assert loss(LossKind.L1, yhat, y) == pytest.approx(
                t * loss(LossKind.MAE, yhat, y), rel=1e-15)

        with pytest.raises(DomainError):
            loss(LossKind.MAPE, np.array([1.0, 1.0]), np.array([1.0, 0.0]))

        h = 1e-6
        for _ in range(20):
            t = int(rng.integers(1, 9))
            yhat = rng.uniform(0.05, 0.95, size=t)
            y = (rng.uniform(size=t) < 0.5).astype(np.float64)
            analytic = ce_grad(yhat, y)
            for i in range(t):
                hi, lo = yhat.copy(), yhat.copy()
                hi[i] += h
                lo[i] -= h
                numeric = (
                    loss(LossKind.CROSS_ENTROPY, hi, y)
                    - loss(LossKind.CROSS_ENTROPY, lo, y)
                ) / (2 * h)
                rel = abs(analytic[i] - numeric) / max(abs(analytic[i]), abs(numeric))
                assert rel <= 1e-7
        ok = True
    finally:
        report(name, ok)


# sha256 of the criterion-7 model file and metrics CSV. Float arithmetic
# may round differently elsewhere, so the pins hold only on the platform
# they were measured on.
GOLDEN_MODEL_SHA256 = "2c9d6a31e8f15f084773d682e85ef3f6f1187bb25f920dbce5376c3cdcd978b3"
GOLDEN_CSV_SHA256 = "5f12b8e2ed682ae5596edc6879b4a9d1172fcb10c4b97fa7abfca54f2e8c4d6f"
GOLDEN_PLATFORM = ("2.4.6", (3, 11), "x86_64")
# sha256 of the criterion-4 model file after its 150 epochs.
CRITERION_4_MODEL_SHA256 = "cae1baa547b4faa76e3f2d31f97dcd2458c525966d3731ae5764bcd94a866f6f"


def golden_skip_reason():
    here = (np.__version__, sys.version_info[:2], platform.machine())
    if here == GOLDEN_PLATFORM:
        return None
    return (f"golden digests were measured on numpy 2.4.6 / CPython 3.11 / x86_64, "
            f"this is numpy {here[0]} / CPython {here[1][0]}.{here[1][1]} / {here[2]}")


def test_criterion_7_determinism_and_persistence(tmp_path):
    name = "7 determinism and persistence (byte-identical artifacts)"
    ok = False
    reason = golden_skip_reason()
    try:
        base = """\
conv.kernels=2
conv.size=3
conv.stride=1
conv.pad=0
pool.window=2
pool.stride=2
dense.widths=8,2
train.alpha=0.05
train.epochs=4
train.batch_size=25
train.seed=42
data.source=bars:50,8,8
"""
        for tag in ("a", "b"):
            cfg = tmp_path / f"{tag}.cfg"
            cfg.write_text(
                base
                + f"out.model={tmp_path / f'model-{tag}.cnnf'}\n"
                + f"out.csv={tmp_path / f'metrics-{tag}.csv'}\n"
            )
            assert main(["train", str(cfg)]) == 0
        assert (tmp_path / "model-a.cnnf").read_bytes() == \
            (tmp_path / "model-b.cnnf").read_bytes()
        assert (tmp_path / "metrics-a.csv").read_bytes() == \
            (tmp_path / "metrics-b.csv").read_bytes()

        net = nm.load(str(tmp_path / "model-a.cnnf"))
        data = synth_bars(50, 8, 8, seed=42)
        before = nm.evaluate(net, data)
        resaved = tmp_path / "resaved.cnnf"
        nm.save(net, str(resaved))
        after = nm.evaluate(nm.load(str(resaved)), data)
        assert before == after  # bit-for-bit equal floats

        if reason is None:
            model = (tmp_path / "model-a.cnnf").read_bytes()
            csv = (tmp_path / "metrics-a.csv").read_bytes()
            assert hashlib.sha256(model).hexdigest() == GOLDEN_MODEL_SHA256
            assert hashlib.sha256(csv).hexdigest() == GOLDEN_CSV_SHA256
        ok = True
    finally:
        report(name, ok, extra=f"digests not pinned: {reason}" if reason else "")
    if reason:
        pytest.skip(reason)


def test_criterion_8_mutation_sensitivity(monkeypatch):
    name = "8 mutation sensitivity (three seeded bugs all detected)"
    ok = False
    try:
        square_arch = nm.Architecture(
            conv=ConvGeometry(8, 8, 1, 3, 3, 2),
            pool=PoolGeometry(2, 2),
            dense_widths=(18, 2),
        )
        rng = np.random.default_rng(63)
        sample = random_sample(rng)

        from convkit.activations import derivative as real_derivative
        from convkit.layers import dense_backward as real_dense_backward

        # bug 1: dense backward drops the activation derivative
        with monkeypatch.context() as m:
            m.setattr(
                "convkit.layers.derivative",
                lambda kind, z: np.ones_like(np.asarray(z, dtype=np.float64)),
            )
            rep = check_network(nm.init(FIXTURE_ARCH, 6), sample, threshold=1e-6)
            assert not rep.passed, "dropped-derivative bug not detected"

        # bug 2: propagation through the square layer uses W instead of W^T
        def transposed(grad_a, layer, trace):
            gw, gb, good = real_dense_backward(grad_a, layer, trace)
            if layer.n_in == layer.n_out:
                delta = grad_a * real_derivative(layer.activation, trace.preact)
                return gw, gb, np.cumsum(layer.weights.T * delta[:, None], axis=0)[-1]
            return gw, gb, good

        with monkeypatch.context() as m:
            m.setattr("convkit.network.dense_backward", transposed)
            rep = check_network(nm.init(square_arch, 7), sample, threshold=1e-6)
            assert not rep.passed, "transposed-propagation bug not detected"

        # bug 3: pooling gradient is never routed anywhere
        with monkeypatch.context() as m:
            m.setattr(
                "convkit.network.maxpool_backward",
                lambda grad_pooled, trace: np.zeros_like(trace.input),
            )
            rep = check_network(nm.init(FIXTURE_ARCH, 8), sample, threshold=1e-6)
            assert not rep.passed, "unrouted-pool bug not detected"
        ok = True
    finally:
        report(name, ok)
