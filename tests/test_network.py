import io
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from convkit import tensor
from convkit import network as nm
from convkit.activations import ActivationKind
from convkit.dataio import Dataset, one_hot, synth_bars
from convkit.errors import (
    DomainError,
    ParseError,
    ShapeError,
    TruncationError,
    UnsupportedError,
)
from convkit.layers import (
    ConvGeometry,
    DenseLayer,
    KernelBank,
    PoolGeometry,
    conv_forward,
    dense_forward,
    maxpool_forward,
)
from convkit.losses import LossKind, loss

FIXTURE_ARCH = nm.Architecture(
    conv=ConvGeometry(8, 8, 1, 3, 3, 2),
    pool=PoolGeometry(2, 2),
    dense_widths=(8, 2),
)


def fixture_net(seed=0):
    return nm.init(FIXTURE_ARCH, seed)


def random_sample(seed):
    rng = np.random.default_rng(seed)
    image = rng.uniform(0.0, 1.0, size=(1, 8, 8))
    label = one_hot(int(rng.integers(0, 2)), 2)
    return image, label


def zero_net():
    bank = KernelBank(
        kernels=np.zeros((2, 1, 3, 3)), biases=np.zeros(2),
        geometry=ConvGeometry(8, 8, 1, 3, 3, 2),
    )
    dense = [
        DenseLayer(np.zeros((8, 18)), np.zeros(8), ActivationKind.RELU),
        DenseLayer(np.zeros((2, 8)), np.zeros(2), ActivationKind.SIGMOID),
    ]
    return nm.Network(bank=bank, conv_activation=ActivationKind.RELU,
                      pool=PoolGeometry(2, 2), dense=dense)


def params_equal(a: nm.Network, b: nm.Network) -> bool:
    if not np.array_equal(a.bank.kernels, b.bank.kernels):
        return False
    if not np.array_equal(a.bank.biases, b.bank.biases):
        return False
    for la, lb in zip(a.dense, b.dense):
        if not np.array_equal(la.weights, lb.weights):
            return False
        if not np.array_equal(la.biases, lb.biases):
            return False
    return True


class TestInit:
    def test_same_seed_bit_identical(self):
        assert params_equal(fixture_net(42), fixture_net(42))

    def test_different_seed_differs(self):
        assert not params_equal(fixture_net(1), fixture_net(2))

    def test_biases_zero(self):
        net = fixture_net(3)
        assert not net.bank.biases.any()
        assert not any(layer.biases.any() for layer in net.dense)

    def test_uniform_law_statistics(self):
        arch = nm.Architecture(
            conv=ConvGeometry(8, 8, 1, 3, 3, 2),
            pool=PoolGeometry(2, 2),
            dense_widths=(100, 2),
        )
        net = nm.init(arch, 7)
        w = net.dense[0].weights  # 100 x 18 draws from U[-a, a], a = 1/sqrt(18)
        a = 1.0 / math.sqrt(18)
        n = w.size
        sigma_mean = a / math.sqrt(3 * n)
        assert abs(np.mean(w)) <= 3 * sigma_mean
        assert np.all((w >= -a) & (w <= a))

    def test_parameter_count_limit(self, monkeypatch):
        # the fixture has 2*9 + 2 conv and 8*18 + 8 + 2*8 + 2 dense parameters
        monkeypatch.setattr(tensor, "MAX_ELEMENTS", 190)
        assert fixture_net(0).params.size == 190
        monkeypatch.setattr(tensor, "MAX_ELEMENTS", 189)
        with pytest.raises(ShapeError, match="190 parameters"):
            fixture_net(0)

    def test_oversized_architecture_rejected_before_allocating(self):
        conv = ConvGeometry(8, 8, 1, 3, 3, 2)
        huge = [
            nm.Architecture(conv, PoolGeometry(2, 2), (1 << 26, 2)),
            nm.Architecture(replace(conv, n_kernels=1 << 27), PoolGeometry(2, 2), (2,)),
        ]
        tracemalloc.start()
        try:
            for arch in huge:
                with pytest.raises(ShapeError, match="parameters"):
                    nm.init(arch, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_bad_chain_rejected(self):
        with pytest.raises(ShapeError):
            nm.Network(
                bank=fixture_net(0).bank,
                conv_activation=ActivationKind.RELU,
                pool=PoolGeometry(2, 2),
                dense=[DenseLayer(np.zeros((4, 17)), np.zeros(4), ActivationKind.RELU)],
            )

    def test_negative_seed_rejected(self):
        with pytest.raises(DomainError):
            nm.init(FIXTURE_ARCH, -1)
        with pytest.raises(DomainError):
            nm.TrainConfig(learning_rate=0.1, epochs=1, batch_size=1, rng_seed=-1)


class TestParamGroups:
    def test_groups_tile_params_in_file_order(self):
        net = fixture_net(30)
        groups = nm.param_groups(net)
        assert [name for name, _, _ in groups] == [
            "conv.kernels", "conv.biases",
            "dense[0].W", "dense[0].b", "dense[1].W", "dense[1].b",
        ]
        start = 0
        for _, sl, shape in groups:
            assert sl.start == start and sl.stop - sl.start == math.prod(shape)
            start = sl.stop
        assert start == net.params.size
        assert net.params.dtype == np.float64 and net.params.flags.c_contiguous
        arrays = [net.bank.kernels, net.bank.biases]
        arrays += [a for layer in net.dense for a in (layer.weights, layer.biases)]
        for (_, sl, shape), array in zip(groups, arrays):
            assert array.shape == shape
            assert np.array_equal(net.params[sl], array.ravel())

    def test_layer_arrays_are_views_into_params(self):
        net = fixture_net(31)
        w = dict((name, sl) for name, sl, _ in nm.param_groups(net))["dense[0].W"]
        net.dense[0].weights[1, 2] = 7.5
        assert net.params[w.start + 1 * net.dense[0].n_in + 2] == 7.5
        net.params[0] = -3.0
        assert net.bank.kernels[0, 0, 0, 0] == -3.0
        net.bank.biases += 1.0
        assert np.array_equal(net.params[18:20], [1.0, 1.0])

    def test_construction_copies_the_given_layers(self):
        # a network built from another's bank and layers must not take
        # over their arrays: each network keeps its arrays tied to its params
        a = fixture_net(35)
        before = a.params.copy()
        b = nm.Network(bank=a.bank, conv_activation=ActivationKind.RELU,
                       pool=a.pool, dense=a.dense)
        b.params[:] = 0.0
        assert np.array_equal(a.params, before)
        assert np.array_equal(a.bank.kernels.ravel(), before[:18])
        a.dense[0].weights[0, 0] = 4.0
        assert a.params[20] == 4.0 and b.params[20] == 0.0

    def test_loaded_network_owns_one_vector(self):
        net = fixture_net(32)
        buf = io.BytesIO()
        nm.save(net, buf)
        loaded = nm.load(io.BytesIO(buf.getvalue()))
        assert np.array_equal(loaded.params, net.params)
        loaded.dense[-1].biases[:] = 9.0
        assert loaded.params[-1] == 9.0
        assert net.params[-1] == 0.0


class TestForward:
    def test_all_zero_net_outputs_half(self):
        image, _ = random_sample(0)
        yhat, _ = nm.forward(zero_net(), image)
        assert np.array_equal(yhat, [0.5, 0.5])

    def test_matches_manual_composition(self):
        net = fixture_net(5)
        image, _ = random_sample(5)
        yhat, _ = nm.forward(net, image)
        _, act, _ = conv_forward(image, net.bank, net.conv_activation)
        pooled, _ = maxpool_forward(act, net.pool)
        a = tensor.flatten(pooled)
        for layer in net.dense:
            _, a, _ = dense_forward(a, layer)
        assert np.array_equal(yhat, a)

    def test_outputs_in_unit_interval(self):
        net = fixture_net(6)
        image, _ = random_sample(6)
        yhat, _ = nm.forward(net, image)
        assert np.all((yhat > 0) & (yhat < 1))

    def test_deterministic(self):
        net = fixture_net(7)
        image, _ = random_sample(7)
        a, _ = nm.forward(net, image)
        b, _ = nm.forward(net, image)
        assert np.array_equal(a, b)

    def test_extent_mismatch(self):
        with pytest.raises(ShapeError):
            nm.forward(fixture_net(0), np.zeros((1, 9, 9)))


class TestBackward:
    def test_saturated_match_gives_zero_gradients(self):
        # Huge final biases drive the sigmoid to exactly 1 and 0, so
        # yhat == y and the error signal vanishes entirely.
        net = fixture_net(8)
        net.dense[-1].weights[:] = 0.0
        net.dense[-1].biases[:] = [760.0, -760.0]
        image, _ = random_sample(8)
        y = np.array([1.0, 0.0])
        yhat, traces = nm.forward(net, image)
        assert np.array_equal(yhat, y)
        grads = nm.backward(net, traces, y)
        assert grads.shape == net.params.shape
        assert np.max(np.abs(grads)) <= 1e-9

    def test_matches_finite_difference_whole_net(self):
        for seed in (11, 12):
            net = fixture_net(seed)
            image, label = random_sample(seed)
            _, traces = nm.forward(net, image)
            grads = nm.backward(net, traces, label)

            def scalar():
                yhat, _ = nm.forward(net, image)
                return loss(LossKind.CROSS_ENTROPY, yhat, label)

            params = net.params
            for idx in range(params.size):
                theta = params[idx]
                h = 1e-5 * max(1.0, abs(theta))
                params[idx] = theta + h
                hi = scalar()
                params[idx] = theta - h
                lo = scalar()
                params[idx] = theta
                numeric = (hi - lo) / (2 * h)
                a = grads[idx]
                scale = max(abs(a), abs(numeric))
                if scale <= 1e-5:
                    assert abs(a - numeric) <= 1e-9
                else:
                    assert abs(a - numeric) / scale <= 1e-6

    def test_matches_finite_difference_random_geometries(self):
        # Random channels, padding, pool overlap, stack depth, and
        # activations; skips perturbations that cross a branch decision.
        rng = np.random.default_rng(777)
        hidden_kinds = [ActivationKind.RELU, ActivationKind.TANH,
                        ActivationKind.SIGMOID, ActivationKind.LEAKY_RELU]
        piecewise = (ActivationKind.RELU, ActivationKind.LEAKY_RELU)

        def random_net():
            from convkit.layers import conv_output_dims, pool_output_dims

            while True:
                in_c = int(rng.integers(1, 3))
                h = int(rng.integers(5, 10))
                w = int(rng.integers(5, 10))
                k = int(rng.integers(1, 4))
                pad = int(rng.integers(0, 2))
                if k > h + 2 * pad or k > w + 2 * pad:
                    continue
                g = ConvGeometry(h, w, in_c, k, k, int(rng.integers(1, 3)), 1, pad)
                h1, w1, d1 = conv_output_dims(g)
                pw = int(rng.integers(1, 4))
                ps = int(rng.integers(1, 4))
                if pw > min(h1, w1) or (h1 - pw) % ps or (w1 - pw) % ps:
                    continue
                pool = PoolGeometry(pw, ps)
                h2, w2, d2 = pool_output_dims(h1, w1, d1, pool)
                depth = int(rng.integers(1, 3))
                widths = [int(rng.integers(2, 7)) for _ in range(depth)]
                layers = []
                n_in = h2 * w2 * d2
                for i, nw in enumerate(widths):
                    kind = (ActivationKind.SIGMOID if i == depth - 1
                            else hidden_kinds[int(rng.integers(0, 4))])
                    layers.append(DenseLayer(
                        rng.uniform(-0.6, 0.6, (nw, n_in)),
                        rng.uniform(-0.3, 0.3, nw), kind))
                    n_in = nw
                bank = KernelBank(
                    rng.uniform(-0.6, 0.6, (g.n_kernels, in_c, k, k)),
                    rng.uniform(-0.3, 0.3, g.n_kernels), g)
                conv_kind = hidden_kinds[int(rng.integers(0, 4))]
                net = nm.Network(bank=bank, conv_activation=conv_kind,
                                 pool=pool, dense=layers)
                image = rng.uniform(0.0, 1.0, (in_c, h, w))
                label = one_hot(int(rng.integers(0, widths[-1])), widths[-1])
                return net, image, label

        def decisions(net, traces):
            parts = []
            if net.conv_activation in piecewise:
                parts.append(traces[0].preact >= 0)
            parts.append(traces[1].argmax_rows)
            parts.append(traces[1].argmax_cols)
            for layer, t in zip(net.dense, traces[2:]):
                if layer.activation in piecewise:
                    parts.append(t.preact >= 0)
            return parts

        for _ in range(8):
            net, image, label = random_net()
            _, traces = nm.forward(net, image)
            grads = nm.backward(net, traces, label)
            params = net.params
            for idx in range(params.size):
                theta = params[idx]
                h = 1e-5 * max(1.0, abs(theta))
                params[idx] = theta + h
                y1, t1 = nm.forward(net, image)
                hi = loss(LossKind.CROSS_ENTROPY, y1, label)
                params[idx] = theta - h
                y2, t2 = nm.forward(net, image)
                lo = loss(LossKind.CROSS_ENTROPY, y2, label)
                params[idx] = theta
                d1, d2 = decisions(net, t1), decisions(net, t2)
                if not all(np.array_equal(a, b) for a, b in zip(d1, d2)):
                    continue
                numeric = (hi - lo) / (2 * h)
                a = grads[idx]
                scale = max(abs(a), abs(numeric))
                if scale <= 3e-5:
                    assert abs(a - numeric) <= 1e-9
                else:
                    assert abs(a - numeric) / scale <= 1e-6

    def test_batch_mean_unchanged_by_duplication(self):
        net = fixture_net(13)
        image, label = random_sample(13)
        _, traces = nm.forward(net, image)
        g = nm.backward(net, traces, label)
        single = nm._mean_grads([g])
        doubled = nm._mean_grads([g, g])
        assert single.shape == net.params.shape
        assert np.max(np.abs(single - doubled)) <= 1e-12

    def test_label_shape_mismatch(self):
        net = fixture_net(14)
        image, _ = random_sample(14)
        _, traces = nm.forward(net, image)
        with pytest.raises(ShapeError):
            nm.backward(net, traces, np.array([1.0, 0.0, 0.0]))


class TestSgdStep:
    def test_update_arithmetic(self):
        net = zero_net()
        net.bank.kernels[:] = 1.0
        kernels = nm.param_groups(net)[0][1]
        grads = np.zeros_like(net.params)
        grads[kernels] = 2.0
        stepped = nm.sgd_step(net, grads, 0.1)
        assert np.allclose(stepped.bank.kernels, 0.8, atol=1e-15)
        assert not stepped.params[kernels.stop:].any()
        # the caller's network is left untouched
        assert np.array_equal(net.bank.kernels, np.ones((2, 1, 3, 3)))

    def test_zero_gradient_fixed_point(self):
        net = fixture_net(15)
        grads = np.zeros_like(net.params)
        assert params_equal(nm.sgd_step(net, grads, 0.5), net)

    def test_quadratic_surrogate_geometric_decay(self):
        # Gradient c*theta makes each parameter decay by (1 - alpha*c) per
        # step; compare against the closed form.
        net = fixture_net(16)
        c, alpha, steps = 2.0, 0.1, 25
        start = net.bank.kernels.copy()
        for _ in range(steps):
            net = nm.sgd_step(net, c * net.params, alpha)
        expected = start * (1 - alpha * c) ** steps
        assert np.allclose(net.bank.kernels, expected, rtol=1e-12, atol=1e-300)
        assert np.max(np.abs(net.bank.kernels)) < np.max(np.abs(start))

    def test_mirror_mismatch_rejected(self):
        # one kernel's worth of gradient too many, too few, or the wrong rank
        net = fixture_net(17)
        n = net.params.size
        for grads in (np.zeros(n + 9), np.zeros(n - 9), np.zeros((1, n))):
            with pytest.raises(ShapeError):
                nm.sgd_step(net, grads, 0.1)

    def test_small_step_decreases_batch_loss(self):
        # first-order descent on 20 random fixtures at alpha = 1e-4
        for seed in range(20):
            net = fixture_net(seed + 200)
            rng = np.random.default_rng(seed + 300)
            batch = [random_sample(seed + 400 + i) for i in range(4)]

            def batch_loss(n):
                return sum(
                    loss(LossKind.CROSS_ENTROPY, nm.forward(n, img)[0], lab)
                    for img, lab in batch
                ) / len(batch)

            grads = nm._mean_grads([
                nm.backward(net, nm.forward(net, img)[1], lab)
                for img, lab in batch
            ])
            norm = math.sqrt(float(np.sum(grads * grads)))
            if norm <= 1e-8:
                continue
            stepped = nm.sgd_step(net, grads, 1e-4)
            assert batch_loss(stepped) < batch_loss(net)


class TestTrain:
    def test_zero_learning_rate_is_noop(self):
        net = fixture_net(18)
        data = synth_bars(8, 8, 8, seed=1)
        cfg = nm.TrainConfig(learning_rate=0.0, epochs=3, batch_size=4, rng_seed=5)
        trained, history = nm.train(net, data, cfg)
        assert params_equal(trained, net)
        assert len({h.mean_loss for h in history}) == 1

    def test_fixed_seed_reproduces_history(self):
        data = synth_bars(12, 8, 8, seed=2)
        cfg = nm.TrainConfig(learning_rate=0.05, epochs=3, batch_size=4, rng_seed=9)
        net_a, hist_a = nm.train(fixture_net(19), data, cfg)
        net_b, hist_b = nm.train(fixture_net(19), data, cfg)
        assert hist_a == hist_b
        assert params_equal(net_a, net_b)

    def test_loss_decreases_on_bars(self):
        data = synth_bars(40, 8, 8, seed=42)
        cfg = nm.TrainConfig(learning_rate=0.05, epochs=5, batch_size=40, rng_seed=42)
        _, history = nm.train(fixture_net(42), data, cfg)
        losses = [h.mean_loss for h in history]
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_empty_dataset_rejected(self):
        data = Dataset(images=[], labels=[], class_count=2)
        cfg = nm.TrainConfig(learning_rate=0.1, epochs=1, batch_size=1, rng_seed=0)
        with pytest.raises(DomainError):
            nm.train(fixture_net(20), data, cfg)

    def test_non_finite_learning_rate_rejected(self):
        for alpha in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="finite"):
                nm.TrainConfig(learning_rate=alpha, epochs=1, batch_size=1, rng_seed=0)

    def test_diverging_run_names_epoch_and_group(self):
        data = synth_bars(8, 8, 8, seed=1)
        cfg = nm.TrainConfig(learning_rate=1e200, epochs=3, batch_size=4, rng_seed=5)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DomainError, match=r"epoch 1: parameter group \S+ went non-finite"):
                nm.train(fixture_net(33), data, cfg)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_non_finite_loss_names_epoch(self):
        # one full-batch step: the parameters stay finite, the loss does not
        data = synth_bars(8, 8, 8, seed=1)
        cfg = nm.TrainConfig(learning_rate=1e200, epochs=1, batch_size=8, rng_seed=5)
        with pytest.raises(DomainError, match="epoch 1: training loss went non-finite"):
            nm.train(fixture_net(33), data, cfg)


class TestEvaluate:
    def test_zero_net_on_balanced_data(self):
        # argmax ties resolve to class 0, which is half the labels
        data = synth_bars(10, 8, 8, seed=3)
        _, accuracy = nm.evaluate(zero_net(), data)
        assert accuracy == 0.5

    def test_singleton_mean_is_plain_loss(self):
        net = fixture_net(21)
        data = synth_bars(2, 8, 8, seed=4)
        single = Dataset(images=data.images[:1], labels=data.labels[:1], class_count=2)
        mean_loss, _ = nm.evaluate(net, single)
        yhat, _ = nm.forward(net, data.images[0])
        assert mean_loss == loss(LossKind.CROSS_ENTROPY, yhat, data.labels[0])

    def test_hand_computed_fixture(self):
        # One all-ones 2x2 kernel, pool covering the whole map, and a
        # +/- readout with biases -2/+2: bright images score class 0,
        # faint images class 1.
        bank = KernelBank(
            kernels=np.ones((1, 1, 2, 2)), biases=np.zeros(1),
            geometry=ConvGeometry(3, 3, 1, 2, 2, 1),
        )
        dense = [DenseLayer(np.array([[1.0], [-1.0]]), np.array([-2.0, 2.0]),
                            ActivationKind.SIGMOID)]
        net = nm.Network(bank=bank, conv_activation=ActivationKind.RELU,
                         pool=PoolGeometry(2, 2), dense=dense)
        bright = np.ones((1, 3, 3))
        faint = np.full((1, 3, 3), 0.1)
        data = Dataset(
            images=[bright, faint, bright, faint],
            labels=[one_hot(0, 2), one_hot(1, 2), one_hot(0, 2), one_hot(0, 2)],
            class_count=2,
        )
        _, accuracy = nm.evaluate(net, data)
        assert accuracy == 0.75

    def test_empty_dataset_rejected(self):
        with pytest.raises(DomainError):
            nm.evaluate(fixture_net(22), Dataset(images=[], labels=[], class_count=2))


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        net = fixture_net(23)
        path = tmp_path / "model.cnnf"
        nm.save(net, str(path))
        loaded = nm.load(str(path))
        assert params_equal(net, loaded)
        assert loaded.pool == net.pool
        assert [l.activation for l in loaded.dense] == [l.activation for l in net.dense]

    def test_round_trip_via_stream(self):
        net = fixture_net(24)
        buf = io.BytesIO()
        nm.save(net, buf)
        loaded = nm.load(io.BytesIO(buf.getvalue()))
        assert params_equal(net, loaded)

    def test_bad_magic(self):
        net = fixture_net(25)
        buf = io.BytesIO()
        nm.save(net, buf)
        blob = b"XXXX" + buf.getvalue()[4:]
        with pytest.raises(ParseError):
            nm.load(io.BytesIO(blob))

    def test_bad_version(self):
        net = fixture_net(26)
        buf = io.BytesIO()
        nm.save(net, buf)
        blob = bytearray(buf.getvalue())
        blob[4:8] = (99).to_bytes(4, "little")
        with pytest.raises(ParseError, match="version"):
            nm.load(io.BytesIO(bytes(blob)))

    def test_truncation_names_section(self):
        net = fixture_net(27)
        buf = io.BytesIO()
        nm.save(net, buf)
        blob = buf.getvalue()
        with pytest.raises(TruncationError, match="conv kernels"):
            nm.load(io.BytesIO(blob[: 16 + 8 * 4 + 2 * 4 + 4 + 2 * 9 + 20]))

    def test_trailing_bytes_rejected(self):
        net = fixture_net(28)
        buf = io.BytesIO()
        nm.save(net, buf)
        with pytest.raises(ParseError, match="trailing"):
            nm.load(io.BytesIO(buf.getvalue() + b"\x00"))

    def test_non_relu_conv_activation_refused(self, tmp_path):
        # load() always reads a ReLU conv layer, so saving tanh would
        # silently change the model's predictions.
        net = fixture_net(34)
        tanh = nm.Network(bank=net.bank, conv_activation=ActivationKind.TANH,
                          pool=net.pool, dense=net.dense)
        path = tmp_path / "tanh.cnnf"
        with pytest.raises(UnsupportedError, match="TANH"):
            nm.save(tanh, str(path))
        assert not path.exists()
        buf = io.BytesIO()
        with pytest.raises(UnsupportedError):
            nm.save(tanh, buf)
        assert buf.getvalue() == b""

    def test_inconsistent_geometry_rejected(self):
        net = fixture_net(29)
        buf = io.BytesIO()
        nm.save(net, buf)
        blob = bytearray(buf.getvalue())
        # corrupt conv stride to 3: (8 + 0 - 3) is not divisible by 3
        blob[8 + 6 * 4 : 8 + 7 * 4] = (3).to_bytes(4, "little")
        with pytest.raises(ParseError):
            nm.load(io.BytesIO(bytes(blob)))
