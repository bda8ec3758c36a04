import math

import numpy as np
import pytest

from convkit import tensor
from convkit.activations import ActivationKind
from convkit.errors import GeometryError, ShapeError, UnsupportedError
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
    pool_output_dims,
)
from convkit.losses import LossKind, ce_grad, loss

RELU = ActivationKind.RELU
SIGMOID = ActivationKind.SIGMOID


# --- independent oracles -------------------------------------------------


def conv_forward_oracle(image, kernels, biases, stride, pad):
    """Quintuple loop, ascending (c, u, v) accumulation, bias added last."""
    kd, cc, kh, kw = kernels.shape
    padded = np.pad(image, ((0, 0), (pad, pad), (pad, pad)))
    h1 = (image.shape[1] + 2 * pad - kh) // stride + 1
    w1 = (image.shape[2] + 2 * pad - kw) // stride + 1
    out = np.empty((kd, h1, w1))
    for p in range(kd):
        for i in range(h1):
            for j in range(w1):
                acc = 0.0
                for c in range(cc):
                    for u in range(kh):
                        for v in range(kw):
                            acc += kernels[p, c, u, v] * padded[c, i * stride + u,
                                                                j * stride + v]
                out[p, i, j] = acc + biases[p]
    return out


def conv_backward_oracle(grad, image, kernel_shape, pad):
    """Per-tap loop: each kernel gradient is one np.sum over that tap's
    products, the formula the kernel-gradient order is defined by."""
    kd, cc, kh, kw = kernel_shape
    padded = np.pad(image, ((0, 0), (pad, pad), (pad, pad)))
    _, h1, w1 = grad.shape
    out = np.empty(kernel_shape)
    for p in range(kd):
        for c in range(cc):
            for u in range(kh):
                for v in range(kw):
                    out[p, c, u, v] = np.sum(grad[p] * padded[c, u : u + h1, v : v + w1])
    return out


def maxpool_oracle(act, window, stride):
    """Brute-force scan; winner is the first maximum in row-major order."""
    d, h1, w1 = act.shape
    h2 = (h1 - window) // stride + 1
    w2 = (w1 - window) // stride + 1
    pooled = np.empty((d, h2, w2))
    rows = np.empty((d, h2, w2), dtype=int)
    cols = np.empty((d, h2, w2), dtype=int)
    for c in range(d):
        for i in range(h2):
            for j in range(w2):
                best = -math.inf
                for du in range(window):
                    for dv in range(window):
                        v = act[c, i * stride + du, j * stride + dv]
                        if v > best:
                            best = v
                            rows[c, i, j] = i * stride + du
                            cols[c, i, j] = j * stride + dv
                pooled[c, i, j] = best
    return pooled, rows, cols


def sliding_window_count(extent, k, stride, pad):
    """Number of window placements, counted one by one."""
    padded = extent + 2 * pad
    count = 0
    pos = 0
    while pos + k <= padded:
        count += 1
        pos += stride
    return count


def random_bank(rng, in_h, in_w, in_c, k, n_kernels, stride=1, pad=0):
    g = ConvGeometry(in_h, in_w, in_c, k, k, n_kernels, stride, pad)
    return KernelBank(
        kernels=rng.standard_normal((n_kernels, in_c, k, k)),
        biases=rng.standard_normal(n_kernels),
        geometry=g,
    )


# --- dimension formulas --------------------------------------------------


class TestDims:
    def test_conv_dims_28(self):
        g = ConvGeometry(28, 28, 1, 5, 5, 6, 1, 0)
        assert conv_output_dims(g) == (24, 24, 6)

    def test_conv_dims_strided_padded(self):
        g = ConvGeometry(5, 5, 1, 3, 3, 2, 2, 1)
        assert conv_output_dims(g) == (3, 3, 2)

    def test_conv_dims_non_integral_rejected(self):
        with pytest.raises(GeometryError):
            ConvGeometry(5, 5, 1, 4, 4, 1, 2, 0)

    def test_conv_kernel_too_large_rejected(self):
        with pytest.raises(GeometryError):
            ConvGeometry(3, 3, 1, 5, 5, 1, 1, 0)

    def test_pool_dims(self):
        assert pool_output_dims(24, 24, 6, PoolGeometry(2, 2)) == (12, 12, 6)

    def test_pool_window_covers_input(self):
        assert pool_output_dims(4, 4, 1, PoolGeometry(4, 1)) == (1, 1, 1)

    def test_pool_non_integral_rejected(self):
        with pytest.raises(GeometryError):
            pool_output_dims(5, 5, 1, PoolGeometry(2, 2))

    def test_dims_match_window_enumeration(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            h = int(rng.integers(1, 30))
            w = int(rng.integers(1, 30))
            k = int(rng.integers(1, 6))
            stride = int(rng.integers(1, 4))
            pad = int(rng.integers(0, 3))
            nh = sliding_window_count(h, k, stride, pad)
            nw = sliding_window_count(w, k, stride, pad)
            valid = (
                k <= h + 2 * pad
                and k <= w + 2 * pad
                and (h + 2 * pad - k) % stride == 0
                and (w + 2 * pad - k) % stride == 0
            )
            if valid:
                g = ConvGeometry(h, w, 1, k, k, 3, stride, pad)
                assert conv_output_dims(g) == (nh, nw, 3)
            else:
                with pytest.raises(GeometryError):
                    ConvGeometry(h, w, 1, k, k, 3, stride, pad)


# --- convolution ---------------------------------------------------------


class TestConvForward:
    def test_all_ones(self):
        image = np.ones((1, 3, 3))
        bank = KernelBank(
            kernels=np.ones((1, 1, 2, 2)),
            biases=np.zeros(1),
            geometry=ConvGeometry(3, 3, 1, 2, 2, 1),
        )
        preact, act, _ = conv_forward(image, bank, RELU)
        assert np.array_equal(preact, np.full((1, 2, 2), 4.0))
        assert np.array_equal(act, preact)

    def test_delta_kernel_copies_window(self):
        rng = np.random.default_rng(21)
        image = rng.standard_normal((1, 5, 5))
        kernels = np.zeros((1, 1, 3, 3))
        kernels[0, 0, 0, 0] = 1.0
        bank = KernelBank(
            kernels=kernels, biases=np.zeros(1), geometry=ConvGeometry(5, 5, 1, 3, 3, 1)
        )
        preact, _, _ = conv_forward(image, bank, RELU)
        assert np.array_equal(preact[0], image[0, :3, :3])

    def test_bit_identical_to_loop_oracle_small(self):
        rng = np.random.default_rng(22)
        image = rng.standard_normal((1, 4, 4))
        bank = random_bank(rng, 4, 4, 1, 2, 2)
        preact, _, _ = conv_forward(image, bank, RELU)
        expect = conv_forward_oracle(image, bank.kernels, bank.biases, 1, 0)
        assert np.array_equal(preact, expect)

    def test_bit_identical_random_configs(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            in_c = int(rng.integers(1, 4))
            k = int(rng.integers(1, 4))
            stride = int(rng.integers(1, 3))
            pad = int(rng.integers(0, 2))
            # grow the input until the window arithmetic is integral
            h = k + stride * int(rng.integers(1, 5)) - 2 * pad
            w = k + stride * int(rng.integers(1, 5)) - 2 * pad
            if h < 1 or w < 1:
                continue
            image = rng.standard_normal((in_c, h, w))
            bank = random_bank(rng, h, w, in_c, k, int(rng.integers(1, 4)), stride, pad)
            preact, _, _ = conv_forward(image, bank, RELU)
            expect = conv_forward_oracle(image, bank.kernels, bank.biases, stride, pad)
            assert np.array_equal(preact, expect)
        # the MNIST geometry: 28x28 input, 8 kernels of 5x5
        image = rng.standard_normal((1, 28, 28))
        bank = random_bank(rng, 28, 28, 1, 5, 8)
        preact, _, _ = conv_forward(image, bank, RELU)
        expect = conv_forward_oracle(image, bank.kernels, bank.biases, 1, 0)
        assert np.array_equal(preact, expect)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(24)
        bank = random_bank(rng, 4, 4, 1, 2, 2)
        with pytest.raises(ShapeError):
            conv_forward(np.zeros((1, 5, 5)), bank, RELU)

    def test_deterministic(self):
        rng = np.random.default_rng(25)
        image = rng.standard_normal((2, 6, 6))
        bank = random_bank(rng, 6, 6, 2, 3, 2)
        a, _, _ = conv_forward(image, bank, RELU)
        b, _, _ = conv_forward(image, bank, RELU)
        assert np.array_equal(a, b)


class TestConvBackward:
    def test_zero_grad_gives_zero(self):
        rng = np.random.default_rng(26)
        image = rng.standard_normal((1, 4, 4))
        bank = random_bank(rng, 4, 4, 1, 2, 2)
        gk, gb = conv_backward(np.zeros((2, 3, 3)), image, bank)
        assert np.array_equal(gk, np.zeros_like(bank.kernels))
        assert np.array_equal(gb, np.zeros(2))

    def test_single_output_recovers_window(self):
        rng = np.random.default_rng(27)
        image = rng.standard_normal((1, 3, 3))
        bank = random_bank(rng, 3, 3, 1, 3, 1)
        gk, gb = conv_backward(np.ones((1, 1, 1)), image, bank)
        assert np.array_equal(gk[0, 0], image[0])
        assert gb[0] == 1.0

    @pytest.mark.parametrize("pad", [0, 1])
    def test_matches_finite_difference(self, pad):
        # loss = sum(preact) and loss = sum(preact^2)/2, both smooth
        rng = np.random.default_rng(28)
        h = 5
        image = rng.standard_normal((2, h, h))
        bank = random_bank(rng, h, h, 2, 3, 2, 1, pad)
        step = 1e-6

        def total(power):
            preact, _, _ = conv_forward(image, bank, RELU)
            return float(np.sum(preact)) if power == 1 else float(np.sum(preact**2) / 2)

        for power in (1, 2):
            preact, _, _ = conv_forward(image, bank, RELU)
            upstream = np.ones_like(preact) if power == 1 else preact
            gk, gb = conv_backward(upstream, image, bank)
            for params, grads in ((bank.kernels, gk), (bank.biases, gb)):
                for idx in range(params.size):
                    theta = params.flat[idx]
                    hh = step * max(1.0, abs(theta))
                    params.flat[idx] = theta + hh
                    hi = total(power)
                    params.flat[idx] = theta - hh
                    lo = total(power)
                    params.flat[idx] = theta
                    numeric = (hi - lo) / (2 * hh)
                    a = grads.flat[idx]
                    assert abs(a - numeric) / max(abs(a), abs(numeric), 1.0) <= 1e-7

    def test_bit_identical_to_per_tap_sum_oracle(self):
        rng = np.random.default_rng(31)
        # (in_h, in_c, k, n_kernels, pad); the last two cases have maps of
        # 576 and 196 elements, past numpy's pairwise-summation block of 128
        cases = [
            (int(rng.integers(3, 10)), int(rng.integers(1, 4)), int(rng.integers(1, 4)),
             int(rng.integers(1, 5)), int(rng.integers(0, 3)))
            for _ in range(20)
        ] + [(28, 1, 5, 8, 0), (13, 3, 2, 3, 1)]
        for in_h, in_c, k, n_kernels, pad in cases:
            image = rng.standard_normal((in_c, in_h, in_h))
            bank = random_bank(rng, in_h, in_h, in_c, k, n_kernels, 1, pad)
            h1 = in_h + 2 * pad - k + 1
            grad = rng.standard_normal((n_kernels, h1, h1))
            gk, _ = conv_backward(grad, image, bank)
            assert np.array_equal(gk, conv_backward_oracle(grad, image, gk.shape, pad))

    def test_stride_unsupported(self):
        rng = np.random.default_rng(29)
        image = rng.standard_normal((1, 4, 4))
        bank = random_bank(rng, 4, 4, 1, 2, 2, stride=2)
        with pytest.raises(UnsupportedError):
            conv_backward(np.zeros((2, 2, 2)), image, bank)

    def test_rot180_formulation_agrees(self):
        # The kernel gradient as a true convolution against the rotated
        # padded input must match the cross-correlation implementation.
        rng = np.random.default_rng(30)
        for _ in range(20):
            in_c = int(rng.integers(1, 3))
            k = int(rng.integers(1, 4))
            h = k + int(rng.integers(1, 5))
            pad = int(rng.integers(0, 2))
            image = rng.standard_normal((in_c, h, h))
            bank = random_bank(rng, h, h, in_c, k, 2, 1, pad)
            h1, w1, d1 = (
                h + 2 * pad - k + 1,
                h + 2 * pad - k + 1,
                2,
            )
            grad = rng.standard_normal((d1, h1, w1))
            gk, _ = conv_backward(grad, image, bank)
            padded = np.pad(image, ((0, 0), (pad, pad), (pad, pad)))
            hp = h + 2 * pad
            alt = np.zeros_like(gk)
            for p in range(d1):
                for c in range(in_c):
                    rot = tensor.rot180(padded[c])
                    for u in range(k):
                        for v in range(k):
                            acc = 0.0
                            for i in range(h1):
                                for j in range(w1):
                                    acc += rot[hp - 1 - (u + i), hp - 1 - (v + j)] \
                                        * grad[p, i, j]
                            alt[p, c, u, v] = acc
            assert np.max(np.abs(gk - alt)) <= 1e-12


# --- max pooling ---------------------------------------------------------


class TestMaxPool:
    def test_max_of_four(self):
        act = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        pooled, trace = maxpool_forward(act, PoolGeometry(2, 2))
        assert np.array_equal(pooled, [[[4.0]]])
        assert trace.argmax_rows[0, 0, 0] == 1 and trace.argmax_cols[0, 0, 0] == 1

    def test_tie_breaks_to_first_row_major(self):
        act = np.array([[[5.0, 5.0], [1.0, 2.0]]])
        pooled, trace = maxpool_forward(act, PoolGeometry(2, 2))
        assert np.array_equal(pooled, [[[5.0]]])
        assert trace.argmax_rows[0, 0, 0] == 0 and trace.argmax_cols[0, 0, 0] == 0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(31)
        act = rng.standard_normal((3, 6, 6))
        pooled, trace = maxpool_forward(act, PoolGeometry(2, 2))
        exp_pooled, exp_rows, exp_cols = maxpool_oracle(act, 2, 2)
        assert np.array_equal(pooled, exp_pooled)
        assert np.array_equal(trace.argmax_rows, exp_rows)
        assert np.array_equal(trace.argmax_cols, exp_cols)

    def test_matches_brute_force_overlapping(self):
        rng = np.random.default_rng(32)
        act = rng.standard_normal((2, 5, 5))
        pooled, trace = maxpool_forward(act, PoolGeometry(3, 2))
        exp_pooled, exp_rows, exp_cols = maxpool_oracle(act, 3, 2)
        assert np.array_equal(pooled, exp_pooled)
        assert np.array_equal(trace.argmax_rows, exp_rows)
        assert np.array_equal(trace.argmax_cols, exp_cols)

    def test_non_integral_rejected(self):
        with pytest.raises(GeometryError):
            maxpool_forward(np.zeros((1, 5, 5)), PoolGeometry(2, 2))


class TestMaxPoolBackward:
    def test_routes_to_winner(self):
        act = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        _, trace = maxpool_forward(act, PoolGeometry(2, 2))
        out = maxpool_backward(np.array([[[7.0]]]), trace)
        assert np.array_equal(out, [[[0.0, 0.0], [0.0, 7.0]]])

    def test_zero_grad(self):
        rng = np.random.default_rng(33)
        act = rng.standard_normal((2, 4, 4))
        _, trace = maxpool_forward(act, PoolGeometry(2, 2))
        out = maxpool_backward(np.zeros((2, 2, 2)), trace)
        assert np.array_equal(out, np.zeros((2, 4, 4)))

    def test_mass_conserved_non_overlapping(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            act = rng.standard_normal((2, 6, 6))
            _, trace = maxpool_forward(act, PoolGeometry(2, 2))
            grad = rng.standard_normal((2, 3, 3))
            out = maxpool_backward(grad, trace)
            assert math.fsum(out.ravel()) == math.fsum(grad.ravel())

    def test_composed_finite_difference(self):
        # scalar = sum(pooled^2) / 2, so d(scalar)/d(act element) is the
        # pooled value where the element wins and 0 where it loses
        rng = np.random.default_rng(35)
        act = rng.standard_normal((2, 4, 4))
        g = PoolGeometry(2, 2)
        pooled, trace = maxpool_forward(act, g)
        analytic = maxpool_backward(pooled, trace)
        step = 1e-6
        for idx in range(act.size):
            c, i, j = np.unravel_index(idx, act.shape)
            window = act[c, (i // 2) * 2 : (i // 2) * 2 + 2,
                         (j // 2) * 2 : (j // 2) * 2 + 2]
            top2 = np.sort(window.ravel())[-2:]
            if top2[1] - top2[0] < 1e-4:
                continue  # tie neighborhood: max is not differentiable
            saved = act[c, i, j]
            act[c, i, j] = saved + step
            hi = float(np.sum(maxpool_forward(act, g)[0] ** 2) / 2)
            act[c, i, j] = saved - step
            lo = float(np.sum(maxpool_forward(act, g)[0] ** 2) / 2)
            act[c, i, j] = saved
            numeric = (hi - lo) / (2 * step)
            a = analytic[c, i, j]
            assert abs(a - numeric) / max(abs(a), abs(numeric), 1.0) <= 1e-7

    def test_shape_mismatch(self):
        act = np.zeros((1, 4, 4))
        _, trace = maxpool_forward(act, PoolGeometry(2, 2))
        with pytest.raises(ShapeError):
            maxpool_backward(np.zeros((1, 3, 3)), trace)


# --- dense ---------------------------------------------------------------


class TestDenseForward:
    def test_identity_relu(self):
        layer = DenseLayer(np.eye(2), np.zeros(2), RELU)
        z, a, _ = dense_forward(np.array([2.0, 3.0]), layer)
        assert np.array_equal(z, [2.0, 3.0])
        assert np.array_equal(a, [2.0, 3.0])

    def test_zero_weights_sigmoid(self):
        layer = DenseLayer(np.zeros((3, 2)), np.zeros(3), SIGMOID)
        _, a, _ = dense_forward(np.array([9.0, -4.0]), layer)
        assert np.array_equal(a, [0.5, 0.5, 0.5])

    def test_composition_oracle(self):
        from convkit.activations import apply

        rng = np.random.default_rng(36)
        layer = DenseLayer(rng.standard_normal((4, 6)), rng.standard_normal(4), SIGMOID)
        x = rng.standard_normal(6)
        z, a, _ = dense_forward(x, layer)
        assert np.array_equal(z, tensor.matvec(layer.weights, x) + layer.biases)
        assert np.array_equal(a, apply(SIGMOID, z))

    def test_length_mismatch(self):
        layer = DenseLayer(np.zeros((2, 3)), np.zeros(2), RELU)
        with pytest.raises(ShapeError):
            dense_forward(np.zeros(4), layer)


class TestDenseBackward:
    def test_zero_upstream_grad(self):
        rng = np.random.default_rng(37)
        layer = DenseLayer(rng.standard_normal((3, 4)), rng.standard_normal(3), SIGMOID)
        _, _, trace = dense_forward(rng.standard_normal(4), layer)
        gw, gb, gx = dense_backward(np.zeros(3), layer, trace)
        assert not gw.any() and not gb.any() and not gx.any()

    def test_sigmoid_cross_entropy_fixture(self):
        # one sigmoid neuron at z=0 with label 1: bias gradient is 0.5 - 1
        layer = DenseLayer(np.zeros((1, 1)), np.zeros(1), SIGMOID)
        _, a, trace = dense_forward(np.array([0.7]), layer)
        grad = ce_grad(a, np.array([1.0]))
        _, gb, _ = dense_backward(grad, layer, trace)
        assert np.allclose(gb, [-0.5], atol=1e-15)

    def test_two_layer_stack_finite_difference(self):
        rng = np.random.default_rng(38)
        hidden = DenseLayer(rng.standard_normal((5, 6)), rng.standard_normal(5), RELU)
        out = DenseLayer(rng.standard_normal((2, 5)), rng.standard_normal(2), SIGMOID)
        x = rng.standard_normal(6)
        y = np.array([0.0, 1.0])

        def scalar():
            _, a1, _ = dense_forward(x, hidden)
            _, a2, _ = dense_forward(a1, out)
            return loss(LossKind.CROSS_ENTROPY, a2, y)

        z1, a1, t1 = dense_forward(x, hidden)
        assert np.all(np.abs(z1) > 1e-3)  # fixture stays off the ReLU kink
        _, a2, t2 = dense_forward(a1, out)
        g = ce_grad(a2, y)
        gw2, gb2, g = dense_backward(g, out, t2)
        gw1, gb1, gx = dense_backward(g, hidden, t1)

        step = 1e-6
        checks = [
            (out.weights, gw2), (out.biases, gb2),
            (hidden.weights, gw1), (hidden.biases, gb1), (x, gx),
        ]
        worst = 0.0
        for params, grads in checks:
            for idx in range(params.size):
                theta = params.flat[idx]
                h = step * max(1.0, abs(theta))
                params.flat[idx] = theta + h
                hi = scalar()
                params.flat[idx] = theta - h
                lo = scalar()
                params.flat[idx] = theta
                numeric = (hi - lo) / (2 * h)
                a = grads.flat[idx]
                scale = max(abs(a), abs(numeric))
                if scale <= 1e-5:
                    assert abs(a - numeric) <= 1e-9
                else:
                    worst = max(worst, abs(a - numeric) / scale)
        assert worst <= 1e-6

    def test_softmax_layer_rejected(self):
        layer = DenseLayer(np.zeros((2, 2)), np.zeros(2), ActivationKind.SOFTMAX)
        _, _, trace = dense_forward(np.zeros(2), layer)
        with pytest.raises(UnsupportedError):
            dense_backward(np.zeros(2), layer, trace)
