import contextlib
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from convkit import layers, tensor
from convkit.activations import ActivationKind
from convkit.errors import GeometryError, ShapeError, UnsupportedError
from convkit.layers import (
    ConvGeometry,
    DenseLayer,
    KernelBank,
    PoolGeometry,
    conv_backward,
    conv_forward,
    _taps,
    conv_output_dims,
    dense_backward,
    dense_forward,
    maxpool_backward,
    maxpool_forward,
    pool_output_dims,
)
from convkit.losses import LossKind, ce_grad, loss
from test_tensor import rot180

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


def flat_winners(rows, cols, input_shape):
    """Flat C-order positions in a (d, h1, w1) input of the winners at
    absolute (rows, cols), channel c holding pooled map c."""
    d, h1, w1 = input_shape
    return (np.arange(d)[:, None, None] * h1 + rows) * w1 + cols


def strided_taps_oracle(image, g):
    """The earlier ``_taps``: a read-only (in_c, k_h, k_w, h1, w1) strided
    view of the zero-padded C-order image, kept as a bit-level oracle for
    the gather through the cached table."""
    image = np.ascontiguousarray(image, dtype=np.float64)
    if g.pad:
        image = np.pad(image, ((0, 0), (g.pad, g.pad), (g.pad, g.pad)))
    h1, w1, _ = conv_output_dims(g)
    sc, sh, sw = image.strides
    shape = (g.in_c, g.k_h, g.k_w, h1, w1)
    strides = (sc, sh, sw, sh * g.stride, sw * g.stride)
    taps = np.ndarray(shape, np.float64, buffer=image, strides=strides)
    taps.flags.writeable = False
    return taps


def strided_conv_forward_oracle(image, bank):
    """The earlier conv_forward pre-activation, over the strided tap view."""
    g = bank.geometry
    h1, w1, d1 = conv_output_dims(g)
    n_taps = g.in_c * g.k_h * g.k_w
    taps = strided_taps_oracle(image, g)
    kernels = bank.kernels.reshape(d1, n_taps).T[:, :, None, None]
    products = np.multiply(kernels, taps.reshape(n_taps, 1, h1, w1), order="C")
    preact = tensor.sum_rows(products.reshape(n_taps, -1), initial=0.0)
    return preact.reshape(d1, h1, w1) + bank.biases[:, None, None]


def strided_conv_backward_oracle(grad, image, bank):
    """The earlier conv_backward kernel gradient, over the strided tap view."""
    g = bank.geometry
    h1, w1, d1 = conv_output_dims(g)
    taps = strided_taps_oracle(image, g)
    products = np.multiply(grad[:, None, None, None], taps[None], order="C")
    return products.reshape(d1, g.in_c, g.k_h, g.k_w, h1 * w1).sum(axis=-1)


def random_geometry(rng, stride=None):
    """A conv geometry with in_c 1-3, pad 0-2, stride 1-2 and independent
    kernel and input heights and widths, integral by construction."""
    in_c, k_h, k_w = (int(x) for x in rng.integers(1, 4, 3))
    k_w += int(rng.integers(0, 2))  # non-square kernels
    stride = stride or int(rng.integers(1, 3))
    pad = int(rng.integers(0, 3))
    in_h = max(k_h - 2 * pad, 0) + stride * int(rng.integers(1, 6))
    in_w = max(k_w - 2 * pad, 0) + stride * int(rng.integers(1, 6))
    # keep (in + 2*pad - k) a multiple of the stride
    in_h += (k_h - in_h - 2 * pad) % stride
    in_w += (k_w - in_w - 2 * pad) % stride
    return ConvGeometry(in_h, in_w, in_c, k_h, k_w, int(rng.integers(1, 4)), stride, pad)


def plane_loop_maxpool_oracle(act, window, stride):
    """The earlier maxpool_forward, which copies the k*k window planes one
    slice assignment at a time, kept as a bit-level oracle for the
    strided-view version."""
    act = np.asarray(act, dtype=np.float64)
    d1, h1, w1 = act.shape
    h2, w2, d2 = pool_output_dims(h1, w1, d1, PoolGeometry(window, stride))
    s, k = stride, window
    planes = np.empty((k * k, d2, h2, w2))
    for du in range(k):
        for dv in range(k):
            planes[du * k + dv] = act[:, du : du + (h2 - 1) * s + 1 : s,
                                      dv : dv + (w2 - 1) * s + 1 : s]
    flat_win = np.argmax(planes, axis=0)
    pooled = planes.reshape(k * k, -1)[flat_win.ravel(), np.arange(flat_win.size)]
    pooled = pooled.reshape(flat_win.shape)
    rows = np.arange(h2)[None, :, None] * s + flat_win // k
    cols = np.arange(w2)[None, None, :] * s + flat_win % k
    return pooled, rows, cols


def maxpool_backward_oracle(grad, rows, cols, input_shape):
    """Pooled row-major loop adding each gradient at its winner into zeros."""
    out = np.zeros(input_shape)
    d, h2, w2 = grad.shape
    for c in range(d):
        for i in range(h2):
            for j in range(w2):
                out[c, rows[c, i, j], cols[c, i, j]] += grad[c, i, j]
    return out


def transpose_matvec_oracle(w, delta):
    """W^T delta as a double loop: ascending i, one accumulator per column,
    started at the first product (a saturated sigmoid's delta holds signed
    zeros, and 0.0 + -0.0 would lose the sign)."""
    n_out, n_in = w.shape
    out = np.empty(n_in)
    for j in range(n_in):
        acc = w[0, j] * delta[0]
        for i in range(1, n_out):
            acc += w[i, j] * delta[i]
        out[j] = acc
    return out


def sliding_window_count(extent, k, stride, pad):
    """Number of window placements, counted one by one."""
    padded = extent + 2 * pad
    count = 0
    pos = 0
    while pos + k <= padded:
        count += 1
        pos += stride
    return count


def cached_arrays():
    """Every array the layer cache holds: the conv tables, and each pool
    entry's row table and its two parts."""
    arrays = []
    for entry in layers._TABLES.values():
        arrays += [entry] if isinstance(entry, np.ndarray) else entry[:3]
    return arrays


def axis0_maxpool_oracle(act, window, stride):
    """The earlier maxpool_forward, which gathers the k*k window planes
    through the (entries, outputs) table and takes the argmax across them
    (axis 0); kept as a bit-level oracle for the row gather."""
    act = np.asarray(act, dtype=np.float64)
    d1, h1, w1 = act.shape
    h2, w2, d2 = pool_output_dims(h1, w1, d1, PoolGeometry(window, stride))
    table = layers._window_table(act.shape, (1, window, window), stride)
    sel = act.take(table).argmax(axis=0)
    winners = (table[:, 0].take(sel) + table[0]).reshape(d2, h2, w2)
    return act.take(winners), winners


def one_slab_conv_forward_oracle(image, bank):
    """The earlier conv_forward pre-activation, which forms the whole
    bank's (taps, d1*h1*w1) products at once; kept as a bit-level oracle
    for the kernel groups."""
    g = bank.geometry
    h1, w1, d1 = g.output_dims
    taps = _taps(np.ascontiguousarray(image, dtype=np.float64), g)
    kernels = bank.kernels.reshape(d1, -1, 1).swapaxes(0, 1)
    products = np.multiply(kernels, taps[:, None, :], order="C")
    preact = tensor.sum_rows(products.reshape(len(taps), -1), initial=0.0)
    return preact.reshape(d1, h1, w1) + bank.biases[:, None, None]


def one_slab_conv_backward_oracle(grad, image, bank):
    """The earlier conv_backward, which forms the whole bank's
    (d1, taps, h1*w1) products at once; kept as a bit-level oracle for the
    kernel groups."""
    g = bank.geometry
    h1, w1, d1 = g.output_dims
    taps = _taps(np.ascontiguousarray(image, dtype=np.float64), g)
    products = np.multiply(grad.reshape(d1, 1, h1 * w1), taps[None], order="C")
    grad_kernels = products.sum(axis=-1).reshape(bank.kernels.shape)
    return grad_kernels, np.ascontiguousarray(grad).reshape(d1, -1).sum(axis=1)


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

    def test_output_dims_kept_once_and_not_compared(self):
        g = ConvGeometry(8, 8, 2, 3, 3, 6, 1, 1)
        assert g.output_dims == conv_output_dims(g) == (8, 8, 6)
        assert replace(g, pad=0).output_dims == (6, 6, 6)
        same = ConvGeometry(8, 8, 2, 3, 3, 6, 1, 1)
        object.__setattr__(same, "output_dims", (0, 0, 0))
        assert same == g and hash(same) == hash(g)
        assert "output_dims" not in repr(g)

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
        preact, act, _ = conv_forward(image, bank)
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
        preact, _, _ = conv_forward(image, bank)
        assert np.array_equal(preact[0], image[0, :3, :3])

    def test_bit_identical_to_loop_oracle_small(self):
        rng = np.random.default_rng(22)
        image = rng.standard_normal((1, 4, 4))
        bank = random_bank(rng, 4, 4, 1, 2, 2)
        preact, _, _ = conv_forward(image, bank)
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
            preact, _, _ = conv_forward(image, bank)
            expect = conv_forward_oracle(image, bank.kernels, bank.biases, stride, pad)
            assert np.array_equal(preact, expect)
        # the MNIST geometry: 28x28 input, 8 kernels of 5x5
        image = rng.standard_normal((1, 28, 28))
        bank = random_bank(rng, 28, 28, 1, 5, 8)
        preact, _, _ = conv_forward(image, bank)
        expect = conv_forward_oracle(image, bank.kernels, bank.biases, 1, 0)
        assert np.array_equal(preact, expect)

    @pytest.mark.parametrize(
        "in_c,h,w,k,n_kernels,stride",
        [
            (1, 5, 5, 5, 1, 1),  # one output element over 25 taps
            (3, 4, 4, 4, 1, 1),  # one output element over 48 taps
            (2, 9, 4, 4, 3, 1),  # one output column
            (1, 8, 4, 4, 4, 1),  # one output column, one channel
            (1, 3, 9, 3, 2, 2),  # one output row, strided
        ],
    )
    def test_bit_identical_thin_outputs(self, in_c, h, w, k, n_kernels, stride):
        # Few output elements per kernel, where a sum over the taps could
        # run along a contiguous axis and be pairwise.
        rng = np.random.default_rng(26 + h * w)
        bank = random_bank(rng, h, w, in_c, k, n_kernels, stride)
        bank.kernels *= 10.0 ** rng.integers(-6, 7, bank.kernels.shape)
        image = rng.standard_normal((in_c, h, w))
        preact, _, _ = conv_forward(image, bank)
        expect = conv_forward_oracle(image, bank.kernels, bank.biases, stride, 0)
        assert np.array_equal(preact.view(np.int64), expect.view(np.int64))

    @pytest.mark.parametrize("k", [2, 5])
    def test_signed_zero_sums_start_at_positive_zero(self, k):
        # All products are -0.0 (a zero image times negative kernels) and
        # the biases are -0.0: the oracle's acc = 0.0 makes every sum +0.0,
        # where a sum started at -0.0 or at the first product stays -0.0.
        g = ConvGeometry(6, 6, 2, k, k, 3)
        bank = KernelBank(
            kernels=-np.ones((3, 2, k, k)), biases=np.full(3, -0.0), geometry=g
        )
        image = np.zeros((2, 6, 6))
        preact, _, _ = conv_forward(image, bank)
        expect = conv_forward_oracle(image, bank.kernels, bank.biases, 1, 0)
        assert not np.signbit(expect).any()
        assert np.array_equal(preact.view(np.int64), expect.view(np.int64))

    def test_shape_mismatch(self):
        rng = np.random.default_rng(24)
        bank = random_bank(rng, 4, 4, 1, 2, 2)
        with pytest.raises(ShapeError):
            conv_forward(np.zeros((1, 5, 5)), bank)

    def test_deterministic(self):
        rng = np.random.default_rng(25)
        image = rng.standard_normal((2, 6, 6))
        bank = random_bank(rng, 6, 6, 2, 3, 2)
        a, _, _ = conv_forward(image, bank)
        b, _, _ = conv_forward(image, bank)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("stride, pad", [(1, 0), (2, 0), (1, 1)])
    def test_non_contiguous_image_same_bits(self, stride, pad):
        rng = np.random.default_rng(26)
        bank = random_bank(rng, 7, 7, 2, 3, 3, stride, pad)
        image = rng.standard_normal((2, 7, 7))
        want, _, _ = conv_forward(image, bank)
        read_only = image.copy()
        read_only.flags.writeable = False
        row_gaps = np.pad(image, ((0, 0), (0, 0), (0, 1)))[..., :-1]
        for view in (np.asfortranarray(image), row_gaps,
                     np.stack([image, image], axis=-1)[..., 1], read_only):
            got, _, trace = conv_forward(view, bank)
            assert got.tobytes() == want.tobytes()
            assert trace.input.tobytes() == image.tobytes()


class TestGatherTables:
    """The conv gather against the strided tap view it replaced, and the
    safety of the cached index tables."""

    def test_taps_match_strided_view(self):
        rng = np.random.default_rng(80)
        for _ in range(60):
            g = random_geometry(rng)
            image = rng.standard_normal((g.in_c, g.in_h, g.in_w))
            want = strided_taps_oracle(image, g)
            got = _taps(image, g)
            n_taps = g.in_c * g.k_h * g.k_w
            assert got.shape == (n_taps, want.shape[3] * want.shape[4]), g
            assert got.tobytes() == want.reshape(n_taps, -1).tobytes(), g

    def test_conv_passes_match_strided_view(self):
        rng = np.random.default_rng(81)
        seen = set()
        for n in range(60):
            g = random_geometry(rng, stride=1 if n % 2 else None)
            seen.add((g.in_c, g.pad, g.stride, g.in_h != g.in_w, g.k_h != g.k_w))
            bank = KernelBank(
                kernels=rng.standard_normal((g.n_kernels, g.in_c, g.k_h, g.k_w))
                * 10.0 ** rng.integers(-6, 7, (g.n_kernels, g.in_c, g.k_h, g.k_w)),
                biases=rng.standard_normal(g.n_kernels),
                geometry=g,
            )
            image = rng.standard_normal((g.in_c, g.in_h, g.in_w))
            preact, _, _ = conv_forward(image, bank)
            assert preact.tobytes() == strided_conv_forward_oracle(image, bank).tobytes(), g
            if g.stride == 1:
                grad = rng.standard_normal(preact.shape)
                gk, _ = conv_backward(grad, image, bank)
                want = strided_conv_backward_oracle(grad, image, bank)
                assert gk.tobytes() == want.tobytes(), g
        assert {s[0] for s in seen} == {1, 2, 3} and {s[1] for s in seen} == {0, 1, 2}
        assert {s[2] for s in seen} == {1, 2} and all(any(s[i] for s in seen) for i in (3, 4))

    def test_tables_read_only_and_outputs_not_views(self):
        rng = np.random.default_rng(82)
        bank = random_bank(rng, 6, 8, 2, 3, 3, pad=1)
        image = rng.standard_normal((2, 6, 8))
        pool = PoolGeometry(2, 2)

        def run():
            preact, act, conv_trace = conv_forward(image, bank)
            pooled, pool_trace = maxpool_forward(act, pool)
            taps = _taps(image, bank.geometry)
            return [preact, act, conv_trace.preact, pooled, pool_trace.winners, taps]

        outputs = run()
        want = [a.copy() for a in outputs]
        assert ((2, 8, 10), (2, 3, 3), 1) in layers._TABLES  # the padded conv input
        assert (outputs[1].shape, 2, 2) in layers._TABLES  # the pool entry of the conv map
        tables = cached_arrays()
        for table in tables:
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table.flat[0] = 0
        for out in outputs:
            assert not any(np.shares_memory(out, t) for t in tables)
            out[...] = -7
        for got, expect in zip(run(), want):
            assert got.tobytes() == expect.tobytes()

    def test_cache_stays_bounded(self):
        # conv tables and pool entries share the one bound
        for n in range(1, 2 * layers._MAX_TABLES):
            g = ConvGeometry(n + 2, 3, 1, 3, 3, 1)
            _taps(np.zeros((1, n + 2, 3)), g)
            assert ((1, n + 2, 3), (1, 3, 3), 1) in layers._TABLES
            assert len(layers._TABLES) <= layers._MAX_TABLES
            maxpool_forward(np.zeros((1, 2 * n, 2)), PoolGeometry(2, 2))
            assert ((1, 2 * n, 2), 2, 2) in layers._TABLES
            assert len(layers._TABLES) <= layers._MAX_TABLES

    def test_refused_pool_geometry_caches_nothing(self, monkeypatch):
        monkeypatch.setattr(layers, "_TABLES", {})
        for _ in range(2):
            with pytest.raises(GeometryError):
                maxpool_forward(np.zeros((1, 5, 5)), PoolGeometry(2, 2))
        assert layers._TABLES == {}

    def test_pool_entry_is_rows_and_parts(self, monkeypatch):
        # maxpool_forward reads a winner as per_entry[sel] + per_output
        monkeypatch.setattr(layers, "_TABLES", {})
        for shape, g in (((6, 6, 6), PoolGeometry(2, 2)), ((2, 9, 7), PoolGeometry(3, 2)),
                         ((3, 5, 5), PoolGeometry(3, 1))):
            rows, per_entry, per_output, pooled_shape = layers._pool_windows(shape, g)
            table = layers._window_table(shape, (1, g.window, g.window), g.stride)
            assert np.array_equal(rows, table.T) and rows.flags.c_contiguous
            assert np.array_equal(rows, per_output[:, None] + per_entry)
            d1, h1, w1 = shape
            h2, w2, d2 = pool_output_dims(h1, w1, d1, g)
            assert pooled_shape == (d2, h2, w2)
            assert rows.shape == (d2 * h2 * w2, g.window**2)

    @staticmethod
    def build_peak(monkeypatch, builder, *args):
        """A table build on an empty cache and its tracemalloc peak in bytes."""
        monkeypatch.setattr(layers, "_TABLES", {})
        tracemalloc.start()
        try:
            return builder(*args), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_table_builds_make_no_full_size_temporary(self, monkeypatch):
        # Each table is one broadcast add of small parts, so the build
        # peak stays near the bytes it returns.
        # A 3x3 conv over an 8x8 image padded by 100, then 2x2/2 pooling
        # of six 200x200 maps.
        for args in (((1, 208, 208), (1, 3, 3), 1), ((6, 200, 200), (1, 2, 2), 2)):
            table, peak = self.build_peak(monkeypatch, layers._window_table, *args)
            assert table.nbytes > 1 << 20 and peak <= 1.5 * table.nbytes

    GEOMETRIES = [
        # conv taps of a padded image: the window spans every channel
        pytest.param((1, 208, 208), (1, 3, 3), 1, id="tap-g0"),  # 8x8, pad 100
        pytest.param((2, 11, 9), (2, 3, 1), 2, id="tap-g1"),  # 9x7, 3x1, stride 2, pad 1
        pytest.param((3, 5, 6), (3, 1, 1), 1, id="tap-g2"),  # 5x6, 1x1
        # pool windows over (d1, h1, w1) maps: one channel each
        pytest.param((6, 200, 200), (1, 2, 2), 2, id="g0-6-200-200"),
        pytest.param((2, 7, 9), (1, 3, 3), 2, id="g1-2-7-9"),
        pytest.param((3, 4, 5), (1, 1, 1), 1, id="g2-3-4-5"),
    ]

    @pytest.mark.parametrize("shape, window, stride", GEOMETRIES)
    def test_window_table_matches_index_expression(self, shape, window, stride):
        (n_c, n_h, n_w), (k_c, k_h, k_w) = shape, window
        c, u, v = np.indices(window).reshape(3, -1, 1)
        out_h, out_w = (n_h - k_h) // stride + 1, (n_w - k_w) // stride + 1
        b, i, j = np.indices((n_c // k_c, out_h, out_w)).reshape(3, 1, -1)
        rows, cols = i * stride + u, j * stride + v
        want = ((b * k_c + c) * n_h + rows) * n_w + cols
        assert np.array_equal(layers._window_table(shape, window, stride), want)

    @pytest.mark.parametrize("shape, window, stride", GEOMETRIES)
    def test_window_table_is_entry_part_plus_output_part(self, shape, window, stride):
        # maxpool_forward reads a winner as table[:, 0][sel] + table[0]
        table = layers._window_table(shape, window, stride)
        assert table[0, 0] == 0
        assert np.array_equal(table, table[:, :1] + table[:1])


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

    def test_shape_mismatch(self):
        rng = np.random.default_rng(24)
        bank = random_bank(rng, 4, 4, 1, 2, 2)
        bad_image = np.zeros((1, 5, 5))
        with pytest.raises(ShapeError) as forward:
            conv_forward(bad_image, bank)
        with pytest.raises(ShapeError) as backward:
            conv_backward(np.zeros((2, 3, 3)), bad_image, bank)
        assert str(backward.value) == str(forward.value)
        for grad in (np.zeros((2, 4, 4)), np.zeros((3, 3, 3)), np.zeros(18)):
            with pytest.raises(ShapeError, match="grad shape"):
                conv_backward(grad, np.zeros((1, 4, 4)), bank)

    @pytest.mark.parametrize("pad", [0, 1])
    def test_matches_finite_difference(self, pad):
        # loss = sum(preact) and loss = sum(preact^2)/2, both smooth
        rng = np.random.default_rng(28)
        h = 5
        image = rng.standard_normal((2, h, h))
        bank = random_bank(rng, h, h, 2, 3, 2, 1, pad)
        step = 1e-6

        def total(power):
            preact, _, _ = conv_forward(image, bank)
            return float(np.sum(preact)) if power == 1 else float(np.sum(preact**2) / 2)

        for power in (1, 2):
            preact, _, _ = conv_forward(image, bank)
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

    def test_non_contiguous_image_same_bits(self):
        rng = np.random.default_rng(32)
        image = rng.standard_normal((2, 6, 6))
        bank = random_bank(rng, 6, 6, 2, 3, 2)
        grad = rng.standard_normal((2, 4, 4))
        want = conv_backward(grad, image, bank)
        for view in (np.asfortranarray(image), np.stack([image, image], axis=-1)[..., 0]):
            got = conv_backward(grad, view, bank)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))

    # (in_h, in_c, k, n_kernels, pad): the bars, MNIST, padded bars and
    # 2-channel geometries; maps of 6x6, 24x24, 8x8 and 6x6
    BIAS_GEOMETRIES = [(8, 1, 3, 6, 0), (28, 1, 5, 8, 0), (8, 2, 3, 6, 1), (8, 2, 3, 4, 0)]

    @pytest.mark.parametrize("case", BIAS_GEOMETRIES)
    def test_bias_gradient_bit_identical_to_axis_sum(self, case):
        # The earlier np.sum(grad, axis=(1, 2)) is the oracle on C-order maps.
        in_h, in_c, k, n_kernels, pad = case
        rng = np.random.default_rng(33)
        bank = random_bank(rng, in_h, in_h, in_c, k, n_kernels, 1, pad)
        image = rng.standard_normal((in_c, in_h, in_h))
        h1 = in_h + 2 * pad - k + 1
        for _ in range(50):
            scale = 10.0 ** rng.uniform(-5, 5, size=(n_kernels, 1, 1))
            grad = rng.standard_normal((n_kernels, h1, h1)) * scale
            _, gb = conv_backward(grad, image, bank)
            assert gb.tobytes() == np.sum(grad, axis=(1, 2)).tobytes()

    def test_bias_gradient_of_non_contiguous_grad_is_row_sum(self):
        # Any layout sums each map's values in row-major order.
        rng = np.random.default_rng(34)
        bank = random_bank(rng, 8, 8, 1, 3, 6)
        image = rng.standard_normal((1, 8, 8))
        base = rng.standard_normal((6, 6, 6)) * 10.0 ** rng.uniform(-5, 5, size=(6, 6, 6))
        for view in (np.asfortranarray(base), base.transpose(0, 2, 1),
                     np.repeat(base, 2, axis=2)[:, :, ::2]):
            _, gb = conv_backward(view, image, bank)
            rows = np.ascontiguousarray(view).reshape(6, -1)
            assert gb.tobytes() == np.array([np.sum(row) for row in rows]).tobytes()

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
                    rot = rot180(padded[c])
                    for u in range(k):
                        for v in range(k):
                            acc = 0.0
                            for i in range(h1):
                                for j in range(w1):
                                    acc += rot[hp - 1 - (u + i), hp - 1 - (v + j)] \
                                        * grad[p, i, j]
                            alt[p, c, u, v] = acc
            assert np.max(np.abs(gk - alt)) <= 1e-12


class TestConvKernelGroups:
    """conv_forward and conv_backward form their products one kernel group
    of at most ``tensor.SLAB_BYTES`` at a time. Against the whole-bank
    passes they replaced and the loop oracles, with the budget lowered so
    that groups of one and of two kernels and a ragged last group occur:
    equal bytes, dtype included."""

    GEOMETRIES = [
        pytest.param(ConvGeometry(8, 8, 1, 3, 3, 6), id="bars"),
        pytest.param(ConvGeometry(8, 8, 2, 3, 3, 5, pad=1), id="2ch-pad1"),
        pytest.param(ConvGeometry(9, 9, 2, 3, 3, 5, stride=2), id="stride2"),
        pytest.param(ConvGeometry(5, 5, 1, 5, 5, 5), id="thin-1x1"),
        pytest.param(ConvGeometry(4, 4, 3, 4, 4, 5), id="thin-1x1-3ch"),
    ]
    # kernels per group; every geometry above has 5 or 6 kernels, so 4
    # leaves a ragged last group on each
    GROUPS = [1, 2, 4]

    @staticmethod
    def kernel_bytes(g):
        h1, w1, _ = g.output_dims
        return 8 * g.in_c * g.k_h * g.k_w * h1 * w1

    @classmethod
    def lower_budget(cls, monkeypatch, g, group):
        # the largest budget that still holds `group` kernels, and no more
        monkeypatch.setattr(tensor, "SLAB_BYTES", (group + 1) * cls.kernel_bytes(g) - 1)

    @staticmethod
    def spy_groups(monkeypatch):
        """Kernel counts of the groups each pass forms, in call order."""
        seen = []
        for name in ("_tap_sums", "_window_sums"):
            def spy(operand, taps, real=getattr(layers, name)):
                seen.append(operand.shape[0])
                return real(operand, taps)
            monkeypatch.setattr(layers, name, spy)
        return seen

    @staticmethod
    def bank(rng, g, scale=True):
        kernels = rng.standard_normal((g.n_kernels, g.in_c, g.k_h, g.k_w))
        if scale:
            kernels *= 10.0 ** rng.integers(-6, 7, kernels.shape)
        return KernelBank(kernels, rng.standard_normal(g.n_kernels), g)

    @staticmethod
    def images(rng, g):
        """Finite images, images with NaNs of one sign or with infinities
        (every NaN a sum meets then has one sign), and images with NaNs of
        both signs and infinities, the last flagged."""
        shape = (g.in_c, g.in_h, g.in_w)

        def spiked(*values):
            image = rng.standard_normal(shape)
            for value in values:
                image[rng.random(shape) < 0.1] = value
            return image

        scaled = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 7, shape)
        return [(scaled, False), (spiked(np.nan), False), (spiked(-np.nan), False),
                (spiked(np.inf, -np.inf), False),
                (spiked(np.nan, -np.nan, np.inf, -np.inf), True)]

    @staticmethod
    def same_bytes(got, want):
        assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @staticmethod
    def same_values(got, want):
        """Equal bytes outside the NaNs, and NaNs at the same places. Where
        NaNs of both signs meet in a sum, the sign it keeps follows the
        operand order numpy's add loop takes at that column, which is
        swapped in a loop's last partial vector; grouping moves columns
        in and out of that tail, and the loop oracles add scalars."""
        nan = np.isnan(want)
        assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()

    def check(self, image, bank, grad, mixed_nans=False):
        g = bank.geometry
        same = self.same_values if mixed_nans else self.same_bytes
        preact, _, _ = conv_forward(image, bank)
        same(preact, one_slab_conv_forward_oracle(image, bank))
        same(preact, conv_forward_oracle(image, bank.kernels, bank.biases, g.stride, g.pad))
        if g.stride == 1:
            gk, gb = conv_backward(grad, image, bank)
            want_k, want_b = one_slab_conv_backward_oracle(grad, image, bank)
            same(gk, want_k)
            self.same_bytes(gb, want_b)
            same(gk, conv_backward_oracle(grad, image, gk.shape, g.pad))

    @pytest.mark.parametrize("group", GROUPS)
    @pytest.mark.parametrize("g", GEOMETRIES)
    def test_groups_match_whole_bank(self, monkeypatch, g, group):
        rng = np.random.default_rng(90 + group)
        self.lower_budget(monkeypatch, g, group)
        seen = self.spy_groups(monkeypatch)
        bank = self.bank(rng, g)
        images = self.images(rng, g)
        h1, w1, d1 = g.output_dims
        for image, mixed_nans in images:
            # inf - inf is NaN in the images with infinities, by design
            infinite = np.isinf(image).any()
            with np.errstate(invalid="ignore") if infinite else contextlib.nullcontext():
                self.check(image, bank, rng.standard_normal((d1, h1, w1)), mixed_nans)
        sizes = [min(group, d1 - k) for k in range(0, d1, group)]
        passes = 2 if g.stride == 1 else 1
        assert len(sizes) > 1 and seen == sizes * passes * len(images)

    @pytest.mark.parametrize("group", GROUPS)
    @pytest.mark.parametrize("g", GEOMETRIES)
    def test_signed_zero_groups(self, monkeypatch, g, group):
        # Every product, forward and backward, is -0.0 and the biases are
        # -0.0: every forward sum starts at +0.0 and reads +0.0.
        self.lower_budget(monkeypatch, g, group)
        shape = (g.n_kernels, g.in_c, g.k_h, g.k_w)
        bank = KernelBank(-np.ones(shape), np.full(g.n_kernels, -0.0), g)
        image = np.zeros((g.in_c, g.in_h, g.in_w))
        h1, w1, d1 = g.output_dims
        self.check(image, bank, -np.ones((d1, h1, w1)))
        preact, _, _ = conv_forward(image, bank)
        assert not np.signbit(preact).any()

    def test_budget_floor_and_one_kernel_minimum(self, monkeypatch):
        # A budget one byte short of two kernels holds one; a budget
        # smaller than one kernel still holds one.
        g = ConvGeometry(8, 8, 1, 3, 3, 6)
        rng = np.random.default_rng(95)
        bank, (image, _) = self.bank(rng, g), self.images(rng, g)[0]
        grad = rng.standard_normal((6, 6, 6))
        for budget, sizes in ((2 * self.kernel_bytes(g) - 1, [1] * 6), (1, [1] * 6),
                              (2 * self.kernel_bytes(g), [2, 2, 2]),
                              (6 * self.kernel_bytes(g), [6])):
            monkeypatch.setattr(tensor, "SLAB_BYTES", budget)
            seen = self.spy_groups(monkeypatch)
            self.check(image, bank, grad)
            assert seen == sizes * 2, budget
            monkeypatch.undo()

    @staticmethod
    def peak(call):
        call()  # warm the table cache
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("g, bound", [
        pytest.param(ConvGeometry(28, 28, 1, 5, 5, 8), 512 << 10, id="mnist"),
        pytest.param(ConvGeometry(8, 8, 1, 3, 3, 6), None, id="bars"),
    ])
    def test_peak_bytes_of_one_call(self, monkeypatch, g, bound):
        # The whole bank's products take 900 KiB at MNIST and one kernel's
        # 112.5 KiB. The bars bank fits one group, so its peak must not grow
        # over the whole-bank pass, which an unbounded budget forces.
        rng = np.random.default_rng(96)
        bank = self.bank(rng, g, scale=False)
        image = rng.standard_normal((g.in_c, g.in_h, g.in_w))
        h1, w1, d1 = g.output_dims
        grad = rng.standard_normal((d1, h1, w1))
        calls = (lambda: conv_forward(image, bank),
                 lambda: conv_backward(grad, image, bank))
        for call in calls:
            peak = self.peak(call)
            with monkeypatch.context() as m:
                m.setattr(tensor, "SLAB_BYTES", tensor.MAX_BYTES)
                whole = self.peak(call)
            if bound is None:
                assert peak <= whole
            else:
                assert peak < bound < whole


# --- max pooling ---------------------------------------------------------


class TestMaxPool:
    def test_max_of_four(self):
        act = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        pooled, trace = maxpool_forward(act, PoolGeometry(2, 2))
        assert np.array_equal(pooled, [[[4.0]]])
        assert trace.winners[0, 0, 0] == 1 * 2 + 1  # row 1, col 1

    def test_tie_breaks_to_first_row_major(self):
        act = np.array([[[5.0, 5.0], [1.0, 2.0]]])
        pooled, trace = maxpool_forward(act, PoolGeometry(2, 2))
        assert np.array_equal(pooled, [[[5.0]]])
        assert trace.winners[0, 0, 0] == 0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(31)
        act = rng.standard_normal((3, 6, 6))
        pooled, trace = maxpool_forward(act, PoolGeometry(2, 2))
        exp_pooled, exp_rows, exp_cols = maxpool_oracle(act, 2, 2)
        assert np.array_equal(pooled, exp_pooled)
        assert np.array_equal(trace.winners, flat_winners(exp_rows, exp_cols, act.shape))

    def test_matches_brute_force_overlapping(self):
        rng = np.random.default_rng(32)
        act = rng.standard_normal((2, 5, 5))
        pooled, trace = maxpool_forward(act, PoolGeometry(3, 2))
        exp_pooled, exp_rows, exp_cols = maxpool_oracle(act, 3, 2)
        assert np.array_equal(pooled, exp_pooled)
        assert np.array_equal(trace.winners, flat_winners(exp_rows, exp_cols, act.shape))

    def test_non_integral_rejected(self):
        with pytest.raises(GeometryError):
            maxpool_forward(np.zeros((1, 5, 5)), PoolGeometry(2, 2))

    @pytest.mark.parametrize("window,stride,size", [(2, 2, 8), (3, 2, 9)])
    def test_signed_zero_ties_keep_first_max_bits(self, window, stride, size):
        # Windows whose maximum is a -0.0/0.0 tie: the pooled value is the
        # first one's bits. The map is built directly, since a ReLU map
        # holds no -0.0 (np.maximum(0.0, -0.0) is +0.0).
        rng = np.random.default_rng(39)
        act = rng.choice(np.array([-0.0, 0.0, -1.0, 0.5]), size=(4, size, size))
        pooled, _ = maxpool_forward(act, PoolGeometry(window, stride))
        expect, _, _ = maxpool_oracle(act, window, stride)
        zero_signs = np.signbit(expect[expect == 0.0])
        assert zero_signs.any() and not zero_signs.all()  # both zeros win somewhere
        assert np.array_equal(pooled.view(np.int64), expect.view(np.int64))


POOL_WINDOWS = [(2, 2, 8), (3, 2, 9), (3, 1, 7)]  # (window, stride, size)


class TestMaxPoolPlaneLoopOracle:
    """maxpool_forward against the plane-loop code it replaced: the pooled
    bytes and the winner coordinates, dtype included, must be equal."""

    @staticmethod
    def check(act, window, stride):
        pooled, trace = maxpool_forward(act, PoolGeometry(window, stride))
        expect, rows, cols = plane_loop_maxpool_oracle(act, window, stride)
        assert pooled.shape == expect.shape
        assert pooled.tobytes() == expect.tobytes()
        want = flat_winners(rows, cols, act.shape)
        got = trace.winners
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        return pooled

    @pytest.mark.parametrize("window,stride,size", POOL_WINDOWS)
    def test_random_maps(self, window, stride, size):
        act = np.random.default_rng(61).standard_normal((4, size, size))
        self.check(act, window, stride)

    @pytest.mark.parametrize("window,stride,size", POOL_WINDOWS)
    def test_signed_zero_ties_from_leaky_relu(self, window, stride, size):
        # The -0.0/0.0 ties a leaky ReLU would pass through, built directly.
        rng = np.random.default_rng(62)
        act = rng.choice(np.array([-0.0, 0.0, -1.0, 0.5]), size=(5, size, size))
        assert np.signbit(act[act == 0.0]).any()
        self.check(act, window, stride)

    @pytest.mark.parametrize("window,stride,size", POOL_WINDOWS)
    def test_nan_wins_its_windows(self, window, stride, size):
        act = np.random.default_rng(63).standard_normal((2, size, size))
        act[0, 1, 1] = np.nan
        act[1, size - 1, 0] = -np.nan
        pooled = self.check(act, window, stride)
        assert np.isnan(pooled[0]).any() and np.isnan(pooled[1]).any()

    @pytest.mark.parametrize("window,stride,size", POOL_WINDOWS)
    def test_non_contiguous_input(self, window, stride, size):
        rng = np.random.default_rng(64)
        big = rng.choice(np.array([-0.0, 0.0, 1.0, 2.0]), size=(3, 2 * size, size + 3))
        for act in (big[:, ::2, 2:2 + size], big[:, 1::2, :size].transpose(0, 2, 1),
                    np.asfortranarray(big[:, :size, :size])):
            assert not act.flags.c_contiguous
            before = act.copy()
            self.check(act, window, stride)
            assert act.tobytes() == before.tobytes()


class TestMaxPoolAxis0Oracle:
    """maxpool_forward against the axis-0 gather it replaced, on maps full
    of the values a tie-break can see: equal pooled bytes and equal
    winners, dtype included."""

    GEOMETRIES = [
        pytest.param((6, 6, 6), 2, 2, id="bars"),
        pytest.param((8, 24, 24), 2, 2, id="mnist"),
        pytest.param((3, 8, 8), 2, 2, id="two-channel-net"),
        pytest.param((2, 7, 7), 3, 1, id="window3-stride1"),
        pytest.param((2, 9, 9), 3, 2, id="window3-stride2"),
    ]
    VALUES = np.array([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, -np.nan, 0.5])

    @staticmethod
    def check(act, window, stride):
        pooled, trace = maxpool_forward(act, PoolGeometry(window, stride))
        want_pooled, want_winners = axis0_maxpool_oracle(act, window, stride)
        assert pooled.shape == want_pooled.shape
        assert pooled.tobytes() == want_pooled.tobytes()
        got = trace.winners
        assert got.dtype == want_winners.dtype and got.shape == want_winners.shape
        assert np.array_equal(got, want_winners)

    @pytest.mark.parametrize("shape, window, stride", GEOMETRIES)
    def test_special_values(self, shape, window, stride):
        rng = np.random.default_rng(65)
        for weights in ([1, 1, 0, 0, 0, 0, 0, 0, 0], [2, 2, 1, 1, 1, 1, 1, 1, 1],
                        [1, 1, 1, 1, 1, 1, 1, 1, 1], [3, 3, 1, 1, 1, 1, 0, 0, 1]):
            act = rng.choice(self.VALUES, size=shape, p=np.divide(weights, sum(weights)))
            self.check(act, window, stride)

    @pytest.mark.parametrize("shape, window, stride", GEOMETRIES)
    def test_signed_zero_ties_both_ways(self, shape, window, stride):
        # every window holds only zeros: the first one's sign must win
        rng = np.random.default_rng(66)
        act = rng.choice(np.array([0.0, -0.0]), size=shape)
        self.check(act, window, stride)
        pooled, _ = maxpool_forward(act, PoolGeometry(window, stride))
        assert np.signbit(pooled).any() and not np.signbit(pooled).all()

    @pytest.mark.parametrize("shape, window, stride", GEOMETRIES)
    def test_all_equal_windows(self, shape, window, stride):
        for value in (2.5, -0.0, np.inf, -np.inf, np.nan, -np.nan):
            act = np.full(shape, value)
            self.check(act, window, stride)
            _, trace = maxpool_forward(act, PoolGeometry(window, stride))
            d1, h1, w1 = shape
            i = np.arange(trace.winners.shape[1])[:, None] * stride
            j = np.arange(trace.winners.shape[2]) * stride
            first = (np.arange(d1)[:, None, None] * h1 + i) * w1 + j
            assert np.array_equal(trace.winners, first)  # each window's first entry

    @pytest.mark.parametrize("shape, window, stride", GEOMETRIES)
    def test_nans_of_both_signs_and_infinities(self, shape, window, stride):
        rng = np.random.default_rng(67)
        act = rng.standard_normal(shape)
        for value, frac in ((np.nan, 0.1), (-np.nan, 0.1), (np.inf, 0.05), (-np.inf, 0.05)):
            act[rng.random(shape) < frac] = value
        self.check(act, window, stride)

    def test_geometries_sharing_a_map_shape(self):
        # each (window, stride) over one map shape reads its own entry
        act = np.random.default_rng(69).choice(self.VALUES, size=(2, 9, 9))
        for _ in range(2):
            for window, stride in ((3, 2), (3, 3), (3, 1), (1, 2), (1, 1), (9, 1), (5, 4)):
                self.check(act, window, stride)

    @pytest.mark.parametrize("shape, window, stride", GEOMETRIES)
    def test_cached_entry_serves_repeat_calls(self, shape, window, stride):
        # the second call reads the entry the first one cached
        rng = np.random.default_rng(68)
        for _ in range(3):
            act = rng.choice(self.VALUES, size=shape)
            self.check(act, window, stride)


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

    @pytest.mark.parametrize("window,stride,size", [(2, 2, 8), (3, 2, 9), (3, 1, 7)])
    def test_bit_identical_to_loop_oracle(self, window, stride, size):
        # Overlapping windows route several gradients to one winner; the
        # sums run in pooled row-major order from 0.0, so -0.0 gradients
        # land as +0.0 and mixed magnitudes keep their order's rounding.
        rng = np.random.default_rng(36 + window * 10 + stride)
        act = rng.choice(np.array([0.0, 1.0, 2.0]), size=(3, size, size))
        pooled, trace = maxpool_forward(act, PoolGeometry(window, stride))
        grad = rng.standard_normal(pooled.shape) * 10.0 ** rng.integers(-8, 9, pooled.shape)
        grad[rng.random(pooled.shape) < 0.3] = -0.0
        out = maxpool_backward(grad, trace)
        _, rows, cols = maxpool_oracle(act, window, stride)
        assert np.array_equal(trace.winners, flat_winners(rows, cols, act.shape))
        expect = maxpool_backward_oracle(grad, rows, cols, act.shape)
        assert np.array_equal(out.view(np.int64), expect.view(np.int64))

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

    @pytest.mark.parametrize("tag", [0, 2, np.uint8(2), 2.0])
    def test_activation_becomes_a_kind(self, tag):
        layer = DenseLayer(np.zeros((1, 1)), np.zeros(1), tag)
        assert type(layer.activation) is ActivationKind and layer.activation == tag

    @pytest.mark.parametrize("tag", [1, 3, 4, 5, 255, -1, 2.5, None, "RELU"])
    def test_unknown_activation_refused(self, tag):
        # save() writes the tag as given, so a layer load() would refuse
        # must not be built; 1, 3 and 4 once tagged tanh, leaky ReLU and
        # softmax layers.
        with pytest.raises(UnsupportedError, match="unknown activation"):
            DenseLayer(np.zeros((1, 1)), np.zeros(1), tag)


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

    @pytest.mark.parametrize(
        "n_out,n_in", [(9, 1), (64, 1), (1, 5), (2, 129), (10, 64), (64, 1152)]
    )
    def test_grad_input_bit_identical_to_loop_oracle(self, n_out, n_in):
        # n_in == 1 is tensor.sum_rows's one-column case
        rng = np.random.default_rng(n_out * 10000 + n_in)
        w = rng.standard_normal((n_out, n_in)) * 10.0 ** rng.integers(-6, 7, (n_out, n_in))
        layer = DenseLayer(w, rng.standard_normal(n_out), SIGMOID)
        _, _, trace = dense_forward(rng.standard_normal(n_in), layer)
        _, gb, gx = dense_backward(rng.standard_normal(n_out), layer, trace)
        expect = transpose_matvec_oracle(layer.weights, gb)  # gb is delta
        assert np.array_equal(gx.view(np.int64), expect.view(np.int64))
