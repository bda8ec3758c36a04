import numpy as np
import pytest

from convkit import tensor
from convkit.errors import ShapeError


def rot180(m):
    """Rotate a rank-2 array by 180 degrees: out[i, j] = in[H-1-i, W-1-j].
    The conv oracles use it to state the kernel gradient as a convolution."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"rot180 expects rank 2, got rank {m.ndim}")
    return m[::-1, ::-1].copy()


def rot180_oracle(m):
    """Independent index-reversal reference."""
    h, w = m.shape
    out = np.empty_like(m)
    for i in range(h):
        for j in range(w):
            out[i, j] = m[h - 1 - i, w - 1 - j]
    return out


def matvec_oracle(w, a):
    """Naive double loop, ascending j, single accumulator per row."""
    out = np.empty(w.shape[0])
    for i in range(w.shape[0]):
        acc = 0.0
        for j in range(w.shape[1]):
            acc += w[i, j] * a[j]
        out[i] = acc
    return out


def sum_rows_oracle(p):
    """Running sum down each column, started at the column's first element."""
    out = np.empty(p.shape[1])
    for j in range(p.shape[1]):
        acc = p[0, j]
        for i in range(1, p.shape[0]):
            acc += p[i, j]
        out[j] = acc
    return out


def sum_rows_from_zero_oracle(p):
    """Running sum down each column, started at +0.0."""
    out = np.empty(p.shape[1])
    for j in range(p.shape[1]):
        acc = 0.0
        for i in range(p.shape[0]):
            acc += p[i, j]
        out[j] = acc
    return out


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


class TestConstants:
    def test_zero_and_one_read_only_float64(self):
        for c, value in ((tensor.ZERO, 0.0), (tensor.ONE, 1.0)):
            assert c.shape == () and c.dtype == tensor.F64 == np.float64
            assert c.tobytes() == np.float64(value).tobytes()  # ZERO is +0.0
            with pytest.raises(ValueError):
                c[...] = 5.0
            with pytest.raises(ValueError):
                np.add(c, 1.0, out=c)


class TestRot180:
    def test_small_by_hand(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(rot180(m), np.array([[4.0, 3.0], [2.0, 1.0]]))

    def test_involution(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            m = rng.standard_normal((int(rng.integers(1, 8)), int(rng.integers(1, 8))))
            assert np.array_equal(rot180(rot180(m)), m)

    def test_against_index_oracle(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((3, 5))
        assert np.array_equal(rot180(m), rot180_oracle(m))

    def test_rank1_rejected(self):
        with pytest.raises(ShapeError):
            rot180(np.zeros(3))


class TestMatvec:
    def test_identity(self):
        w = np.eye(2)
        assert np.array_equal(tensor.matvec(w, np.array([2.0, 3.0])), [2.0, 3.0])

    def test_row_sums(self):
        w = np.ones((2, 2))
        assert np.array_equal(tensor.matvec(w, np.array([2.0, 3.0])), [5.0, 5.0])

    def test_bit_identical_to_naive_loop(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal((4, 7))
        a = rng.standard_normal(7)
        assert np.array_equal(tensor.matvec(w, a), matvec_oracle(w, a))

    def test_bit_identical_many_shapes(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n_out = int(rng.integers(1, 40))
            n_in = int(rng.integers(1, 40))
            w = rng.standard_normal((n_out, n_in)) * 10.0 ** rng.integers(-3, 4)
            a = rng.standard_normal(n_in)
            assert np.array_equal(tensor.matvec(w, a), matvec_oracle(w, a))

    @pytest.mark.parametrize("n_out", [1, 2, 64])
    @pytest.mark.parametrize("n_in", [8, 129, 1152, 5000])
    def test_bit_identical_at_layer_sizes(self, n_in, n_out):
        # Long rows, where a pairwise sum (numpy's order along a contiguous
        # axis) would change bits; n_out == 1 is sum_rows's one-column case.
        rng = np.random.default_rng(n_in * 100 + n_out)
        w = rng.standard_normal((n_out, n_in)) * 10.0 ** rng.integers(-6, 7, (n_out, n_in))
        a = rng.standard_normal(n_in)
        assert np.array_equal(bits(tensor.matvec(w, a)), bits(matvec_oracle(w, a)))

    @pytest.mark.parametrize("case", [
        "64x1152", "32x54", "n_out=1", "n_in=1", "all -0.0 products", "nan and inf weights",
    ])
    def test_column_major_weights_same_bytes(self, case):
        # train and evaluate hand matvec column-major weights; the products
        # and their sum order must not depend on the layout.
        n_out, n_in = {"64x1152": (64, 1152), "n_out=1": (1, 300), "n_in=1": (40, 1)}.get(
            case, (32, 54))
        rng = np.random.default_rng(n_out * 10_000 + n_in)
        w = rng.standard_normal((n_out, n_in)) * 10.0 ** rng.integers(-6, 7, (n_out, n_in))
        a = rng.standard_normal(n_in)
        if case == "all -0.0 products":
            w, a = np.zeros((n_out, n_in)), -np.abs(a)
        if case == "nan and inf weights":
            w[3, 7], w[5, 11] = np.nan, np.inf
        out = tensor.matvec(w, a)
        assert tensor.matvec(np.asfortranarray(w), a).tobytes() == out.tobytes()
        if case == "all -0.0 products":
            assert np.signbit(out).all()
        if case == "nan and inf weights":
            assert np.isnan(out[3]) and np.isinf(out[5])

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            tensor.matvec(np.ones((2, 3)), np.ones(4))


class TestSumRows:
    @pytest.mark.parametrize("n_cols", [1, 2])
    def test_ascending_running_sum(self, n_cols):
        rng = np.random.default_rng(7 + n_cols)
        p = rng.standard_normal((5000, n_cols)) * 10.0 ** rng.integers(-6, 7, (5000, n_cols))
        out = tensor.sum_rows(p)
        assert out.shape == (n_cols,)
        assert np.array_equal(bits(out), bits(sum_rows_oracle(p)))
        # the pairwise sum that a contiguous reduction would give differs
        pairwise = np.ascontiguousarray(p.T).sum(axis=1)
        assert not np.array_equal(bits(out), bits(pairwise))

    @pytest.mark.parametrize("n_cols", [1, 2])
    def test_all_negative_zero_column_stays_negative(self, n_cols):
        p = np.full((3, n_cols), -0.0)
        assert np.array_equal(bits(tensor.sum_rows(p)), bits(np.full(n_cols, -0.0)))

    @pytest.mark.parametrize("n_cols", [1, 2])
    def test_positive_zero_start(self, n_cols):
        # random rows, then columns of signed zeros whose +0.0-started sum
        # is +0.0 where the -0.0-started one keeps -0.0
        rng = np.random.default_rng(17 + n_cols)
        p = rng.standard_normal((500, n_cols)) * 10.0 ** rng.integers(-6, 7, (500, n_cols))
        out = tensor.sum_rows(p, initial=0.0)
        assert np.array_equal(bits(out), bits(sum_rows_from_zero_oracle(p)))
        for zeros in ([-0.0, -0.0, -0.0], [-0.0, 0.0, -0.0], [0.0, -0.0, -0.0]):
            p = np.repeat(np.array(zeros)[:, None], n_cols, axis=1)
            out = tensor.sum_rows(p, initial=0.0)
            assert np.array_equal(bits(out), bits(sum_rows_from_zero_oracle(p)))
            assert not np.signbit(out).any()


def test_finite_in_finite_out():
    rng = np.random.default_rng(6)
    w = rng.standard_normal((5, 5)) * 1e8
    a = rng.standard_normal(5) * 1e8
    for out in (tensor.matvec(w, a), rot180(w)):
        assert np.all(np.isfinite(out))
