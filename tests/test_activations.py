import numpy as np
import pytest

from convkit.activations import ActivationKind, apply, derivative, softmax
from convkit.errors import ShapeError, UnsupportedError


def central_diff_oracle(kind, z, h=1e-6):
    return (apply(kind, z + h) - apply(kind, z - h)) / (2.0 * h)


class TestApply:
    def test_sigmoid_at_zero(self):
        assert np.array_equal(apply(ActivationKind.SIGMOID, np.array([0.0])), [0.5])

    def test_relu(self):
        out = apply(ActivationKind.RELU, np.array([-3.0, 0.0, 3.0]))
        assert np.array_equal(out, [0.0, 0.0, 3.0])

    def test_softmax_symmetry(self):
        out = softmax(np.array([0.0, 0.0]))
        assert np.allclose(out, [0.5, 0.5], atol=1e-15)

    def test_softmax_needs_rank1(self):
        with pytest.raises(ShapeError):
            softmax(np.zeros((2, 2)))

    def test_ranges(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal(100) * 5
        sig = apply(ActivationKind.SIGMOID, z)
        assert np.all((sig > 0) & (sig < 1))

    @pytest.mark.parametrize("tag", [1, 3, 4])
    def test_unknown_kind_refused(self, tag):
        # 1, 3 and 4 once tagged tanh, leaky ReLU and softmax layers.
        with pytest.raises(UnsupportedError):
            apply(tag, np.array([0.0]))
        with pytest.raises(UnsupportedError):
            derivative(tag, np.array([0.0]))


class TestDerivative:
    def test_sigmoid_at_zero(self):
        assert np.array_equal(derivative(ActivationKind.SIGMOID, np.array([0.0])), [0.25])

    def test_relu_at_kink_takes_right_branch(self):
        assert np.array_equal(derivative(ActivationKind.RELU, np.array([0.0])), [1.0])

    @pytest.mark.parametrize("kind", [ActivationKind.SIGMOID])
    def test_matches_central_difference(self, kind):
        rng = np.random.default_rng(7)
        z = rng.uniform(-4.0, 4.0, size=20)
        analytic = derivative(kind, z)
        numeric = central_diff_oracle(kind, z)
        rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic))
        assert np.max(rel) <= 1e-8


class TestProperties:
    def test_relu_idempotent(self):
        rng = np.random.default_rng(8)
        z = rng.standard_normal(50)
        once = apply(ActivationKind.RELU, z)
        assert np.array_equal(apply(ActivationKind.RELU, once), once)

    def test_softmax_sums_to_one(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            z = rng.standard_normal(int(rng.integers(1, 10))) * 10
            assert abs(np.sum(softmax(z)) - 1.0) <= 1e-12

    def test_softmax_shift_invariant(self):
        rng = np.random.default_rng(10)
        z = rng.standard_normal(6)
        base = softmax(z)
        shifted = softmax(z + 123.456)
        assert np.max(np.abs(base - shifted)) <= 1e-12

    def test_softmax_huge_inputs_stay_finite(self):
        out = softmax(np.array([1000.0, 1000.0]))
        assert np.allclose(out, [0.5, 0.5])

    @pytest.mark.parametrize("kind", [ActivationKind.SIGMOID])
    def test_strictly_increasing(self, kind):
        grid = np.linspace(-6.0, 6.0, 101)
        out = apply(kind, grid)
        assert np.all(np.diff(out) > 0)


def split_sign_sigmoid_oracle(z):
    """The earlier sigmoid, which splits on sign so exp never overflows,
    kept as a bit-level oracle for the one-formula version."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def sigmoid_probe_values():
    rng = np.random.default_rng(47)
    tiny = np.finfo(np.float64).tiny
    special = [
        0.0, -0.0, np.inf, -np.inf, 745.0, -745.0, 800.0, -800.0,
        5e-324, -5e-324, 1e-310, -1e-310, tiny, -tiny, tiny / 2, -tiny / 2,
        36.7, -36.7, 709.8, -709.8,
    ]
    # Quiet NaNs of both signs, with and without a payload.
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000,
                     0x7FF8000000000123, 0xFFF8000000000456],
                    dtype=np.uint64).view(np.float64)
    return np.concatenate([rng.standard_normal(20_000) * 30.0, special, nans])


def relu_probe_values():
    """Signed zeros, infinities, subnormals, NaNs of both signs with and
    without a payload, and random values."""
    tiny = np.finfo(np.float64).tiny
    special = [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e-310, -1e-310,
               tiny, -tiny, tiny / 2, -tiny / 2]
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000,
                     0x7FF8000000000123, 0xFFF8000000000456,
                     0x7FF0000000000001, 0xFFF0000000000001],
                    dtype=np.uint64).view(np.float64)
    rng = np.random.default_rng(48)
    return np.concatenate([special, nans, rng.standard_normal(1002) * 10.0])


class TestReluDerivativeBits:
    @pytest.mark.parametrize("shape", [(-1,), (2, 3, -1)])
    def test_bit_identical_to_where_select(self, shape):
        z = relu_probe_values().reshape(shape)
        got = derivative(ActivationKind.RELU, z)
        assert got.dtype == np.float64 and got.shape == z.shape
        assert got.tobytes() == np.where(z >= 0, 1.0, 0.0).tobytes()

    def test_signed_zero_and_nan(self):
        got = derivative(ActivationKind.RELU, np.array([0.0, -0.0, np.nan, -np.nan]))
        assert got.tobytes() == np.array([1.0, 1.0, 0.0, 0.0]).tobytes()


class TestSigmoidBits:
    @pytest.mark.parametrize("shape", [(-1,), (4, 2, -1)])
    def test_apply_bit_identical_to_split_sign(self, shape):
        z = sigmoid_probe_values().reshape(shape)
        got = apply(ActivationKind.SIGMOID, z)
        assert got.shape == z.shape
        assert got.tobytes() == split_sign_sigmoid_oracle(z).tobytes()

    def test_derivative_bit_identical_to_split_sign(self):
        z = sigmoid_probe_values()
        s = split_sign_sigmoid_oracle(z)
        got = derivative(ActivationKind.SIGMOID, z)
        assert got.tobytes() == (s * (1.0 - s)).tobytes()

    @pytest.mark.parametrize("shape", [(-1,), (4, 2, -1)])
    def test_apply_bit_identical_to_where_select(self, shape):
        # The earlier numerator np.where(z >= 0, 1.0, e) is the oracle.
        z = sigmoid_probe_values().reshape(shape)
        e = np.exp(np.minimum(z, -z))
        want = np.where(z >= 0, 1.0, e) / (1.0 + e)
        assert apply(ActivationKind.SIGMOID, z).tobytes() == want.tobytes()

    def test_no_overflow_warning(self):
        with np.errstate(over="raise"):
            apply(ActivationKind.SIGMOID, np.array([-800.0, 800.0, -np.inf, np.inf]))


# z in other forms. Each is converted to float64 before any 0-d float64
# constant touches it: under NEP 50 such a constant promotes as a strong
# type where a Python float is weak, so an unconverted float32 z would mix
# float32 and float64 results.
Z_FORMS = {
    "float32": np.array([-40.0, -3.5, -0.0, 0.0, 0.1, 2.0, 40.0], dtype=np.float32),
    "int64": np.array([-40, -3, 0, 1, 2, 40]),
    "list": [-40.0, -3.5, -0.0, 0.0, 0.1, 2.0, 40.0],
    "0-d": np.array(-0.1, dtype=np.float32),
}


class TestInputConversion:
    @pytest.mark.parametrize("form", Z_FORMS)
    @pytest.mark.parametrize("kind", list(ActivationKind))
    @pytest.mark.parametrize("fn", [apply, derivative])
    def test_same_bytes_as_float64_conversion(self, fn, kind, form):
        z = Z_FORMS[form]
        got = np.asarray(fn(kind, z))
        want = np.asarray(fn(kind, np.asarray(z, dtype=np.float64)))
        assert got.dtype == np.float64 and got.shape == np.shape(z)
        assert got.tobytes() == want.tobytes()
