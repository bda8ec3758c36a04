import math

import numpy as np
import pytest

from convkit.errors import DomainError, ShapeError
from convkit.losses import CE_EPS, CE_HI, CE_LO, MINUS_ONE, LossKind, ce_grad, loss

ALL_KINDS = list(LossKind)


def two_log_cross_entropy(yhat, y):
    """The earlier cross-entropy, which takes both logs of every component
    and weights them by the label, kept as a bit-level oracle."""
    yc = np.minimum(np.maximum(yhat, CE_EPS), 1.0 - CE_EPS)
    return float(-(y * np.log(yc) + (1.0 - y) * np.log(1.0 - yc)).sum() / len(y))


def two_term_ce_grad(yhat, y):
    """The earlier cross-entropy gradient, which adds both label-weighted
    terms of every component, kept as a bit-level oracle."""
    yc = np.minimum(np.maximum(yhat, CE_EPS), 1.0 - CE_EPS)
    return (-y / yc + (1.0 - y) / (1.0 - yc)) / len(y)


def elementwise_binary(y):
    """The earlier label check, kept as the reference for the count check."""
    return bool(((y == 0.0) | (y == 1.0)).all())


def random_valid_pair(rng, kind, t):
    """Random (yhat, y) inside the loss's domain."""
    if kind == LossKind.CROSS_ENTROPY:
        yhat = rng.uniform(0.05, 0.95, size=t)
        y = (rng.uniform(size=t) < 0.5).astype(np.float64)
    elif kind == LossKind.MAPE:
        yhat = rng.uniform(-2.0, 2.0, size=t)
        y = rng.uniform(0.5, 2.0, size=t) * rng.choice([-1.0, 1.0], size=t)
    elif kind == LossKind.MSLE:
        yhat = rng.uniform(-0.5, 3.0, size=t)
        y = rng.uniform(-0.5, 3.0, size=t)
    else:
        yhat = rng.uniform(-2.0, 2.0, size=t)
        y = rng.uniform(-2.0, 2.0, size=t)
    return yhat, y


class TestLossValues:
    def test_mse_zero_residual(self):
        assert loss(LossKind.MSE, np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 0.0

    def test_cross_entropy_half(self):
        v = loss(LossKind.CROSS_ENTROPY, np.array([0.5]), np.array([1.0]))
        assert abs(v - math.log(2)) <= 1e-12

    def test_l1_by_hand(self):
        assert loss(LossKind.L1, np.array([0.0, 2.0]), np.array([1.0, 0.0])) == 3.0

    def test_mse_by_hand(self):
        # residuals 1 and -2 -> (1 + 4) / 2
        v = loss(LossKind.MSE, np.array([0.0, 2.0]), np.array([1.0, 0.0]))
        assert v == 2.5

    def test_msle_uses_log1p_form(self):
        v = loss(LossKind.MSLE, np.array([0.0]), np.array([math.e - 1.0]))
        assert abs(v - 1.0) <= 1e-12

    def test_mape_by_hand(self):
        v = loss(LossKind.MAPE, np.array([1.5]), np.array([1.0]))
        assert abs(v - 50.0) <= 1e-12


class TestDomains:
    def test_mape_zero_label_rejected(self):
        with pytest.raises(DomainError):
            loss(LossKind.MAPE, np.array([1.0]), np.array([0.0]))

    def test_cross_entropy_labels_must_be_binary(self):
        with pytest.raises(DomainError):
            loss(LossKind.CROSS_ENTROPY, np.array([0.5]), np.array([0.3]))

    def test_msle_domain(self):
        with pytest.raises(DomainError):
            loss(LossKind.MSLE, np.array([-1.5]), np.array([0.0]))

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            loss(LossKind.MSE, np.array([1.0]), np.array([1.0, 2.0]))

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            loss(LossKind.MSE, np.array([]), np.array([]))


class TestProperties:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_nonnegative_on_random_inputs(self, kind):
        rng = np.random.default_rng(11)
        for _ in range(100):
            yhat, y = random_valid_pair(rng, kind, int(rng.integers(1, 9)))
            assert loss(kind, yhat, y) >= 0.0

    @pytest.mark.parametrize(
        "kind",
        [LossKind.MSE, LossKind.MSLE, LossKind.L2, LossKind.L1, LossKind.MAE,
         LossKind.MAPE],
    )
    def test_zero_at_equality(self, kind):
        rng = np.random.default_rng(12)
        for _ in range(100):
            _, y = random_valid_pair(rng, kind, int(rng.integers(1, 9)))
            assert loss(kind, y.copy(), y) == 0.0

    def test_cross_entropy_at_equality_is_clamp_residue(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            t = int(rng.integers(1, 9))
            y = (rng.uniform(size=t) < 0.5).astype(np.float64)
            v = loss(LossKind.CROSS_ENTROPY, y.copy(), y)
            assert 0.0 <= v <= t * abs(math.log(1.0 - CE_EPS)) + 1e-15

    def test_scale_relations(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            t = int(rng.integers(1, 9))
            yhat = rng.uniform(-2.0, 2.0, size=t)
            y = rng.uniform(-2.0, 2.0, size=t)
            # Division form is exact in floats; t*(S/t) may double-round.
            assert loss(LossKind.MSE, yhat, y) == loss(LossKind.L2, yhat, y) / t
            assert loss(LossKind.MAE, yhat, y) == loss(LossKind.L1, yhat, y) / t
            assert loss(LossKind.L2, yhat, y) == pytest.approx(
                t * loss(LossKind.MSE, yhat, y), rel=1e-15
            )
            assert loss(LossKind.L1, yhat, y) == pytest.approx(
                t * loss(LossKind.MAE, yhat, y), rel=1e-15
            )


class TestCrossEntropyOneLog:
    """loss(CROSS_ENTROPY) against the two-log form it replaced: equal bytes."""

    EDGES = [0.0, -0.0, CE_EPS, 0.5, 1.0 - CE_EPS, 1.0, 5e-324, 2.2e-308, -1.0, 2.0]

    @staticmethod
    def same_bytes(yhat, y):
        got = loss(LossKind.CROSS_ENTROPY, yhat, y)
        want = two_log_cross_entropy(yhat, y)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (yhat, y)

    @pytest.mark.parametrize("label", [0.0, -0.0, 1.0])
    def test_edge_values_one_component(self, label):
        for v in self.EDGES:
            self.same_bytes(np.array([v]), np.array([label]))

    def test_edge_values_mixed_labels(self):
        yhat = np.array(self.EDGES * 3)
        y = np.repeat([0.0, -0.0, 1.0], len(self.EDGES))
        self.same_bytes(yhat, y)
        self.same_bytes(yhat[::-1].copy(), y)

    @pytest.mark.parametrize("t", [1, 2, 7, 8, 9, 10, 17, 130])
    def test_random_values(self, t):
        # t spans numpy's pairwise-sum unrolling (blocks of 8)
        rng = np.random.default_rng(70 + t)
        for _ in range(20):
            yhat = rng.uniform(size=t) ** rng.integers(1, 40)
            y = (rng.uniform(size=t) < 0.5).astype(np.float64)
            self.same_bytes(yhat, y)
            self.same_bytes(1.0 - yhat, y)

    @pytest.mark.parametrize("label", [0.0, 1.0])
    def test_nan_prediction_is_not_finite(self, label):
        yhat = np.array([0.5, np.nan, 0.25])
        y = np.array([1.0, label, 0.0])
        with np.errstate(invalid="ignore"):
            assert not math.isfinite(loss(LossKind.CROSS_ENTROPY, yhat, y))
            assert not math.isfinite(two_log_cross_entropy(yhat, y))


class TestCrossEntropyGrad:
    def test_positive_label(self):
        assert np.allclose(ce_grad(np.array([0.5]), np.array([1.0])), [-2.0])

    def test_negative_label(self):
        assert np.allclose(ce_grad(np.array([0.5]), np.array([0.0])), [2.0])

    def test_matches_central_difference(self):
        rng = np.random.default_rng(15)
        h = 1e-6
        for _ in range(20):
            t = int(rng.integers(1, 9))
            yhat = rng.uniform(0.05, 0.95, size=t)
            y = (rng.uniform(size=t) < 0.5).astype(np.float64)
            analytic = ce_grad(yhat, y)
            for i in range(t):
                hi = yhat.copy()
                lo = yhat.copy()
                hi[i] += h
                lo[i] -= h
                numeric = (
                    loss(LossKind.CROSS_ENTROPY, hi, y)
                    - loss(LossKind.CROSS_ENTROPY, lo, y)
                ) / (2.0 * h)
                rel = abs(analytic[i] - numeric) / max(abs(analytic[i]), abs(numeric))
                assert rel <= 1e-7

    def test_binary_label_required(self):
        with pytest.raises(DomainError):
            ce_grad(np.array([0.5]), np.array([0.5]))


class TestCrossEntropyGradOneTerm:
    """ce_grad against the two-term form it replaced: equal bytes."""

    EDGES = TestCrossEntropyOneLog.EDGES

    @staticmethod
    def same_bytes(yhat, y):
        got = ce_grad(yhat, y)
        want = two_term_ce_grad(yhat, y)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), (yhat, y)

    @pytest.mark.parametrize("label", [0.0, -0.0, 1.0])
    def test_edge_values_one_component(self, label):
        for v in self.EDGES:
            self.same_bytes(np.array([v]), np.array([label]))

    def test_edge_values_mixed_labels(self):
        yhat = np.array(self.EDGES * 3)
        y = np.repeat([0.0, -0.0, 1.0], len(self.EDGES))
        self.same_bytes(yhat, y)
        self.same_bytes(yhat[::-1].copy(), y)

    def test_random_values(self):
        rng = np.random.default_rng(71)
        for t in range(1, 131):
            yhat = rng.uniform(size=t) ** rng.integers(1, 40)
            y = rng.choice([0.0, -0.0, 1.0], size=t)
            self.same_bytes(yhat, y)
            self.same_bytes(1.0 - yhat, y)
            self.same_bytes(yhat, 1.0 - np.abs(y))


class TestLabelCheck:
    """loss(CROSS_ENTROPY) and ce_grad accept exactly the labels that the
    elementwise 0-or-1 check accepted."""

    ONE_ULP_BELOW = np.nextafter(1.0, 0.0)
    ONE_ULP_ABOVE = np.nextafter(1.0, 2.0)
    VALUES = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, 0.5, ONE_ULP_BELOW,
              ONE_ULP_ABOVE, 5e-324, -5e-324, 2.0, -1.0]

    @staticmethod
    def accepts(fn, yhat, y):
        try:
            fn(yhat, y)
        except DomainError:
            return False
        return True

    @pytest.mark.parametrize("value", VALUES)
    @pytest.mark.parametrize("others", [[], [0.0, 1.0], [1.0, -0.0, 1.0]])
    def test_same_verdict_as_elementwise_check(self, value, others):
        y = np.array([*others, value])
        yhat = np.full(len(y), 0.25)
        want = elementwise_binary(y)
        assert self.accepts(ce_grad, yhat, y) is want
        assert self.accepts(lambda a, b: loss(LossKind.CROSS_ENTROPY, a, b), yhat, y) is want


class TestConstants:
    def test_read_only_float64(self):
        for c, value in ((CE_LO, CE_EPS), (CE_HI, 1.0 - CE_EPS), (MINUS_ONE, -1.0)):
            assert c.shape == () and c.dtype == np.float64
            assert c.tobytes() == np.float64(value).tobytes()
            with pytest.raises(ValueError):
                c[...] = 0.5


# The cross-entropy inputs in other forms. Each is converted to float64
# before any 0-d float64 constant touches it: under NEP 50 such a constant
# promotes as a strong type where a Python float is weak, so an unconverted
# float32 input would mix float32 and float64 results.
CE_FORMS = {
    "float32": (np.array([0.1, 0.7, 0.95, 0.3], dtype=np.float32),
                np.array([0, 1, 1, 0], dtype=np.float32)),
    "int64": (np.array([0, 1, 2, -1]), np.array([0, 1, 0, 1])),
    "list": ([0.1, 0.7, 1e-13, 1.0], [0, 1, 1, 0]),
}


class TestInputConversion:
    @pytest.mark.parametrize("form", CE_FORMS)
    def test_same_bytes_as_float64_conversion(self, form):
        yhat, y = CE_FORMS[form]
        yhat64, y64 = np.asarray(yhat, dtype=np.float64), np.asarray(y, dtype=np.float64)
        got = loss(LossKind.CROSS_ENTROPY, yhat, y)
        assert np.float64(got).tobytes() == np.float64(
            loss(LossKind.CROSS_ENTROPY, yhat64, y64)).tobytes()
        grad = ce_grad(yhat, y)
        assert grad.dtype == np.float64
        assert grad.tobytes() == ce_grad(yhat64, y64).tobytes()

    def test_zero_d_input_refused(self):
        # rank 1 is required, so a 0-d input fails however it is given
        for yhat in (np.array(0.5, dtype=np.float32), np.array(0.5)):
            with pytest.raises(ShapeError):
                loss(LossKind.CROSS_ENTROPY, yhat, np.array(1.0))
            with pytest.raises(ShapeError):
                ce_grad(yhat, np.array(1.0))
