from dataclasses import replace

import numpy as np
import pytest

from convkit import network as nm
from convkit.dataio import one_hot
from convkit.errors import DomainError
from convkit.gradcheck import (
    _decision_pattern,
    check_network,
    relative_error,
)
from convkit.layers import ConvGeometry, PoolGeometry
from convkit.layers import dense_backward as real_dense_backward

FIXTURE_ARCH = nm.Architecture(
    conv=ConvGeometry(8, 8, 1, 3, 3, 2),
    pool=PoolGeometry(2, 2),
    dense_widths=(8, 2),
)

# The transposed-propagation bug only type-checks on a square layer.
SQUARE_ARCH = nm.Architecture(
    conv=ConvGeometry(8, 8, 1, 3, 3, 2),
    pool=PoolGeometry(2, 2),
    dense_widths=(18, 2),
)


def sample(seed):
    rng = np.random.default_rng(seed)
    image = rng.uniform(0.0, 1.0, size=(1, 8, 8))
    label = one_hot(int(rng.integers(0, 2)), 2)
    return image, label


class TestRelativeError:
    def test_plain_ratio(self):
        assert relative_error(2.0, 1.0) == 0.5

    def test_floor_prevents_blowup(self):
        assert relative_error(0.0, 5e-10) == 0.0

    def test_near_zero_pair_with_tiny_gap_passes(self):
        assert relative_error(2e-6, 2e-6 + 5e-10) == 0.0

    def test_near_zero_pair_with_large_gap_fails(self):
        assert relative_error(0.0, 5e-6) > 1.0


class TestCheckNetwork:
    def test_passes_on_fixture(self):
        for seed in range(5):
            net = nm.init(FIXTURE_ARCH, seed)
            report = check_network(net, sample(seed + 100), threshold=1e-6)
            assert report.passed, report.format()

    def test_group_structure(self):
        net = nm.init(FIXTURE_ARCH, 1)
        report = check_network(net, sample(1))
        names = [g.group for g in report.groups]
        assert names == [
            "conv.kernels", "conv.biases",
            "dense[0].W", "dense[0].b", "dense[1].W", "dense[1].b",
        ]
        assert len(report.rows()) == 2 + 2 * len(net.dense)

    def test_does_not_mutate_network(self):
        net = nm.init(FIXTURE_ARCH, 2)
        before = [
            net.bank.kernels.copy(), net.bank.biases.copy(),
            *[l.weights.copy() for l in net.dense],
            *[l.biases.copy() for l in net.dense],
        ]
        check_network(net, sample(2))
        after = [
            net.bank.kernels, net.bank.biases,
            *[l.weights for l in net.dense],
            *[l.biases for l in net.dense],
        ]
        for a, b in zip(before, after):
            assert np.array_equal(a, b)

    def test_zero_gradient_fixture_uses_absolute_rule(self):
        net = nm.init(FIXTURE_ARCH, 3)
        net.dense[-1].weights[:] = 0.0
        net.dense[-1].biases[:] = [760.0, -760.0]
        image, _ = sample(3)
        report = check_network(net, (image, np.array([1.0, 0.0])))
        assert report.passed
        assert all(g.max_rel_err == 0.0 for g in report.groups)

    def test_h_rel_range_enforced(self):
        net = nm.init(FIXTURE_ARCH, 4)
        with pytest.raises(DomainError):
            check_network(net, sample(4), h_rel=1e-2)
        with pytest.raises(DomainError):
            check_network(net, sample(4), h_rel=0.0)

    def test_report_formats(self):
        net = nm.init(FIXTURE_ARCH, 5)
        report = check_network(net, sample(5))
        text = report.format()
        assert "conv.kernels" in text and "threshold" in text
        for group, max_err, mean_err, excluded, ok in report.rows():
            assert max_err >= 0.0 and mean_err >= 0.0 and excluded >= 0
            assert ok == (max_err <= report.threshold)


DEEP_ARCH = nm.Architecture(
    conv=ConvGeometry(8, 8, 1, 3, 3, 2),
    pool=PoolGeometry(2, 2),
    dense_widths=(8, 4, 2),
)


class TestDecisionPattern:
    """One change in any part of a run's decisions must make its pattern
    differ; a change outside the decisions must not."""

    @staticmethod
    def traces():
        net = nm.init(DEEP_ARCH, 9)
        _, traces = nm.forward(net, sample(9)[0])
        return net, traces

    @staticmethod
    def flip_sign(a, index):
        a = a.copy()
        a[index] = 1.0 if a[index] < 0 else -1.0
        return a

    @pytest.mark.parametrize("index", [(0, 0, 0), (1, 5, 5), (0, 3, 2)])
    def test_each_part_changes_the_pattern(self, index):
        net, traces = self.traces()
        base = _decision_pattern(net, traces)
        assert _decision_pattern(net, [replace(t) for t in traces]) == base
        conv, pool = traces[0], traces[1]
        pool_index = tuple(i % n for i, n in zip(index, pool.winners.shape))
        variants = [
            [replace(conv, preact=self.flip_sign(conv.preact, index)), *traces[1:]],
        ]
        for step in (1, pool.input.shape[-1]):  # the next column, the next row
            moved = pool.winners.copy()
            moved[pool_index] += step
            variants.append([conv, replace(pool, winners=moved), *traces[2:]])
        for k in (2, 3):  # the two ReLU dense layers
            t = traces[k]
            flipped = replace(t, preact=self.flip_sign(t.preact, index[-1] % t.preact.size))
            variants.append([*traces[:k], flipped, *traces[k + 1:]])
        for changed in variants:
            assert _decision_pattern(net, changed) != base

    def test_sigmoid_output_is_not_a_decision(self):
        net, traces = self.traces()
        last = traces[-1]
        flipped = replace(last, preact=self.flip_sign(last.preact, 0))
        assert _decision_pattern(net, [*traces[:-1], flipped]) == _decision_pattern(net, traces)


class TestMutationSensitivity:
    """Three seeded backward-pass bugs, each of which the checker must
    catch at threshold 1e-6."""

    def test_dropped_activation_derivative(self, monkeypatch):
        # dense_backward loses its sigma' factor
        def no_derivative(kind, z):
            return np.ones_like(np.asarray(z, dtype=np.float64))

        monkeypatch.setattr("convkit.layers.derivative", no_derivative)
        net = nm.init(FIXTURE_ARCH, 6)
        report = check_network(net, sample(6), threshold=1e-6)
        assert not report.passed
        dense_groups = [g for g in report.groups if g.group.startswith("dense")]
        assert any(not g.passed for g in dense_groups)

    def test_transposed_propagation(self, monkeypatch):
        # grad_a_prev computed with W instead of W^T on the square layer
        def transposed(grad_a, layer, trace):
            gw, gb, _ = real_dense_backward(grad_a, layer, trace)
            from convkit.activations import derivative
            delta = grad_a * derivative(layer.activation, trace.preact)
            if layer.n_in == layer.n_out:
                bad = np.cumsum(layer.weights.T * delta[:, None], axis=0)[-1]
                return gw, gb, bad
            return gw, gb, np.cumsum(layer.weights * delta[:, None], axis=0)[-1]

        monkeypatch.setattr("convkit.network.dense_backward", transposed)
        net = nm.init(SQUARE_ARCH, 7)
        report = check_network(net, sample(7), threshold=1e-6)
        assert not report.passed
        conv_groups = [g for g in report.groups if g.group.startswith("conv")]
        assert any(not g.passed for g in conv_groups)

    def test_unrouted_pool_gradient(self, monkeypatch):
        def unrouted(grad_pooled, trace):
            return np.zeros_like(trace.input)

        monkeypatch.setattr("convkit.network.maxpool_backward", unrouted)
        net = nm.init(FIXTURE_ARCH, 8)
        report = check_network(net, sample(8), threshold=1e-6)
        assert not report.passed
        conv_groups = [g for g in report.groups if g.group.startswith("conv")]
        assert any(not g.passed for g in conv_groups)
