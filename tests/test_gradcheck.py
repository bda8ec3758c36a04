import importlib
import math
import pkgutil
from dataclasses import replace

import numpy as np
import pytest

import convkit
from convkit import layers, tensor
from convkit import network as nm
from convkit.activations import ActivationKind
from convkit.dataio import one_hot
from convkit.errors import DomainError
from convkit.gradcheck import (
    GradReport,
    GroupResult,
    _decision_reads,
    _pattern,
    check_network,
    relative_error,
)
from convkit.layers import ConvGeometry, PoolGeometry
from convkit.layers import dense_backward as real_dense_backward
from convkit.losses import LossKind, loss

from test_golden import readme_bars0, two_channel_sample0

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
    return image, int(rng.integers(0, 2))


class TestRelativeError:
    def test_plain_ratio(self):
        assert relative_error(2.0, 1.0) == 0.5

    def test_floor_prevents_blowup(self):
        assert relative_error(0.0, 5e-10) == 0.0

    def test_near_zero_pair_with_tiny_gap_passes(self):
        assert relative_error(2e-6, 2e-6 + 5e-10) == 0.0

    def test_near_zero_pair_with_large_gap_fails(self):
        assert relative_error(0.0, 5e-6) > 1.0

    @pytest.mark.parametrize("analytic, numeric", [
        (math.nan, 1.0), (1.0, math.nan), (math.nan, 0.0), (math.inf, 1.0),
        (-math.inf, 0.0), (1.0, math.inf)])
    def test_non_finite_pair_reports_inf(self, analytic, numeric):
        # A NaN error would be skipped by the group's max and pass.
        assert relative_error(analytic, numeric) == math.inf


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

    def test_read_only_params_same_rows(self):
        # the oracle perturbs its own copy, so it never writes net.params
        net, sample0 = readme_bars0()
        want = check_network(net, sample0).rows()
        net.params.flags.writeable = False
        assert check_network(net, sample0).rows() == want

    def test_zero_gradient_fixture_uses_absolute_rule(self):
        net = nm.init(FIXTURE_ARCH, 3)
        net.dense[-1].weights[:] = 0.0
        net.dense[-1].biases[:] = [760.0, -760.0]
        image, _ = sample(3)
        report = check_network(net, (image, 0))
        assert report.passed
        assert all(g.max_rel_err == 0.0 for g in report.groups)

    def test_sample_label_is_a_class_index(self):
        net = nm.init(FIXTURE_ARCH, 4)
        image, _ = sample(4)
        for label in (np.array([1.0, 0.0]), 0.5, -1, 2):
            with pytest.raises(DomainError, match="class index"):
                check_network(net, (image, label))

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
        base = _pattern(traces, _decision_reads(net, 0))
        assert _pattern([replace(t) for t in traces], _decision_reads(net, 0)) == base
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
            assert _pattern(changed, _decision_reads(net, 0)) != base

    def test_sigmoid_output_is_not_a_decision(self):
        net, traces = self.traces()
        last = traces[-1]
        flipped = replace(last, preact=self.flip_sign(last.preact, 0))
        base = _pattern(traces, _decision_reads(net, 0))
        assert _pattern([*traces[:-1], flipped], _decision_reads(net, 0)) == base

    @pytest.mark.parametrize("first", [2, 3])
    def test_pattern_starts_at_first_trace(self, first):
        net, traces = self.traces()
        base = _pattern(traces, _decision_reads(net, first))
        conv, pool = traces[0], traces[1]
        moved = pool.winners.copy()
        moved[0, 0, 0] += 1
        earlier = [
            replace(conv, preact=self.flip_sign(conv.preact, (0, 0, 0))),
            replace(pool, winners=moved),
        ]
        for k in range(2, first):
            earlier.append(replace(traces[k], preact=self.flip_sign(traces[k].preact, 0)))
        assert _pattern([*earlier, *traces[first:]], _decision_reads(net, first)) == base
        t = traces[first]
        flipped = replace(t, preact=self.flip_sign(t.preact, 0))
        changed = [*traces[:first], flipped, *traces[first + 1:]]
        assert _pattern(changed, _decision_reads(net, first)) != base


def full_decision_pattern(net, traces):
    """The decision pattern of a whole forward run, which every
    perturbation compared before the patterns started at the perturbed
    layer; kept as the reference."""
    conv_trace, pool_trace = traces[0], traces[1]
    parts = [pool_trace.winners, conv_trace.preact >= 0]
    for layer, trace in zip(net.dense, traces[2:]):
        if layer.activation == ActivationKind.RELU:
            parts.append(trace.preact >= 0)
    return b"".join(p.tobytes() for p in parts)


def full_pattern_check_network(net, sample, threshold=1e-6, h_rel=1e-5):
    """check_network's loop with ``full_decision_pattern`` in every run."""
    image, index = sample
    label = one_hot(index, net.class_count)

    def run():
        yhat, traces = nm.forward(net, image)
        value = loss(LossKind.CROSS_ENTROPY, yhat, label)
        assert math.isfinite(value)
        return value, full_decision_pattern(net, traces)

    _, traces = nm.forward(net, image)
    analytic = nm.backward(net, traces, label, np.zeros_like(net.params)).tolist()
    params = net.params
    results = []
    for name, group, shape in nm.param_groups(net):
        errors, checked, n_excluded = [], [], 0
        for idx in range(group.start, group.stop):
            theta = params[idx]
            h = h_rel * max(1.0, abs(theta))
            try:
                params[idx] = theta + h
                loss_hi, pat_hi = run()
                params[idx] = theta - h
                loss_lo, pat_lo = run()
            finally:
                params[idx] = theta
            if pat_hi != pat_lo:
                n_excluded += 1
                continue
            numeric = (loss_hi - loss_lo) / (2.0 * h)
            errors.append(relative_error(analytic[idx], numeric))
            checked.append(idx - group.start)
        max_err = max(errors) if errors else 0.0
        mean_err = sum(errors) / len(errors) if errors else 0.0
        argmax = ()
        if errors:
            flat = checked[errors.index(max_err)]
            argmax = tuple(int(i) for i in np.unravel_index(flat, shape))
        results.append(GroupResult(name, max_err, mean_err, argmax, len(errors),
                                   n_excluded, max_err <= threshold))
    return GradReport(groups=results, threshold=threshold)


def dense1_near_kink():
    """Two hidden ReLU dense layers; dense[1]'s smallest positive
    pre-activation is moved to 1e-9, so perturbing its own bias flips it."""
    net = nm.init(DEEP_ARCH, 20)
    image, label = sample(20)
    z = nm.forward(net, image)[1][3].preact
    j = int(np.argmin(np.where(z > 0, z, np.inf)))
    net.dense[1].biases[j] -= z[j] - 1e-9
    return net, (image, label)


def with_corner_preact(target):
    """The fixture net on sample 22, with kernel 0's pre-activation at
    (0, 0) moved to ``target(preact[0])`` through pixel (0, 0), which no
    other output of kernel 0 reads. Output (1, 1), at 0.24, is the best
    of the other three in its pool window."""
    net = nm.init(FIXTURE_ARCH, 22)
    image, label = sample(22)
    pre = nm.forward(net, image)[1][0].preact[0]
    image[0, 0, 0] += (target(pre) - pre[0, 0]) / net.bank.kernels[0, 0, 0, 0]
    return net, (image, label)


def conv_winner_near_tie():
    """(0, 0) sits 1e-9 above its window's best: a kernel-0 perturbation
    moves that winner without flipping a ReLU sign."""
    return with_corner_preact(lambda pre: max(pre[0, 1], pre[1, 0], pre[1, 1]) + 1e-9)


def conv_sign_near_kink():
    """(0, 0) sits at 1e-9, below its window's winner: perturbing kernel
    0's bias flips that ReLU sign and no other decision."""
    return with_corner_preact(lambda pre: 1e-9)


def readme_uint8_image():
    """The README net on bars sample 0 scaled to 0-255 and held as uint8."""
    net, (image, label) = readme_bars0()
    return net, (np.round(image * 255.0).astype(np.uint8), label)


class TestFullPatternReference:
    """The report with patterns from the perturbed layer on equals the
    report with full patterns, field by field. The reference re-forwards
    outside the kept-results scope, so each case also checks the kept
    conv and pool results against recomputed ones."""

    CASES = {
        "readme-bars-sample0": readme_bars0,
        "two-channel-pad1": two_channel_sample0,
        "dense1-near-kink": dense1_near_kink,
        "conv-winner-near-tie": conv_winner_near_tie,
        "conv-sign-near-kink": conv_sign_near_kink,
        "readme-uint8-image": readme_uint8_image,
        "readme-split-kernel-groups": readme_bars0,
    }
    # A product budget per case: 4 of the README bank's kernels fit it
    # (9 taps x 36 outputs x 8 bytes each), so the bank runs as two groups.
    SLAB_BYTES = {"readme-split-kernel-groups": 4 * 9 * 36 * 8}

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_report(self, case, monkeypatch):
        if case in self.SLAB_BYTES:
            monkeypatch.setattr(tensor, "SLAB_BYTES", self.SLAB_BYTES[case])
        net, sample_ = self.CASES[case]()
        got = check_network(net, sample_)
        want = full_pattern_check_network(net, sample_)
        assert got.groups == want.groups
        assert got.threshold == want.threshold

    def test_dense1_excluded_on_its_own_signs(self):
        net, sample_ = dense1_near_kink()
        groups = {g.group: g for g in check_network(net, sample_).groups}
        assert groups["dense[1].b"].n_excluded == 1
        assert groups["dense[2].W"].n_excluded == groups["dense[2].b"].n_excluded == 0

    def test_conv_perturbation_moves_a_winner(self):
        net, (image, label) = conv_winner_near_tie()
        _, base = nm.forward(net, image)
        assert base[1].winners[0, 0, 0] == 0
        theta = net.bank.kernels[0, 0, 1, 1]
        moved = []
        for h in (1e-5, -1e-5):
            net.bank.kernels[0, 0, 1, 1] = theta + h
            _, traces = nm.forward(net, image)
            net.bank.kernels[0, 0, 1, 1] = theta
            assert np.array_equal(traces[0].preact >= 0, base[0].preact >= 0)
            moved.append(traces[1].winners[0, 0, 0])
        assert moved[0] != moved[1]
        groups = {g.group: g for g in check_network(net, (image, label)).groups}
        assert groups["conv.kernels"].n_excluded > 0

    def test_conv_bias_excluded_on_a_conv_sign_alone(self):
        net, (image, label) = conv_sign_near_kink()
        _, base = nm.forward(net, image)
        theta = net.bank.biases[0]
        for h in (1e-5, -1e-5):
            net.bank.biases[0] = theta + h
            _, traces = nm.forward(net, image)
            net.bank.biases[0] = theta
            assert bool(traces[0].preact[0, 0, 0] >= 0) == (h > 0)
            assert np.array_equal(traces[1].winners, base[1].winners)
            for k in range(2, len(traces)):
                assert np.array_equal(traces[k].preact >= 0, base[k].preact >= 0)
        groups = {g.group: g for g in check_network(net, (image, label)).groups}
        assert groups["conv.biases"].n_excluded == 1


# Calls per check_network on the README net and bars sample 0: one
# forward and one backward for the analytic gradient, then two forwards
# and two losses for each of the 1,886 parameters. The kept conv and pool
# results leave every count as it was: a conv hit still calls apply.
README_CALLS = {
    "network.forward": 3773,
    "layers.conv_forward": 3773,
    "layers.maxpool_forward": 3773,
    "layers.dense_forward": 7546,
    "tensor.matvec": 7546,
    "activations.apply": 11320,
    "losses.loss": 3772,
    "network.backward": 1,
}


def convkit_modules():
    """The convkit package and every module in it, each imported."""
    return [convkit] + [importlib.import_module(f"convkit.{m.name}")
                        for m in pkgutil.iter_modules(convkit.__path__)]


def counting(calls, name, fn):
    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return counted


def test_call_counts_at_every_binding(monkeypatch):
    # network imports conv_forward and the others by name, so each
    # function is counted at every convkit binding that holds it.
    calls = dict.fromkeys(README_CALLS, 0)
    for name in README_CALLS:
        module, attr = name.split(".")
        fn = getattr(importlib.import_module(f"convkit.{module}"), attr)
        wrapper = counting(calls, name, fn)
        for mod in convkit_modules():
            for key, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, key, wrapper)
    net, sample0 = readme_bars0()
    check_network(net, sample0)
    assert calls == README_CALLS


def test_no_convkit_attribute_is_wrapped():
    """A ``functools`` decorator sets ``__wrapped__``, which fails the
    benchmark's tracer test; this catches it in the tier-1 suite. It goes
    away when that test looks only for the tracer's own wrappers (ROADMAP
    item 1)."""
    for mod in convkit_modules():
        wrapped = [k for k, v in vars(mod).items() if getattr(v, "__wrapped__", None)]
        assert wrapped == [], mod.__name__


class TestKeptResultsScope:
    def test_off_after_check_network_returns(self):
        net, sample0 = readme_bars0()
        check_network(net, sample0)
        assert layers._kept is None

    def test_off_after_check_network_raises(self):
        net = nm.init(FIXTURE_ARCH, 10)
        image = np.full((1, 8, 8), np.inf)
        with np.errstate(invalid="ignore"), pytest.raises(DomainError,
                                                          match="loss is not finite"):
            check_network(net, (image, 0))
        assert layers._kept is None


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
