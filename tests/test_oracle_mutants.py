"""The gradient oracle's power, measured: a table of seeded ``backward``
bugs that ``check_network`` must report, each applied by patching one of
``network.backward``'s callees.

Two nets are probed: the README net (8x8 bars, 6 kernels of 3x3, pool
2/2, dense 32,2, seed 42) on bars samples, and a 2-channel ``pad=1`` net
with 3 classes (seed 42) on seeded random samples. Each caught mutant
names the samples, per net, on which it must be reported, and exactly
the parameter groups that fail there. A mutant caught on all four probe
samples of a net is checked on one of them. The equivalent mutants are
listed with the reason no single-sample oracle can see them, and must
pass. A mutant writing a NaN and an infinity into two gradients must fail
exactly their two groups, each with its argmax at the bad coordinate.
"""

import math

import numpy as np
import pytest

from convkit import layers
from convkit import network as nm
from convkit.activations import ActivationKind
from convkit.dataio import synth_bars
from convkit.gradcheck import check_network

from test_golden import README_ARCH, TWO_CHANNEL_ARCH

SIGMOID = ActivationKind.SIGMOID
RELU = ActivationKind.RELU

real_ce_grad = nm.ce_grad
real_conv_backward = nm.conv_backward
real_maxpool_backward = nm.maxpool_backward
real_dense_backward = nm.dense_backward
real_derivative = layers.derivative


def readme_net(i):
    """The README net on bars sample i of the README's 200-sample set
    (class 0 below 100, class 1 from 100 on)."""
    data = synth_bars(200, 8, 8, seed=42)
    return nm.init(README_ARCH, 42), (data.images[i], int(data.labels[i]))


def padded_net(i):
    """The 2-channel pad=1 net on seeded random sample i (3 classes)."""
    rng = np.random.default_rng(300 + i)
    image = rng.uniform(0.0, 1.0, size=(2, 8, 8))
    return nm.init(TWO_CHANNEL_ARCH, 42), (image, int(rng.integers(0, 3)))


NETS = {"readme": readme_net, "padded": padded_net}


# --- the mutants: each returns the (module, name, replacement) patches ---


def ce_grad_scaled(factor):
    def ce_grad(yhat, y):
        return real_ce_grad(yhat, y) * factor

    return [(nm, "ce_grad", ce_grad)]


def kernel_grad_rotated():
    def conv_backward(grad, image, bank):
        gk, gb = real_conv_backward(grad, image, bank)
        return gk[:, :, ::-1, ::-1], gb  # each kernel's gradient turned by 180 degrees

    return [(nm, "conv_backward", conv_backward)]


def kernel_grad_channels_swapped():
    def conv_backward(grad, image, bank):
        gk, gb = real_conv_backward(grad, image, bank)
        return gk[:, ::-1], gb

    return [(nm, "conv_backward", conv_backward)]


def conv_bias_grad_mean():
    def conv_backward(grad, image, bank):
        gk, gb = real_conv_backward(grad, image, bank)
        return gk, gb / (grad.shape[1] * grad.shape[2])

    return [(nm, "conv_backward", conv_backward)]


def pool_grad_shifted():
    def maxpool_backward(grad_pooled, trace):
        return np.roll(real_maxpool_backward(grad_pooled, trace), 1)

    return [(nm, "maxpool_backward", maxpool_backward)]


def dense_grads_changed(weights=1.0, zero_bias=False, shift_input_grad=False):
    def dense_backward(grad_a, layer, trace):
        gw, gb, ga = real_dense_backward(grad_a, layer, trace)
        if zero_bias:
            gb = np.zeros_like(gb)
        if shift_input_grad:
            ga = np.roll(ga, 1)
        return gw * weights, gb, ga

    return [(nm, "dense_backward", dense_backward)]


def sigmoid_derivative_scaled():
    def derivative(kind, z):
        d = real_derivative(kind, z)
        return d * 1.001 if kind == SIGMOID else d

    return [(layers, "derivative", derivative)]


def relu_derivative_zero_at_kink():
    def derivative(kind, z):
        if kind == RELU:
            return (np.asarray(z) > 0).astype(np.float64)
        return real_derivative(kind, z)

    return [(layers, "derivative", derivative), (nm, "derivative", derivative)]


def conv_activation_derivative_dropped():
    # network.backward calls its own derivative binding for the conv only
    def derivative(kind, z):
        return np.ones_like(np.asarray(z, dtype=np.float64))

    return [(nm, "derivative", derivative)]


def dense0_grads_non_finite():
    # dense[0] is the README net's only dense layer with 32 outputs
    def dense_backward(grad_a, layer, trace):
        gw, gb, ga = real_dense_backward(grad_a, layer, trace)
        if layer.n_out == 32:
            gw, gb = gw.copy(), gb.copy()
            gw[0, 5] = np.nan
            gb[3] = np.inf
        return gw, gb, ga

    return [(nm, "dense_backward", dense_backward)]


# name: (patches, {net: {sample: the groups that fail there}}). The probe
# ran every mutant on README samples 0, 1, 198 and 199 (classes 0, 0, 1,
# 1) and padded samples 0-3 (classes 0, 1, 2, 1). Each caught mutant
# failed the same groups on all four samples of every net listed, so one
# sample per net is checked.
ALL_GROUPS = {"conv.kernels", "conv.biases", "dense[0].W", "dense[0].b",
              "dense[1].W", "dense[1].b"}
CONV = {"conv.kernels", "conv.biases"}
CAUGHT = {
    "ce_grad x0.5": (lambda: ce_grad_scaled(0.5), {
        "readme": {0: ALL_GROUPS}, "padded": {0: ALL_GROUPS}}),
    "ce_grad x1.0001": (lambda: ce_grad_scaled(1.0001), {
        "readme": {0: ALL_GROUPS}, "padded": {0: ALL_GROUPS}}),
    "kernel grad rotated 180": (kernel_grad_rotated, {
        "readme": {0: {"conv.kernels"}}, "padded": {0: {"conv.kernels"}}}),
    "kernel grad channels swapped": (kernel_grad_channels_swapped, {
        "padded": {0: {"conv.kernels"}}}),
    "conv bias grad as a mean": (conv_bias_grad_mean, {
        "readme": {0: {"conv.biases"}}, "padded": {0: {"conv.biases"}}}),
    "pool grad shifted one position": (pool_grad_shifted, {
        "readme": {0: CONV}, "padded": {0: CONV}}),
    "dense bias grad zero": (lambda: dense_grads_changed(zero_bias=True), {
        "readme": {0: {"dense[0].b", "dense[1].b"}},
        "padded": {0: {"dense[0].b", "dense[1].b"}}}),
    "dense weight grad x0.999": (lambda: dense_grads_changed(weights=0.999), {
        "readme": {0: {"dense[0].W", "dense[1].W"}},
        "padded": {0: {"dense[0].W", "dense[1].W"}}}),
    "W^T delta shifted one position": (
        lambda: dense_grads_changed(shift_input_grad=True), {
            "readme": {0: CONV | {"dense[0].W", "dense[0].b"}},
            "padded": {0: CONV | {"dense[0].W", "dense[0].b"}}}),
    "sigmoid derivative x1.001": (sigmoid_derivative_scaled, {
        "readme": {0: ALL_GROUPS}, "padded": {0: ALL_GROUPS}}),
    "conv activation derivative dropped": (conv_activation_derivative_dropped, {
        "readme": {0: CONV}, "padded": {0: CONV}}),
}

# name: (patches, net, reason it cannot be caught)
EQUIVALENT = {
    "kernel grad channels swapped": (
        kernel_grad_channels_swapped, "readme",
        "the README net has one input channel, so the swap changes nothing"),
    "ReLU derivative 0 at z == 0": (
        relu_derivative_zero_at_kink, "readme",
        "no probe pre-activation is exactly 0, and a perturbation that moves "
        "one off 0 flips a ReLU decision, which the oracle excludes by design"),
}


def failed_groups(patches, monkeypatch, net_name, i):
    with monkeypatch.context() as m:
        for module, name, fn in patches:
            m.setattr(module, name, fn)
        report = check_network(*NETS[net_name](i))
    return {g.group for g in report.groups if not g.passed}


def caught_cases():
    for name, (make, nets) in CAUGHT.items():
        for net_name, samples in nets.items():
            for i, groups in samples.items():
                case = f"{name}-{net_name}-{i}".replace(" ", "-")
                yield pytest.param(make, net_name, i, groups, id=case)


class TestMutantTable:
    @pytest.mark.parametrize("net_name", sorted(NETS))
    def test_unmutated_code_passes(self, monkeypatch, net_name):
        assert failed_groups([], monkeypatch, net_name, 0) == set()

    @pytest.mark.parametrize("make, net_name, i, groups", list(caught_cases()))
    def test_caught(self, monkeypatch, make, net_name, i, groups):
        assert failed_groups(make(), monkeypatch, net_name, i) == groups

    @pytest.mark.parametrize("name", sorted(EQUIVALENT))
    def test_equivalent_mutants_pass(self, monkeypatch, name):
        make, net_name, reason = EQUIVALENT[name]
        assert reason
        assert failed_groups(make(), monkeypatch, net_name, 0) == set()

    def test_table_covers_every_probe_mutant(self):
        assert len(CAUGHT.keys() | EQUIVALENT.keys()) == 12


def test_non_finite_gradients_fail_at_their_coordinates(monkeypatch):
    with monkeypatch.context() as m:
        for module, name, fn in dense0_grads_non_finite():
            m.setattr(module, name, fn)
        report = check_network(*readme_net(0))
    failed = {g.group: g for g in report.groups if not g.passed}
    assert set(failed) == {"dense[0].W", "dense[0].b"}
    assert failed["dense[0].W"].argmax_coord == (0, 5)
    assert failed["dense[0].b"].argmax_coord == (3,)
    assert all(g.max_rel_err == math.inf for g in failed.values())
    assert not report.passed
