"""Central-finite-difference oracle for every analytic gradient.

The checker perturbs one parameter at a time, re-runs the forward pass,
and compares the numeric slope of the scalar loss against the backward
pass. Relative error uses a 1e-8 floor so near-zero gradients cannot
blow up the ratio; where both gradients are essentially zero the check
degenerates to an absolute bound of 1e-9.

A finite difference straddling a ReLU kink or a pooling tie measures
the wrong thing, so any perturbation pair whose two forward runs make
different branch decisions (signs or pool winners) is excluded from the
error statistics and counted separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import network as net_mod
from .activations import ActivationKind
from .errors import DomainError
from .losses import LossKind, loss

REL_ERR_FLOOR = 1e-8
# A central difference of a loss near 1.0 at h ~ 1e-5 carries roundoff
# around 1e-11, so relative error 1e-6 is unattainable below gradient
# magnitude ~1.5e-5; under this scale the check degenerates to an
# absolute bound, still ~100x above the roundoff floor.
NEAR_ZERO_SCALE = 3e-5
NEAR_ZERO_ABS = 1e-9

_PIECEWISE = (ActivationKind.RELU, ActivationKind.LEAKY_RELU)


def central_diff(f: Callable[[float], float], x: float, h: float) -> float:
    """(f(x+h) - f(x-h)) / (2h)."""
    if h <= 0:
        raise DomainError(f"step h must be > 0, got {h}")
    hi = f(x + h)
    lo = f(x - h)
    if not (np.isfinite(hi) and np.isfinite(lo)):
        raise DomainError(f"f is not finite at {x} +/- {h}")
    return (hi - lo) / (2.0 * h)


def relative_error(analytic: float, numeric: float) -> float:
    """|a - n| / max(|a|, |n|, 1e-8), except that near-zero gradient pairs
    (both below 3e-5) pass on |a - n| <= 1e-9 instead; a near-zero pair
    violating the absolute bound reports an error that fails any sane
    threshold."""
    diff = abs(analytic - numeric)
    scale = max(abs(analytic), abs(numeric))
    if scale <= NEAR_ZERO_SCALE:
        return 0.0 if diff <= NEAR_ZERO_ABS else diff / REL_ERR_FLOOR
    return diff / max(scale, REL_ERR_FLOOR)


@dataclass
class GroupResult:
    group: str
    max_rel_err: float
    mean_rel_err: float
    argmax_coord: tuple[int, ...]
    n_checked: int
    n_excluded: int
    passed: bool


@dataclass
class GradReport:
    groups: list[GroupResult]
    threshold: float

    @property
    def passed(self) -> bool:
        return all(g.passed for g in self.groups)

    def rows(self) -> list[tuple[str, float, float, int, bool]]:
        """Machine-readable (group, max_rel_err, mean_rel_err, n_excluded, pass)."""
        return [
            (g.group, g.max_rel_err, g.mean_rel_err, g.n_excluded, g.passed)
            for g in self.groups
        ]

    def format(self) -> str:
        width = max(len(g.group) for g in self.groups)
        lines = [
            f"{'group':<{width}}  {'max_rel_err':>12}  {'mean_rel_err':>12}"
            f"  {'excl':>4}  {'argmax':<12}  status"
        ]
        for g in self.groups:
            lines.append(
                f"{g.group:<{width}}  {g.max_rel_err:>12.6e}  {g.mean_rel_err:>12.6e}"
                f"  {g.n_excluded:>4}  {str(g.argmax_coord):<12}  "
                f"{'pass' if g.passed else 'FAIL'}"
            )
        lines.append(f"threshold {self.threshold:.6e}: "
                     f"{'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _decision_pattern(net: net_mod.Network, traces) -> tuple[np.ndarray, ...]:
    """Branch decisions of one forward run: piecewise-activation signs and
    pool winner coordinates."""
    parts: list[np.ndarray] = []
    conv_trace, pool_trace = traces[0], traces[1]
    if net.conv_activation in _PIECEWISE:
        parts.append(conv_trace.preact >= 0)
    parts.append(pool_trace.argmax_rows)
    parts.append(pool_trace.argmax_cols)
    for layer, trace in zip(net.dense, traces[2:]):
        if layer.activation in _PIECEWISE:
            parts.append(trace.preact >= 0)
    return tuple(parts)


def _patterns_equal(a: tuple[np.ndarray, ...], b: tuple[np.ndarray, ...]) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(a, b))


def check_network(
    net: net_mod.Network,
    sample: tuple[np.ndarray, np.ndarray],
    threshold: float = 1e-6,
    h_rel: float = 1e-5,
) -> GradReport:
    """Compare backward() against central differences of the cross-entropy
    loss for every parameter.

    Each entry of ``net.params`` is perturbed by h = h_rel * max(1, |theta|)
    and restored exactly afterwards; the report carries one row per
    ``param_groups`` entry.
    Not safe to run concurrently on one network instance.
    """
    if not 0 < h_rel <= 1e-3:
        raise DomainError(f"h_rel must be in (0, 1e-3], got {h_rel}")
    image, label = sample

    def run() -> tuple[float, tuple[np.ndarray, ...]]:
        yhat, traces = net_mod.forward(net, image)
        value = loss(LossKind.CROSS_ENTROPY, yhat, label)
        if not np.isfinite(value):
            raise DomainError("loss is not finite")
        return value, _decision_pattern(net, traces)

    _, traces = net_mod.forward(net, image)
    analytic = net_mod.backward(net, traces, label)
    params = net.params

    results = []
    for name, group, shape in net_mod.param_groups(net):
        errors: list[float] = []
        coords: list[tuple[int, ...]] = []
        n_excluded = 0
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
            if not _patterns_equal(pat_hi, pat_lo):
                n_excluded += 1
                continue
            numeric = (loss_hi - loss_lo) / (2.0 * h)
            errors.append(relative_error(analytic[idx], numeric))
            coords.append(tuple(int(i) for i in np.unravel_index(idx - group.start, shape)))
        max_err = max(errors) if errors else 0.0
        mean_err = sum(errors) / len(errors) if errors else 0.0
        argmax = coords[errors.index(max_err)] if errors else ()
        results.append(
            GroupResult(
                group=name,
                max_rel_err=max_err,
                mean_rel_err=mean_err,
                argmax_coord=argmax,
                n_checked=len(errors),
                n_excluded=n_excluded,
                passed=max_err <= threshold,
            )
        )
    return GradReport(groups=results, threshold=threshold)
