"""Central-finite-difference oracle for every analytic gradient.

The checker perturbs one parameter at a time, re-runs the forward pass,
and compares the numeric slope of the scalar loss against the backward
pass. Relative error uses a 1e-8 floor so near-zero gradients cannot
blow up the ratio; where both gradients are essentially zero the check
degenerates to an absolute bound of 1e-9.

A finite difference straddling a ReLU kink or a pooling tie measures
the wrong thing, so any perturbation pair whose two forward runs make
different branch decisions (signs or pool winners) is excluded from the
error statistics and counted separately. Only the decisions from the
perturbed parameter's layer on are compared: the layers before it never
read the parameter, so both runs make their decisions alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import network as net_mod
from .activations import ActivationKind
from .dataio import one_hot
from .errors import DomainError
from .losses import LossKind, loss
from .tensor import ZERO

# Relative perturbation step of the central differences.
H_REL = 1e-5
REL_ERR_FLOOR = 1e-8
# A central difference of a loss near 1.0 at h ~ 1e-5 carries roundoff
# around 1e-11, so relative error 1e-6 is unattainable below gradient
# magnitude ~1.5e-5; under this scale the check degenerates to an
# absolute bound, still ~100x above the roundoff floor.
NEAR_ZERO_SCALE = 3e-5
NEAR_ZERO_ABS = 1e-9

def relative_error(analytic: float, numeric: float) -> float:
    """|a - n| / max(|a|, |n|, 1e-8), except that near-zero gradient pairs
    (both below 3e-5) pass on |a - n| <= 1e-9 instead; a near-zero pair
    violating the absolute bound reports an error that fails any sane
    threshold. A pair whose |a - n| is not finite reports inf, so it fails
    and is its group's max; ``max`` would skip a NaN."""
    diff = abs(analytic - numeric)
    if not math.isfinite(diff):
        return math.inf
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


def _decision_reads(net: net_mod.Network, first: int) -> list[tuple[int, bool]]:
    """The decisions a forward run makes from trace ``first`` on, as
    (trace index, is pool) pairs: the signs of the ReLU conv trace, the
    pool trace's winners, and the signs of each ReLU dense trace."""
    kinds = [ActivationKind.RELU, None] + [layer.activation for layer in net.dense]
    return [(k, kind is None) for k, kind in enumerate(kinds)
            if k >= first and kind in (None, ActivationKind.RELU)]


def _pattern(traces, reads: list[tuple[int, bool]]) -> bytes:
    """Branch decisions ``reads`` names in one forward run's traces: ReLU
    signs and flat pool winner positions, as the concatenated bytes of
    their arrays. Every part has a size fixed by the network, so two runs
    made the same decisions exactly when their patterns are equal."""
    return b"".join([traces[k].winners.tobytes() if pool
                     else (traces[k].preact >= ZERO).tobytes() for k, pool in reads])


def check_network(
    net: net_mod.Network, sample: tuple[np.ndarray, int], threshold: float = 1e-6
) -> GradReport:
    """Compare backward() against central differences of the cross-entropy
    loss for every parameter, on one (image, class index) sample.

    Each parameter is perturbed by h = H_REL * max(1, |theta|) in a copy
    of ``net``, so ``net`` itself is never written; the report carries one
    row per ``param_groups`` entry.
    """
    net = replace(net)
    image, index = sample
    label = one_hot(index, net.class_count)

    def run(reads: list[tuple[int, bool]]) -> tuple[float, bytes]:
        yhat, traces = net_mod.forward(net, image)
        value = loss(LossKind.CROSS_ENTROPY, yhat, label)
        if not math.isfinite(value):
            raise DomainError("loss is not finite")
        return value, _pattern(traces, reads)

    _, traces = net_mod.forward(net, image)
    analytic = net_mod.backward(net, traces, label, np.zeros_like(net.params)).tolist()
    params = net.params

    results = []
    for k, (name, group, shape) in enumerate(net_mod.param_groups(net)):
        # The two conv groups reach every trace; W and b of dense[i]
        # (groups 2 + 2i and 3 + 2i) reach traces 2 + i on.
        reads = _decision_reads(net, 0 if k < 2 else k // 2 + 1)
        errors: list[float] = []
        checked: list[int] = []
        n_excluded = 0
        for idx in range(group.start, group.stop):
            # Python floats give the float64 scalars' IEEE results.
            theta = float(params[idx])
            h = H_REL * max(1.0, abs(theta))
            params[idx] = theta + h
            loss_hi, pat_hi = run(reads)
            params[idx] = theta - h
            loss_lo, pat_lo = run(reads)
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
