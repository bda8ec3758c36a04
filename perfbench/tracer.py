"""Call tracing of convkit's public functions, from outside the library.

Callers reach a function through every module that imported it by name
(``network.py`` does ``from .layers import conv_forward``), so patching
the defining module alone records nothing. ``Tracer`` therefore replaces
the function object at every ``convkit.*`` binding that holds it, and
puts every original back when recording ends.

Self time comes from a span stack: each span adds its duration to its
parent's child total, and a span's self time is its duration minus that
total.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable

import convkit  # noqa: F401  (the package whose modules are patched)

# The functions the benchmark traces, as "<module>.<function>" under convkit.
TRACED = (
    "layers.conv_forward",
    "layers.conv_backward",
    "layers.maxpool_forward",
    "layers.maxpool_backward",
    "layers.dense_forward",
    "layers.dense_backward",
    "tensor.matvec",
    "activations.apply",
    "activations.derivative",
    "losses.loss",
    "losses.ce_grad",
    "network.forward",
    "network.backward",
    "network.sgd_step",
    "network.evaluate",
    "network.train",
    "network.init",
    "network.save",
    "network.load",
    "gradcheck.check_network",
    "dataio.synth_bars",
    "dataio.dataset_from_idx",
)


def _convkit_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "convkit" or name.startswith("convkit."))]


def _resolve(qualname: str) -> Callable:
    module, func = qualname.split(".")
    __import__(f"convkit.{module}")
    return getattr(sys.modules[f"convkit.{module}"], func)


class Tracer:
    """Records calls, busy time and self time per traced function.

    Use as a context manager: entering installs the wrappers, leaving
    restores the originals. Outside the ``with`` block the library runs
    unpatched. Counters accumulate until ``take()`` returns and clears
    them.
    """

    def __init__(self):
        self.originals = {name: _resolve(name) for name in TRACED}
        self.stats = {name: [0, 0.0, 0.0] for name in TRACED}  # calls, busy, self
        self._stack: list[float] = []
        self._wrappers = {name: self._wrap(name, fn) for name, fn in self.originals.items()}
        self._patched: list[tuple[object, str, Callable]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        stats = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - children
                if stack:
                    stack[-1] += elapsed

        return traced

    def _bound(self):
        """Yield (module, attribute, name) for every convkit binding of an original."""
        by_id = {id(fn): name for name, fn in self.originals.items()}
        for module in _convkit_modules():
            for attr, value in list(vars(module).items()):
                name = by_id.get(id(value))
                if name is not None:
                    yield module, attr, name

    def bindings(self) -> dict[str, int]:
        """Number of module attributes currently bound to each original."""
        counts = dict.fromkeys(TRACED, 0)
        for _, _, name in self._bound():
            counts[name] += 1
        return counts

    def __enter__(self) -> "Tracer":
        if self._patched:
            raise RuntimeError("tracer is already installed")
        for module, attr, name in list(self._bound()):
            setattr(module, attr, self._wrappers[name])
            self._patched.append((module, attr, self.originals[name]))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        self._stack.clear()

    def take(self) -> dict[str, tuple[int, float, float]]:
        """Return (calls, busy_s, self_s) per function and reset the counters."""
        out = {name: (s[0], s[1], s[2]) for name, s in self.stats.items()}
        for s in self.stats.values():
            s[0], s[1], s[2] = 0, 0.0, 0.0
        return out
