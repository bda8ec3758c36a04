"""Dense real-array helpers used everywhere else in the toolkit.

Arrays are float64 ``numpy.ndarray``s. Layout is fixed and documented
once, so file formats and flatten order are unambiguous:

* rank-2: row-major, index (i, j) -> i*W + j
* rank-3: channel-major, index (c, h, w) -> ((c*H) + h)*W + w

which is exactly numpy's C order. All arithmetic is in 64-bit floats;
where a summation order is promised (``matvec``, ``sum_rows``), it is
ascending-index and reproducible bit-for-bit across runs. Such sums are
axis-0 reductions over C-order rows: numpy adds those one row at a time
into a running total, whereas a reduction along a contiguous axis is
pairwise and would change bits.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError

# The most bytes one array of a run may take. At 1 GiB one sample's
# forward and backward arrays stay well inside a few GiB of RAM, and the
# 60,000-image MNIST set (376 MB of float64) still fits.
MAX_BYTES = 1 << 30

# A working-set target, not a refusal bound: the most bytes of products a
# layer should form at a time, so that they stay in a core's L2 cache with
# their operands. The conv layer forms its products one kernel group at a
# time, each group as many kernels as fit, and at least one.
SLAB_BYTES = 1 << 17

# numpy converts a Python scalar operand, or a dtype given as its type, on
# every call; a 0-d float64 array or a dtype instance skips that work with
# the same bits. Read-only: every caller on the per-sample path shares them.
F64 = np.dtype(np.float64)
ZERO = np.array(0.0)
ONE = np.array(1.0)
ZERO.flags.writeable = ONE.flags.writeable = False


def check_bytes(arrays: dict[str, int]) -> None:
    """Raise ``ShapeError`` naming the first array whose size in bytes,
    given as ``{name: bytes}``, exceeds ``MAX_BYTES``. Callers check before
    they allocate."""
    for name, nbytes in arrays.items():
        if nbytes > MAX_BYTES:
            raise ShapeError(f"{name} would take {nbytes} bytes, more than {MAX_BYTES}")


def sum_rows(p: np.ndarray, initial: float = -0.0) -> np.ndarray:
    """Column sums out[j] = initial + sum_i p[i, j] of a C-contiguous rank-2
    array, adding the rows in ascending i into one accumulator per column.

    The default -0.0 is the exact additive identity, so each sum equals a
    running sum started at p[0, j]; from +0.0 an all -0.0 column sums to
    +0.0. With a single column numpy would see one contiguous reduction
    and sum it pairwise, so that case takes a sequential cumsum and adds
    ``initial`` last, which gives the same bits for either zero.
    """
    if p.shape[1] == 1:
        return np.cumsum(p[:, 0])[-1:] + initial
    return np.add.reduce(p, axis=0, initial=initial)


def matvec(w: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Matrix-vector product out[i] = sum_j w[i, j] * a[j].

    The products are laid out as the C-order rows of w.T * a[:, None] and
    summed by ``sum_rows``, so each row's sum runs in ascending j with a
    single accumulator: bit-identical to a naive double loop whose
    accumulator starts at the row's first product, and deterministic
    across runs.
    """
    w = np.asarray(w, dtype=F64)
    a = np.asarray(a, dtype=F64)
    if w.ndim != 2 or a.ndim != 1:
        raise ShapeError(f"matvec expects rank-2 by rank-1, got {w.ndim} by {a.ndim}")
    if w.shape[1] != a.shape[0]:
        raise ShapeError(f"inner dims disagree: {w.shape} vs {a.shape}")
    return sum_rows(np.multiply(w.T, a[:, None], order="C"))
