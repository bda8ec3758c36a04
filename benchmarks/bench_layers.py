"""pytest-benchmark cases for the conv layer at the benchmark's two
geometries: bars (8x8 input, 6 kernels of 3x3) and MNIST (28x28 input,
8 kernels of 5x5).

Run from the repository root with::

    PYTHONPATH=src python -m pytest benchmarks --benchmark-only

and add ``--benchmark-json=<file>`` to keep the statistics. The tier-1
suite does not collect this directory (``testpaths`` is ``tests``).
"""

import numpy as np
import pytest

from convkit.activations import ActivationKind
from convkit.layers import (
    ConvGeometry,
    KernelBank,
    conv_backward,
    conv_forward,
    conv_output_dims,
)

GEOMETRIES = {
    "bars": ConvGeometry(8, 8, 1, 3, 3, 6),
    "mnist": ConvGeometry(28, 28, 1, 5, 5, 8),
}


def operands(g: ConvGeometry):
    """A seeded kernel bank, input image and pre-activation gradient."""
    rng = np.random.default_rng(0)
    bound = 1.0 / np.sqrt(g.in_c * g.k_h * g.k_w)
    kernels = rng.uniform(-bound, bound, size=(g.n_kernels, g.in_c, g.k_h, g.k_w))
    bank = KernelBank(kernels=kernels, biases=np.zeros(g.n_kernels), geometry=g)
    image = rng.uniform(0.0, 1.0, size=(g.in_c, g.in_h, g.in_w))
    h1, w1, d1 = conv_output_dims(g)
    return bank, image, rng.standard_normal((d1, h1, w1))


@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_conv_forward(benchmark, geometry):
    bank, image, _ = operands(GEOMETRIES[geometry])
    benchmark(conv_forward, image, bank, ActivationKind.RELU)


@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_conv_backward(benchmark, geometry):
    bank, image, grad = operands(GEOMETRIES[geometry])
    benchmark(conv_backward, grad, image, bank)
