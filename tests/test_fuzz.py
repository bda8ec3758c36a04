"""Fuzzing of the model-file parser: mutated or truncated model bytes may
raise only ConvkitError (never struct.error, IndexError, MemoryError, ...).

Derandomized and bounded, so every run checks the same inputs.
"""

import io

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from convkit import network as nm
from convkit.errors import ConvkitError
from convkit.layers import ConvGeometry, PoolGeometry

ARCH = nm.Architecture(
    conv=ConvGeometry(8, 8, 1, 3, 3, 2),
    pool=PoolGeometry(2, 2),
    dense_widths=(8, 2),
)


def _model_bytes() -> bytes:
    buf = io.BytesIO()
    nm.save(nm.init(ARCH, 0), buf)
    return buf.getvalue()


BLOB = _model_bytes()
# magic, version, conv and pool geometry, dense count, two dense headers
HEADER = 4 + 4 + 8 * 4 + 2 * 4 + 4 + 2 * 9

positions = st.one_of(st.integers(0, HEADER - 1), st.integers(0, len(BLOB) - 1))
edits = st.lists(st.tuples(positions, st.integers(0, 255)), max_size=6)
lengths = st.one_of(st.just(len(BLOB)), st.integers(0, len(BLOB) + 8))


@settings(derandomize=True, max_examples=600, deadline=None, database=None)
@given(edits=edits, length=lengths)
def test_load_raises_only_convkit_errors(edits, length):
    blob = bytearray(BLOB + bytes(8))[:length]
    for pos, value in edits:
        if pos < len(blob):
            blob[pos] = value
    try:
        net = nm.load(io.BytesIO(bytes(blob)))
    except ConvkitError:
        return
    # whatever load() accepts, save() writes back byte for byte
    out = io.BytesIO()
    nm.save(net, out)
    assert out.getvalue() == blob
