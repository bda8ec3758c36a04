"""Fuzzing of the model-file, IDX and PGM parsers: mutated or truncated
bytes may raise only ConvkitError (never struct.error, IndexError,
ValueError, MemoryError, ...).

Derandomized and bounded, so every run checks the same inputs.
"""

import io
import struct

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from convkit import network as nm
from convkit.dataio import dataset_from_idx, load_idx_images, load_idx_labels, load_pgm
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


# --- IDX and PGM ----------------------------------------------------------

# header fields: small plausible values, or anywhere in the u32 range
small = st.integers(1, 4)
u32 = st.one_of(small, small, st.integers(0, 2**32 - 1))
# payload length: what the header claims (when small), or any small length
payloads = st.none() | st.integers(0, 64)


def mutate(blob: bytes, header: int, edits, length: int) -> bytes:
    """``blob`` cut or zero-extended to ``length``, then edited; an edit at a
    negative position lands in the first ``header`` bytes."""
    out = bytearray(blob + bytes(max(0, length - len(blob))))[:length]
    for pos, value in edits:
        pos = pos % header if pos < 0 else pos
        if pos < len(out):
            out[pos] = value
    return bytes(out)


byte_edits = st.lists(st.tuples(st.integers(-64, 64), st.integers(0, 255)), max_size=4)


def idx_images(count, rows, cols, payload):
    if payload is None:
        payload = min(count * rows * cols, 64)
    return struct.pack(">IIII", 0x00000803, count, rows, cols) + bytes(range(payload))


def idx_labels(count, payload):
    return struct.pack(">II", 0x00000801, count) + bytes(payload)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(count=u32, rows=u32, cols=u32, payload=payloads, edits=byte_edits,
       cut=st.integers(-4, 4))
def test_load_idx_images_raises_only_convkit_errors(count, rows, cols, payload, edits, cut):
    blob = idx_images(count, rows, cols, payload)
    blob = mutate(blob, 16, edits, len(blob) - cut)
    try:
        images = load_idx_images(io.BytesIO(blob))
    except ConvkitError:
        return
    assert images.dtype == np.uint8 and images.ndim == 3
    assert 16 + images.size == len(blob) and min(images.shape[1:]) >= 1


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(count=u32, payload=st.integers(0, 32), edits=byte_edits, cut=st.integers(0, 8))
def test_load_idx_labels_raises_only_convkit_errors(count, payload, edits, cut):
    blob = idx_labels(count, range(payload))
    blob = mutate(blob, 8, edits, len(blob) - cut)
    try:
        labels = load_idx_labels(io.BytesIO(blob))
    except ConvkitError:
        return
    assert labels.dtype == np.uint8 and labels.tolist() == list(blob[8:])


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(count=st.integers(0, 4), rows=u32, cols=u32, payload=payloads,
       class_count=st.integers(-1, 12), edits=byte_edits, data=st.data())
def test_dataset_from_idx_raises_only_convkit_errors(count, rows, cols, payload,
                                                     class_count, edits, data):
    images = idx_images(count, rows, cols, payload)
    images = mutate(images, 16, edits, len(images))
    label_values = st.integers(0, 12)
    labels = data.draw(st.lists(label_values, min_size=count, max_size=count)
                       | st.lists(label_values, max_size=6))
    label_count = data.draw(st.just(len(labels)) | u32)
    try:
        dataset = dataset_from_idx(io.BytesIO(images),
                                   io.BytesIO(idx_labels(label_count, labels)), class_count)
    except ConvkitError:
        return
    assert dataset.images.shape[:2] == (len(labels), 1)
    assert dataset.images.size == len(images) - 16
    assert ((0.0 <= dataset.images) & (dataset.images <= 1.0)).all()
    assert dataset.labels.shape == (len(labels), class_count)
    assert dataset.labels.argmax(axis=1).tolist() == labels


# PGM header tokens: small extents, odd integers, and malformed tokens
odd_tokens = st.sampled_from([b"", b"x", b"2#c\n", b"+3", b"0x4", b"1_0", b"\xff", b"255 "])
extents = st.one_of(small, small, st.integers(-2, 2**40), odd_tokens)
maxvals = st.one_of(st.just(255), st.integers(-2, 300), odd_tokens)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(fields=st.tuples(extents, extents, maxvals),
       sep=st.sampled_from([b" ", b"\n", b"\t", b"#c\n", b" # c\n", b""]),
       payload=st.integers(0, 40), edits=byte_edits, cut=st.integers(-2, 2))
def test_load_pgm_raises_only_convkit_errors(fields, sep, payload, edits, cut):
    tokens = [f if isinstance(f, bytes) else str(f).encode() for f in fields]
    header = sep.join([b"P5", *tokens]) + b"\n"
    if all(isinstance(f, int) for f in fields[:2]) and 0 < fields[0] * fields[1] <= 40:
        payload = fields[0] * fields[1]
    blob = mutate(header + bytes(range(payload)), len(header), edits,
                  len(header) + payload - cut)
    try:
        image = load_pgm(io.BytesIO(blob))
    except ConvkitError:
        return
    assert image.dtype == np.uint8 and image.ndim == 2 and min(image.shape) >= 1
