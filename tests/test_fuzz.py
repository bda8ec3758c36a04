"""Fuzzing of the model-file, IDX, PGM and config parsers: mutated or
truncated bytes may raise only ConvkitError (never struct.error,
IndexError, ValueError, MemoryError, ...), and `convkit train` and
`convkit gradcheck` on small configs end in a documented exit code.

Derandomized and bounded, so every run checks the same inputs.
"""

import io
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from convkit import network as nm
from convkit.activations import ActivationKind
from convkit.cli import RunConfig, main
from convkit.dataio import dataset_from_idx, load_idx_images, load_idx_labels, load_pgm
from convkit.errors import ConfigError, ConvkitError, GeometryError
from convkit.layers import ConvGeometry, DenseLayer, KernelBank, PoolGeometry
from test_dataio import pgm_outcome, reference_load_pgm

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


# Every way a caller can name a kind that DenseLayer accepts.
KIND_VALUES = [0, 2, ActivationKind.SIGMOID, ActivationKind.RELU, np.uint8(0), np.int64(2), 2.0]


@st.composite
def networks(draw):
    """Any small network that construction accepts, its parameters drawn
    as raw float64 bit patterns (NaN payloads, -0.0 and infinities
    included)."""
    k_h, k_w, pad, stride = (draw(st.integers(1, 3)), draw(st.integers(1, 3)),
                             draw(st.integers(0, 1)), draw(st.integers(1, 2)))
    in_h = max(1, k_h - 2 * pad) + stride * draw(st.integers(0, 3))
    in_w = max(1, k_w - 2 * pad) + stride * draw(st.integers(0, 3))
    try:
        conv = ConvGeometry(in_h, in_w, draw(st.integers(1, 2)), k_h, k_w,
                            draw(st.integers(1, 3)), stride, pad)
        h1, w1, _ = conv.output_dims
        pool = PoolGeometry(draw(st.integers(1, min(h1, w1))), draw(st.integers(1, 2)))
        arch = nm.Architecture(conv, pool, tuple(draw(st.lists(st.integers(1, 4),
                                                               min_size=1, max_size=3))))
        n_in = arch.flat_length()
    except GeometryError:
        assume(False)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def bits(*shape):
        return rng.integers(0, 2**64, size=shape, dtype=np.uint64).view(np.float64)

    dense = []
    for width in arch.dense_widths:
        kind = draw(st.sampled_from(KIND_VALUES))
        dense.append(DenseLayer(bits(width, n_in), bits(width), kind))
        n_in = width
    kernels = bits(conv.n_kernels, conv.in_c, conv.k_h, conv.k_w)
    return nm.Network(KernelBank(kernels, bits(conv.n_kernels), conv), pool, dense)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(net=networks())
def test_every_network_round_trips_bit_for_bit(net):
    buf = io.BytesIO()
    nm.save(net, buf)
    loaded = nm.load(io.BytesIO(buf.getvalue()))
    assert loaded.params.tobytes() == net.params.tobytes()
    assert loaded.bank.geometry == net.bank.geometry and loaded.pool == net.pool
    assert [layer.activation for layer in loaded.dense] == [layer.activation for layer in net.dense]
    out = io.BytesIO()
    nm.save(loaded, out)
    assert out.getvalue() == buf.getvalue()


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
    assert dataset.labels.dtype == np.int64 and dataset.labels.tolist() == labels


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


# The differential test's separators add '\r', '\x0b', '\x0c' (bytes.isspace()
# holds them), NUL (it does not) and a lone '#'; its tokens add ones longer
# than the 32 bytes an error message quotes.
pgm_separators = st.sampled_from([b" ", b"\n", b"\t", b"\r", b"\x0b", b"\x0c", b"\x00",
                                  b"#c\n", b" # c\r\n", b"#", b""])
long_tokens = st.sampled_from([b"x" * 33, b"9" * 40, b"P5" + bytes(31)])
signatures = st.sampled_from([b"P5", b"P5", b"P5", b"P6", b"#P5", b"x"]) | long_tokens
header_fields = st.one_of(extents, extents, long_tokens)
header_soup = st.lists(st.sampled_from([b"P5", b"P6", b"1", b"2", b"5", b"+", b"_", b"#",
                                        b" ", b"\n", b"\r", b"\x0b", b"\x0c", b"\x00",
                                        b"x"]), max_size=24).map(b"".join)


@st.composite
def pgm_headers(draw) -> bytes:
    tokens = [draw(signatures), draw(header_fields), draw(header_fields), draw(maxvals)]
    tokens = [t if isinstance(t, bytes) else str(t).encode() for t in tokens]
    # the last separator ends the header, or cuts it off inside a comment
    seps = [draw(pgm_separators) for _ in range(4)]
    end = draw(st.sampled_from([b"\n", b" ", b"\r", b"", b"#cut"]))
    return b"".join(s + t for s, t in zip(seps, tokens)) + end


@settings(derandomize=True, max_examples=2000, deadline=None, database=None)
@given(header=pgm_headers() | header_soup, payload=st.binary(max_size=20))
def test_load_pgm_matches_the_byte_scanner(header, payload):
    blob = header + payload
    new = pgm_outcome(lambda b: load_pgm(io.BytesIO(b)), blob)
    old = pgm_outcome(reference_load_pgm, blob)
    if isinstance(old, np.ndarray):
        assert isinstance(new, np.ndarray) and new.dtype == old.dtype
        assert np.array_equal(new, old)
        return
    assert type(new) is type(old)
    # only a quoted token over 32 bytes is clipped
    if max(map(len, blob.split()), default=0) <= 32:
        assert str(new) == str(old)


# --- RunConfig and the train/gradcheck commands ---------------------------

CONFIG_KEYS = ["conv.kernels", "conv.size", "conv.stride", "conv.pad", "pool.window",
               "pool.stride", "dense.widths", "train.alpha", "train.epochs",
               "train.batch_size", "train.seed", "data.source"]
config_keys = st.sampled_from(CONFIG_KEYS) | st.text(max_size=8)
config_values = st.one_of(
    st.integers(-2**70, 2**70).map(str),
    st.floats().map(str),
    st.lists(st.integers(-3, 9).map(str), max_size=3).map(",".join),
    st.sampled_from(["", " 1", "1_0", "0x1", "1e400", "-0", "bars:4,8,8", "9" * 5000]),
    st.text(max_size=12),
)
config_lines = st.one_of(
    st.tuples(config_keys, config_values).map("=".join),
    st.text(max_size=16),
)
config_texts = st.one_of(
    st.lists(config_lines, max_size=8).map("\n".join).map(
        lambda t: t.encode("utf-8", "surrogatepass")),
    st.binary(max_size=64),
)


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "run.cfg"


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(text=config_texts)
def test_run_config_raises_only_config_errors(config_path, text):
    config_path.write_bytes(text)
    try:
        cfg = RunConfig.from_file(str(config_path))
    except ConfigError:
        return
    for key in [*CONFIG_KEYS, *cfg.pairs]:
        for read in (cfg.require, cfg.intval, cfg.floatval, cfg.widths,
                     lambda k: cfg.intval(k, 1, 2**64 - 1)):
            try:
                read(key)
            except ConfigError:
                pass


def widths(ws):
    return ",".join(map(str, ws))


def bars(nhw):
    return "bars:{},{},{}".format(*nhw)


ints = st.integers
# (values of a config that may run, values from a wider small range)
SMALL_VALUES = {
    "conv.kernels": (ints(1, 3), ints(0, 3)),
    "conv.size": (ints(1, 4), ints(0, 9)),
    "conv.stride": (st.just(1), ints(0, 2)),
    "conv.pad": (ints(0, 2), ints(-1, 2)),
    "pool.window": (ints(1, 2), ints(0, 9)),
    "pool.stride": (ints(1, 2), ints(0, 3)),
    "dense.widths": (st.lists(ints(1, 4), max_size=1).map(lambda ws: widths(ws + [2])),
                     st.lists(ints(0, 4), min_size=1, max_size=2).map(widths)),
    "train.alpha": (st.floats(0.0, 2.0), st.floats(-0.5, 2.0) | st.sampled_from(["nan", "x"])),
    "train.epochs": (ints(1, 2), ints(0, 2)),
    "train.batch_size": (ints(1, 16), ints(0, 17)),
    "train.seed": (ints(0, 3), ints(-1, 3)),
    "data.source": (st.tuples(ints(1, 8).map(lambda k: 2 * k), ints(4, 9), ints(4, 9)).map(bars),
                    st.tuples(ints(0, 16), ints(0, 9), ints(0, 9)).map(bars)),
}
# the key drawn from its wider range, and the key left out
CHANGES = st.tuples(st.none() | st.sampled_from(CONFIG_KEYS),
                    st.none() | st.none() | st.sampled_from(CONFIG_KEYS))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(command=st.sampled_from(["train", "gradcheck"]), changes=CHANGES, data=st.data())
def test_small_configs_end_in_an_exit_code(command, changes, data):
    wide, dropped = changes
    pairs = {key: data.draw(values[key == wide], label=key)
             for key, values in SMALL_VALUES.items() if key != dropped}
    with tempfile.TemporaryDirectory() as tmp:
        outs = [Path(tmp) / "out.cnnf", Path(tmp) / "out.csv"]
        cfg = Path(tmp) / "run.cfg"
        lines = [f"{k}={v}" for k, v in pairs.items()]
        lines += [f"out.model={outs[0]}", f"out.csv={outs[1]}"]
        cfg.write_text("\n".join(lines) + "\n")
        code = main([command, str(cfg)])
        assert code in (0, 1, 2, 3)
        if code != 0 or command == "gradcheck":
            assert not any(p.exists() for p in outs)
        else:
            assert all(p.exists() for p in outs)
