import io
import struct
import tracemalloc

import numpy as np
import pytest

from convkit import dataio, tensor
from convkit import network as nm
from convkit.dataio import (
    Dataset,
    dataset_from_idx,
    load_idx_images,
    load_idx_labels,
    load_pgm,
    normalize,
    one_hot,
    synth_bars,
)
from convkit.errors import ConvkitError, DomainError, ParseError, ShapeError, TruncationError
from convkit.layers import ConvGeometry, PoolGeometry


# --- test helpers: writers that mirror the published byte layouts --------


def write_idx_images(images) -> bytes:
    h, w = images[0].shape
    out = struct.pack(">IIII", 0x00000803, len(images), h, w)
    for img in images:
        out += bytes(img.ravel().tolist())
    return out


def write_idx_labels(labels) -> bytes:
    return struct.pack(">II", 0x00000801, len(labels)) + bytes(labels)


class CountingStream(io.BytesIO):
    """An in-memory stream that counts the bytes its reads return."""

    def __init__(self, blob):
        super().__init__(blob)
        self.bytes_read = 0

    def read(self, size=-1):
        out = super().read(size)
        self.bytes_read += len(out)
        return out


def write_pgm(img, header=b"P5 %d %d 255\n") -> bytes:
    h, w = img.shape
    return (header % (w, h)) + bytes(img.ravel().tolist())


def reference_load_pgm(blob: bytes) -> np.ndarray:
    """``load_pgm`` of a byte string as it was before its header was read
    through one token pattern: a byte-at-a-time scanner, kept as the
    reference that pattern is compared with."""
    pos = 0

    def skip_separators(p: int) -> int:
        while p < len(blob):
            if blob[p : p + 1].isspace():
                p += 1
            elif blob[p : p + 1] == b"#":
                while p < len(blob) and blob[p] != 0x0A:
                    p += 1
            else:
                break
        return p

    def token(p: int) -> tuple[bytes, int]:
        p = skip_separators(p)
        start = p
        while p < len(blob) and not blob[p : p + 1].isspace():
            p += 1
        if start == p:
            raise TruncationError("PGM header ended before all tokens were read")
        return blob[start:p], p

    sig, pos = token(pos)
    if sig != b"P5":
        raise ParseError(f"not a binary PGM: signature {sig!r}, expected b'P5'")
    fields = []
    for name in ("width", "height", "maxval"):
        tok, pos = token(pos)
        try:
            fields.append(int(tok))
        except ValueError:
            raise ParseError(f"PGM {name} {tok!r} is not an integer") from None
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise ParseError(f"PGM extents {width}x{height} must be positive")
    tensor.check_bytes({"PGM image": 8 * width * height})
    only_8_bit = f"PGM maxval {maxval}: only 8-bit PGMs (maxval 255) are read"
    if not 0 < maxval <= 255:
        raise ParseError(only_8_bit)
    if pos == len(blob):
        raise TruncationError("PGM header ended after maxval, before its separator byte")
    pos += 1  # single whitespace byte after maxval
    need = width * height
    if len(blob) - pos < need:
        raise TruncationError(
            f"PGM payload holds {len(blob) - pos} bytes, header claims {need}"
        )
    flat = np.frombuffer(blob, dtype=np.uint8, offset=pos, count=need)
    if maxval != 255:
        over = np.flatnonzero(flat > maxval)
        if over.size:
            i = int(over[0])
            raise ParseError(
                f"PGM pixel {flat[i]} at row {i // width}, column {i % width} "
                f"exceeds maxval {maxval}"
            )
        raise ParseError(only_8_bit)
    return flat.reshape(height, width).copy()


def pgm_outcome(load, blob: bytes):
    """What ``load`` makes of ``blob``: its array, or the ConvkitError it raised."""
    try:
        return load(blob)
    except ConvkitError as e:
        return e


class TestIdxImages:
    def test_hand_built_fixture(self):
        a = np.array([[0, 1], [2, 3]], dtype=np.uint8)
        b = np.array([[250, 251], [252, 253]], dtype=np.uint8)
        blob = write_idx_images([a, b])
        imgs = load_idx_images(io.BytesIO(blob))
        assert imgs.shape == (2, 2, 2) and imgs.dtype == np.uint8
        assert np.array_equal(imgs[0], a)
        assert np.array_equal(imgs[1], b)

    def test_label_magic_rejected(self):
        blob = write_idx_labels([1, 2])
        with pytest.raises(ParseError, match="magic"):
            load_idx_images(io.BytesIO(blob))

    def test_truncated_payload(self):
        a = np.zeros((2, 2), dtype=np.uint8)
        blob = write_idx_images([a, a, a, a])
        header = struct.pack(">IIII", 0x00000803, 5, 2, 2)
        with pytest.raises(TruncationError):
            load_idx_images(io.BytesIO(header + blob[16:]))

    def test_extra_payload_rejected(self):
        # a byte past the payload is trailing data, as in the model file
        a = np.zeros((2, 2), dtype=np.uint8)
        blob = write_idx_images([a]) + b"\x00"
        with pytest.raises(ParseError) as e:
            load_idx_images(io.BytesIO(blob))
        assert type(e.value) is ParseError
        assert str(e.value) == "trailing bytes after IDX image pixels: the header gives 20 bytes"

    def test_dimension_overflow_rejected(self):
        # 2**50 pixels take 2**53 bytes as float64
        header = struct.pack(">IIII", 0x00000803, 2**30, 2**10, 2**10)
        with pytest.raises(ShapeError, match="IDX images would take 9007199254740992 bytes"):
            load_idx_images(io.BytesIO(header))

    def test_short_header(self):
        with pytest.raises(TruncationError):
            load_idx_images(io.BytesIO(b"\x00\x00\x08"))

    def test_header_checked_before_pixels_are_read(self, monkeypatch):
        # 8 images of 16x16 take 16,384 bytes as float64
        blob = write_idx_images([np.zeros((16, 16), dtype=np.uint8)] * 8)
        monkeypatch.setattr(tensor, "MAX_BYTES", 16383)
        stream = CountingStream(blob)
        with pytest.raises(ShapeError, match="IDX images would take 16384 bytes"):
            load_idx_images(stream)
        assert stream.bytes_read == 16
        monkeypatch.undo()
        # a bad magic is refused once its 4 bytes are read
        stream = CountingStream(write_idx_labels([1, 2]) + blob[8:])
        with pytest.raises(ParseError, match="magic"):
            load_idx_images(stream)
        assert stream.bytes_read == 4
        # trailing data is seen one byte past the payload
        stream = CountingStream(blob + bytes(1000))
        with pytest.raises(ParseError, match="trailing bytes after IDX image pixels: "
                                             "the header gives 2064 bytes"):
            load_idx_images(stream)
        assert stream.bytes_read == 16 + 2048 + 1

    @pytest.mark.parametrize("count, rows, cols", [(3, 0, 4), (3, 4, 0), (10**6, 0, 0)])
    def test_zero_extents_rejected(self, count, rows, cols):
        header = struct.pack(">IIII", 0x00000803, count, rows, cols)
        with pytest.raises(ParseError, match="extents"):
            load_idx_images(io.BytesIO(header))

    def test_empty_file_is_zero_images(self):
        imgs = load_idx_images(io.BytesIO(struct.pack(">IIII", 0x00000803, 0, 3, 4)))
        assert imgs.shape == (0, 3, 4)


class TestIdxLabels:
    def test_hand_built_fixture(self):
        blob = write_idx_labels([3, 1, 4, 1])
        labels = load_idx_labels(io.BytesIO(blob))
        assert labels.dtype == np.uint8
        assert labels.tolist() == [3, 1, 4, 1]

    def test_image_magic_rejected(self):
        a = np.zeros((2, 2), dtype=np.uint8)
        with pytest.raises(ParseError, match="magic"):
            load_idx_labels(io.BytesIO(write_idx_images([a])))

    def test_truncated(self):
        blob = struct.pack(">II", 0x00000801, 9) + bytes([1, 2, 3])
        with pytest.raises(TruncationError):
            load_idx_labels(io.BytesIO(blob))

    def test_header_checked_before_labels_are_read(self, monkeypatch):
        blob = write_idx_labels([1] * 100)
        monkeypatch.setattr(tensor, "MAX_BYTES", 99)
        stream = CountingStream(blob)
        with pytest.raises(ShapeError, match="IDX label bytes would take 100 bytes"):
            load_idx_labels(stream)
        assert stream.bytes_read == 8
        monkeypatch.undo()
        stream = CountingStream(blob + bytes(50))
        with pytest.raises(ParseError, match="trailing bytes after IDX labels: "
                                             "the header gives 108 bytes"):
            load_idx_labels(stream)
        assert stream.bytes_read == 8 + 100 + 1


# The three binary formats, each a small complete file: (loader, file, its
# sections in order as (name, size), what a trailing byte is said to follow).
def _model_blob():
    buf = io.BytesIO()
    arch = nm.Architecture(ConvGeometry(4, 4, 1, 3, 3, 1), PoolGeometry(2, 2), (2,))
    nm.save(nm.init(arch, seed=3), buf)
    return buf.getvalue()


FORMATS = {
    "model": (nm.load, _model_blob(), [("magic", 4), ("version", 4), ("conv geometry", 32),
                                        ("pool geometry", 8), ("dense count", 4),
                                        ("dense[0] geometry", 9), ("conv kernels", 72),
                                        ("conv biases", 8), ("dense[0] weights", 16),
                                        ("dense[0] biases", 16)], "parameters"),
    "idx-images": (load_idx_images,
                   write_idx_images([np.arange(6, dtype=np.uint8).reshape(2, 3)] * 2),
                   [("IDX image magic", 4), ("IDX image extents", 12),
                    ("IDX image pixels", 12)], "IDX image pixels"),
    "idx-labels": (load_idx_labels, write_idx_labels([1, 0, 2]),
                   [("IDX label magic", 4), ("IDX label count", 4), ("IDX labels", 3)],
                   "IDX labels"),
}


class TestOneReader:
    """The model file and both IDX kinds are read through one reader: a
    cut names the section it falls in, and a byte past the payload is
    trailing data, read and refused one byte past the file."""

    @pytest.mark.parametrize("kind", sorted(FORMATS))
    def test_cut_at_every_offset_names_its_section(self, kind):
        load, blob, sections, _ = FORMATS[kind]
        start = 0
        for name, size in sections:
            for cut in range(start, start + size):
                with pytest.raises(TruncationError) as e:
                    load(io.BytesIO(blob[:cut]))
                assert str(e.value) == (f"file truncated in section '{name}' (need {size} "
                                        f"bytes at offset {start}, have {cut - start})")
            start += size
        assert start == len(blob)
        load(io.BytesIO(blob))

    @pytest.mark.parametrize("kind", sorted(FORMATS))
    def test_one_trailing_byte_is_a_parse_error(self, kind):
        load, blob, _, last = FORMATS[kind]
        stream = CountingStream(blob + bytes(1000))
        with pytest.raises(ParseError) as e:
            load(stream)
        assert type(e.value) is ParseError
        assert str(e.value) == f"trailing bytes after {last}: the header gives {len(blob)} bytes"
        assert stream.bytes_read == len(blob) + 1


class TestIdxRoundTrip:
    def test_dataset_survives_rewrite(self):
        rng = np.random.default_rng(50)
        raws = [rng.integers(0, 256, size=(4, 4)).astype(np.uint8) for _ in range(6)]
        labels = [int(rng.integers(0, 3)) for _ in range(6)]
        ds = dataset_from_idx(
            io.BytesIO(write_idx_images(raws)),
            io.BytesIO(write_idx_labels(labels)),
            class_count=3,
        )
        # reconstruct the raw bytes from the dataset and reload
        raws_back = [
            np.round(img[0] * 255.0).astype(np.uint8) for img in ds.images
        ]
        labels_back = ds.labels.tolist()
        again = dataset_from_idx(
            io.BytesIO(write_idx_images(raws_back)),
            io.BytesIO(write_idx_labels(labels_back)),
            class_count=3,
        )
        for a, b in zip(ds.images, again.images):
            assert np.array_equal(a, b)
        for a, b in zip(ds.labels, again.labels):
            assert np.array_equal(a, b)

    def test_bit_identical_to_per_sample_oracle(self):
        # the images hold the bits that normalize gives one sample at a
        # time, the labels the file's class indices
        rng = np.random.default_rng(51)
        raws = rng.integers(0, 256, size=(7, 5, 3)).astype(np.uint8)
        labels = [int(k) for k in rng.integers(0, 4, size=7)]
        ds = dataset_from_idx(
            io.BytesIO(write_idx_images(raws)),
            io.BytesIO(write_idx_labels(labels)),
            class_count=4,
        )
        assert ds.images.shape == (7, 1, 5, 3) and ds.labels.shape == (7,)
        assert ds.images.flags.c_contiguous and ds.images.dtype == np.float64
        want_images = np.stack([normalize(r) for r in raws])
        assert ds.images.tobytes() == want_images.tobytes()
        assert ds.labels.tobytes() == np.array(labels, dtype=np.int64).tobytes()

    def test_labels_read_first_and_counts_matched(self):
        a = np.zeros((2, 2), dtype=np.uint8)
        images = CountingStream(write_idx_images([a, a]))
        with pytest.raises(ParseError, match="magic"):
            dataset_from_idx(images, io.BytesIO(write_idx_images([a])), class_count=2)
        assert images.bytes_read == 0
        with pytest.raises(ParseError, match="2 images but 3 labels"):
            dataset_from_idx(io.BytesIO(write_idx_images([a, a])),
                             io.BytesIO(write_idx_labels([0, 1, 0])), class_count=2)

    def test_byte_limit(self, monkeypatch):
        # 6 images of 4x4 take 768 bytes as float64, their labels 48 as int64
        # whatever the class count
        raws = [np.zeros((4, 4), dtype=np.uint8)] * 6
        labels = write_idx_labels([0] * 6)

        def load():
            return dataset_from_idx(
                io.BytesIO(write_idx_images(raws)), io.BytesIO(labels), class_count=20
            )

        monkeypatch.setattr(tensor, "MAX_BYTES", 768)
        ds = load()
        assert ds.images.nbytes == 768 and ds.labels.nbytes == 48
        monkeypatch.setattr(tensor, "MAX_BYTES", 767)
        with pytest.raises(ShapeError, match="IDX images would take 768 bytes"):
            load()


class TestPgm:
    def test_image_bytes_checked_before_copying(self, monkeypatch):
        # 30x20 pixels take 4,800 bytes as float64
        blob = b"P5 30 20 255\n" + bytes(600)
        monkeypatch.setattr(tensor, "MAX_BYTES", 4800)
        assert load_pgm(io.BytesIO(blob)).shape == (20, 30)
        monkeypatch.setattr(tensor, "MAX_BYTES", 4799)
        stream = CountingStream(blob + bytes(10_000))
        with pytest.raises(ShapeError, match="PGM image would take 4800 bytes, more than 4799"):
            load_pgm(stream)
        # no more of the file is read than MAX_BYTES + 1 bytes
        assert stream.bytes_read == 4800

    def test_simple(self):
        img = load_pgm(io.BytesIO(b"P5 2 2 255\n" + bytes([0, 128, 255, 64])))
        assert np.array_equal(img, [[0, 128], [255, 64]])

    def test_comment_between_tokens(self):
        blob = b"P5\n# a comment line\n2 2\n# another\n255\n" + bytes([1, 2, 3, 4])
        assert np.array_equal(load_pgm(io.BytesIO(blob)), [[1, 2], [3, 4]])

    def test_p6_rejected(self):
        with pytest.raises(ParseError, match="P5"):
            load_pgm(io.BytesIO(b"P6 2 2 255\n" + bytes(12)))

    def test_maxval_too_large(self):
        with pytest.raises(ParseError, match="maxval"):
            load_pgm(io.BytesIO(b"P5 2 2 65535\n" + bytes(8)))

    def test_short_payload(self):
        with pytest.raises(TruncationError):
            load_pgm(io.BytesIO(b"P5 2 2 255\n" + bytes([1, 2, 3])))

    def test_first_pixel_above_maxval_named(self):
        # Read against 255, the 200 here would pass as a valid 0.784.
        with pytest.raises(ParseError, match=r"pixel 200 at row 0, column 1 exceeds maxval 15"):
            load_pgm(io.BytesIO(b"P5 2 1 15\n" + bytes([15, 200])))
        blob = b"P5 3 2 100\n" + bytes([0, 100, 7, 99, 101, 255])
        with pytest.raises(ParseError, match=r"pixel 101 at row 1, column 1 exceeds maxval 100"):
            load_pgm(io.BytesIO(blob))

    @pytest.mark.parametrize("maxval", [1, 15, 254])
    def test_only_8_bit_maxval_read(self, maxval):
        blob = b"P5 2 1 %d\n" % maxval + bytes([0, maxval])
        with pytest.raises(ParseError, match=r"only 8-bit PGMs \(maxval 255\)"):
            load_pgm(io.BytesIO(blob))

    @pytest.mark.parametrize("maxval", [b"0", b"256", b"65535"])
    def test_maxval_out_of_range_says_8_bit(self, maxval):
        with pytest.raises(ParseError, match="only 8-bit"):
            load_pgm(io.BytesIO(b"P5 2 1 " + maxval + b"\n" + bytes(4)))

    def test_header_cut_off(self):
        with pytest.raises(TruncationError):
            load_pgm(io.BytesIO(b"P5 2"))
        # maxval with no separator byte after it
        with pytest.raises(TruncationError, match="header ended after maxval"):
            load_pgm(io.BytesIO(b"P5 2 2 255"))

    def test_non_integer_field(self):
        with pytest.raises(ParseError):
            load_pgm(io.BytesIO(b"P5 two 2 255\n" + bytes(4)))

    @pytest.mark.parametrize("byte", range(256))
    def test_every_byte_as_separator_matches_reference(self, byte):
        # the separators are bytes.isspace()'s six, and '#' starts a comment
        blob = b"P5" + bytes([byte]) + b"2 1 255" + bytes([byte]) + bytes([7, 9, 11])
        new = pgm_outcome(lambda b: load_pgm(io.BytesIO(b)), blob)
        old = pgm_outcome(reference_load_pgm, blob)
        if isinstance(old, np.ndarray):
            assert np.array_equal(new, old) and new.dtype == old.dtype
        else:
            assert (type(new), str(new)) == (type(old), str(old))

    @pytest.mark.parametrize("blob,error", [
        (bytes(1 << 20), ParseError),  # one 1 MiB signature token
        (b"P5 " + b"9" * (1 << 20) + b" 2 255\n", ParseError),
        (b"P5 #" + b"c" * (1 << 20), TruncationError),  # cut off inside a comment
    ], ids=["nul-bytes", "digit-width", "comment"])
    def test_megabyte_header_gives_a_short_message(self, blob, error):
        with pytest.raises(error) as e:
            load_pgm(io.BytesIO(blob))
        assert len(str(e.value)) < 200

    def test_long_token_quoted_by_its_first_32_bytes(self):
        with pytest.raises(ParseError) as e:
            load_pgm(io.BytesIO(b"P5 " + b"x" * 40 + b" 2 255\n"))
        assert str(e.value) == f"PGM width {b'x' * 32!r}... (40 bytes) is not an integer"

    def test_non_pgm_read_only_to_its_header_prefix(self):
        stream = CountingStream(bytes(4 << 20))
        with pytest.raises(ParseError) as e:
            load_pgm(stream)
        assert str(e.value) == "PGM header does not end within its first 2097152 bytes"
        assert stream.bytes_read == dataio._PGM_HEAD_BYTES == 2 << 20

    @pytest.mark.parametrize("digits", [4000, 5000])
    def test_overlong_field_refused_before_int(self, digits):
        # 4,000 nines pass int() and 5,000 do not; both are refused before int()
        with pytest.raises(ParseError) as e:
            load_pgm(io.BytesIO(b"P5 " + b"9" * digits + b" 2 255\n"))
        assert type(e.value) is ParseError
        assert str(e.value) == (f"PGM width {b'9' * 32!r}... ({digits} bytes) "
                                f"is longer than 64 bytes")
        assert len(str(e.value)) < 200

    def test_field_of_64_bytes_read(self):
        blob = b"P5 " + b"0" * 63 + b"2 1 +" + b"0" * 60 + b"255\n" + bytes([4, 5])
        assert load_pgm(io.BytesIO(blob)).tolist() == [[4, 5]]
        with pytest.raises(ParseError, match="PGM height .* is longer than 64 bytes"):
            load_pgm(io.BytesIO(b"P5 2 " + b"0" * 64 + b"1 255\n" + bytes(2)))

    def test_pixels_past_the_prefix_are_taken_from_the_file(self, monkeypatch):
        monkeypatch.setattr(dataio, "_PGM_HEAD_BYTES", 16)
        header = b"P5 4 5 255\n"  # 11 bytes: the prefix holds 5 pixels
        pixels = bytes(range(20))
        stream = CountingStream(header + pixels + bytes(100))
        assert load_pgm(stream).tobytes() == pixels
        assert stream.bytes_read == len(header) + len(pixels)
        with pytest.raises(TruncationError) as e:
            load_pgm(io.BytesIO(header + pixels[:-3]))
        assert str(e.value) == ("file truncated in section 'PGM pixels' "
                                "(need 15 bytes at offset 16, have 12)")

    @pytest.mark.parametrize("blob", [
        b"P5 # a comment that runs past the prefix\n2 2 255\n" + bytes(4),
        b"P5 2 2 0000000255\n" + bytes(4),  # maxval cut by the prefix
    ], ids=["comment", "token"])
    def test_header_past_the_prefix_refused(self, monkeypatch, blob):
        monkeypatch.setattr(dataio, "_PGM_HEAD_BYTES", 16)
        with pytest.raises(ParseError) as e:
            load_pgm(io.BytesIO(blob))
        assert str(e.value) == "PGM header does not end within its first 16 bytes"


class TestNormalize:
    def test_endpoints_and_midpoint(self):
        raw = np.array([[0, 128], [255, 64]], dtype=np.uint8)
        out = normalize(raw)
        assert out.shape == (1, 2, 2)
        assert out[0, 0, 0] == 0.0
        assert out[0, 1, 0] == 1.0
        assert out[0, 0, 1] == 128 / 255.0

    def test_rank_checked(self):
        with pytest.raises(ShapeError):
            normalize(np.zeros(4, dtype=np.uint8))


class TestOneHot:
    def test_basic(self):
        assert np.array_equal(one_hot(2, 4), [0.0, 0.0, 1.0, 0.0])

    def test_single_class(self):
        assert np.array_equal(one_hot(0, 1), [1.0])

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            one_hot(4, 4)

    def test_refuses_what_is_not_a_class_index(self):
        for index, message in ((0.5, "0.5 is not an integer"), (-1, "-1 outside"),
                               (4, "4 outside"), (np.float64(1.0), "not an integer"),
                               (np.array([0.0, 1.0]), "not an integer"),
                               ("1", "not an integer"), (None, "not an integer")):
            with pytest.raises(DomainError, match=f"class index .*{message}"):
                one_hot(index, 4)

    def test_accepts_numpy_integers(self):
        want = one_hot(2, 4)
        for index in (np.int64(2), np.uint8(2), np.array(2)):
            got = one_hot(index, 4)
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


class TestSynthBars:
    def test_deterministic(self):
        a = synth_bars(10, 8, 8, seed=5)
        b = synth_bars(10, 8, 8, seed=5)
        for x, y in zip(a.images, b.images):
            assert np.array_equal(x, y)

    def test_bit_identical_to_per_sample_oracle(self):
        # one RNG draw sequence per sample: noise plane, then bar position
        n, h, w = 6, 5, 7
        rng = np.random.Generator(np.random.PCG64(8))
        images, labels = [], []
        for k in range(n):
            img = rng.uniform(0.0, 0.1, size=(h, w))
            if k < n // 2:
                img[int(rng.integers(0, h)), :] = 1.0
            else:
                img[:, int(rng.integers(0, w))] = 1.0
            images.append(img[None])
            labels.append(int(k >= n // 2))
        ds = synth_bars(n, h, w, seed=8)
        assert ds.images.shape == (n, 1, h, w) and ds.images.flags.c_contiguous
        assert ds.images.tobytes() == np.stack(images).tobytes()
        assert ds.labels.tobytes() == np.array(labels, dtype=np.int64).tobytes()

    def test_intensity_structure(self):
        ds = synth_bars(20, 8, 8, seed=6)
        for img in ds.images:
            assert np.max(img) == 1.0
            assert np.min(img) < 0.1

    def test_class_balance_and_orientation(self):
        n = 16
        ds = synth_bars(n, 6, 6, seed=7)
        assert ds.labels.sum() == n // 2
        for img, label in zip(ds.images, ds.labels):
            plane = img[0]
            if label == 0:
                assert any(np.all(plane[r, :] == 1.0) for r in range(plane.shape[0]))
            else:
                assert any(np.all(plane[:, c] == 1.0) for c in range(plane.shape[1]))

    def test_bad_extents(self):
        with pytest.raises(DomainError):
            synth_bars(10, 3, 8, seed=0)

    def test_odd_count(self):
        with pytest.raises(DomainError):
            synth_bars(9, 8, 8, seed=0)

    def test_element_limit(self, monkeypatch):
        monkeypatch.setattr(tensor, "MAX_BYTES", 8 * 4 * 8 * 8)
        assert synth_bars(4, 8, 8, seed=0).images.nbytes == 8 * 4 * 8 * 8
        with pytest.raises(ShapeError, match="bars images would take 3072 bytes"):
            synth_bars(6, 8, 8, seed=0)

    def test_oversized_request_rejected_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ShapeError, match="bars images would take"):
                synth_bars(1 << 20, 1 << 10, 1 << 10, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestDatasetInvariants:
    def test_length_mismatch(self):
        with pytest.raises(ShapeError, match="1 images vs 0 labels"):
            Dataset(images=[np.zeros((1, 2, 2))], labels=np.zeros(0, dtype=np.int64),
                    class_count=2)

    def test_label_must_be_a_class_index(self):
        # the first label outside [0, class_count) is named, after good ones too
        for labels, first in (([0, -1], -1), ([1, 2], 2), ([0, 1, 5, -3], 5)):
            with pytest.raises(DomainError, match=rf"label {first} outside \[0, 2\)"):
                Dataset(images=np.zeros((len(labels), 1, 2, 2)), labels=labels,
                        class_count=2)
        big = np.array([1, 2**64 - 1], dtype=np.uint64)
        with pytest.raises(DomainError, match=rf"label {2**64 - 1} outside"):
            Dataset(images=np.zeros((2, 1, 2, 2)), labels=big, class_count=2)

    def test_mixed_extents(self):
        labels = np.array([0, 1])
        # a list of mixed extents, and inputs that are not (N, 1, H, W)
        for images in (
            [np.zeros((1, 2, 2)), np.zeros((1, 3, 3))],
            np.zeros((2, 2, 2)),
            np.zeros((2, 3, 2, 2)),
            np.zeros((2, 1, 2, 2, 1)),
            [],
            None,
            "images",
            [np.zeros((1, 2, 2)), "x"],
            {"a": 1},
        ):
            with pytest.raises(ShapeError):
                Dataset(images=images, labels=labels, class_count=2)

    def test_labels_not_n_by_k(self):
        # labels are (N,) integer class indices: one-hot rows, floats and
        # anything else that is not such an array are shape errors
        images = np.zeros((2, 1, 2, 2))
        for labels in (np.eye(2), np.eye(2, dtype=np.int64), [[1, 0], [0, 1]],
                       np.array([0.0, 1.0]), [0, 0.5], np.array([True, False]),
                       np.zeros((2, 1), dtype=np.int64), [[1, 0], [1]], None, 1,
                       [0, "x"]):
            with pytest.raises(ShapeError):
                Dataset(images=images, labels=labels, class_count=2)

    def test_class_count_below_one(self):
        with pytest.raises(DomainError, match="class_count"):
            Dataset(images=np.zeros((0, 1, 2, 2)), labels=np.zeros(0, dtype=np.int64),
                    class_count=0)

    def test_stored_as_contiguous_float_arrays(self):
        # array-likes are converted; a strided view becomes a C-contiguous copy
        images = np.zeros((4, 1, 3, 6))[:, :, :, ::2]
        labels = np.array([1, 0, 1, 0, 1, 0, 1, 0], dtype=np.int32)[::2]
        ds = Dataset(images=images, labels=labels, class_count=2)
        assert ds.images.flags.c_contiguous and ds.images.dtype == np.float64
        assert ds.images[3].shape == (1, 3, 3)
        assert ds.labels.flags.c_contiguous and ds.labels.dtype == np.int64
        assert ds.labels.tolist() == [1, 1, 1, 1]
        ds = Dataset(images=images, labels=[0, 1, 1, 0], class_count=2)
        assert ds.labels.dtype == np.int64 and ds.labels.shape == (4,)

    def test_empty_labels_accepted(self):
        ds = Dataset(images=np.zeros((0, 1, 2, 2)), labels=np.zeros(0, dtype=np.int64),
                     class_count=3)
        assert ds.labels.shape == (0,) and ds.labels.dtype == np.int64

    def test_label_out_of_range_in_idx(self):
        a = np.zeros((2, 2), dtype=np.uint8)
        # the first label outside the range is named, class_count included
        for labels, first in (([1, 7], 7), ([1, 2, 0, 9], 2)):
            with pytest.raises(DomainError, match=rf"label {first} outside \[0, 2\)"):
                dataset_from_idx(
                    io.BytesIO(write_idx_images([a] * len(labels))),
                    io.BytesIO(write_idx_labels(labels)),
                    class_count=2,
                )
