import io
import struct
import tracemalloc

import numpy as np
import pytest

from convkit import tensor
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
from convkit.errors import DomainError, ParseError, ShapeError, TruncationError


# --- test helpers: writers that mirror the published byte layouts --------


def write_idx_images(images) -> bytes:
    h, w = images[0].shape
    out = struct.pack(">IIII", 0x00000803, len(images), h, w)
    for img in images:
        out += bytes(img.ravel().tolist())
    return out


def write_idx_labels(labels) -> bytes:
    return struct.pack(">II", 0x00000801, len(labels)) + bytes(labels)


def write_pgm(img, header=b"P5 %d %d 255\n") -> bytes:
    h, w = img.shape
    return (header % (w, h)) + bytes(img.ravel().tolist())


class TestIdxImages:
    def test_hand_built_fixture(self):
        a = np.array([[0, 1], [2, 3]], dtype=np.uint8)
        b = np.array([[250, 251], [252, 253]], dtype=np.uint8)
        blob = write_idx_images([a, b])
        imgs = load_idx_images(io.BytesIO(blob))
        assert len(imgs) == 2
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
        a = np.zeros((2, 2), dtype=np.uint8)
        blob = write_idx_images([a]) + b"\x00"
        with pytest.raises(TruncationError):
            load_idx_images(io.BytesIO(blob))

    def test_dimension_overflow_rejected(self):
        header = struct.pack(">IIII", 0x00000803, 2**30, 2**10, 2**10)
        with pytest.raises(ParseError, match="overflow"):
            load_idx_images(io.BytesIO(header))

    def test_short_header(self):
        with pytest.raises(TruncationError):
            load_idx_images(io.BytesIO(b"\x00\x00\x08"))


class TestIdxLabels:
    def test_hand_built_fixture(self):
        blob = write_idx_labels([3, 1, 4, 1])
        assert load_idx_labels(io.BytesIO(blob)) == [3, 1, 4, 1]

    def test_image_magic_rejected(self):
        a = np.zeros((2, 2), dtype=np.uint8)
        with pytest.raises(ParseError, match="magic"):
            load_idx_labels(io.BytesIO(write_idx_images([a])))

    def test_truncated(self):
        blob = struct.pack(">II", 0x00000801, 9) + bytes([1, 2, 3])
        with pytest.raises(TruncationError):
            load_idx_labels(io.BytesIO(blob))


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
        labels_back = [int(np.argmax(l)) for l in ds.labels]
        again = dataset_from_idx(
            io.BytesIO(write_idx_images(raws_back)),
            io.BytesIO(write_idx_labels(labels_back)),
            class_count=3,
        )
        for a, b in zip(ds.images, again.images):
            assert np.array_equal(a, b)
        for a, b in zip(ds.labels, again.labels):
            assert np.array_equal(a, b)


class TestPgm:
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

    def test_header_cut_off(self):
        with pytest.raises(TruncationError):
            load_pgm(io.BytesIO(b"P5 2"))

    def test_non_integer_field(self):
        with pytest.raises(ParseError):
            load_pgm(io.BytesIO(b"P5 two 2 255\n" + bytes(4)))


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


class TestSynthBars:
    def test_deterministic(self):
        a = synth_bars(10, 8, 8, seed=5)
        b = synth_bars(10, 8, 8, seed=5)
        for x, y in zip(a.images, b.images):
            assert np.array_equal(x, y)

    def test_intensity_structure(self):
        ds = synth_bars(20, 8, 8, seed=6)
        for img in ds.images:
            assert np.max(img) == 1.0
            assert np.min(img) < 0.1

    def test_class_balance_and_orientation(self):
        n = 16
        ds = synth_bars(n, 6, 6, seed=7)
        assert sum(int(np.argmax(l)) for l in ds.labels) == n // 2
        for img, label in zip(ds.images, ds.labels):
            plane = img[0]
            if np.argmax(label) == 0:
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
        monkeypatch.setattr(tensor, "MAX_ELEMENTS", 4 * 8 * 8)
        assert len(synth_bars(4, 8, 8, seed=0).images) == 4
        with pytest.raises(ShapeError, match="exceeds"):
            synth_bars(6, 8, 8, seed=0)

    def test_oversized_request_rejected_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ShapeError, match="exceeds"):
                synth_bars(1 << 20, 1 << 10, 1 << 10, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestDatasetInvariants:
    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            Dataset(images=[np.zeros((1, 2, 2))], labels=[], class_count=2)

    def test_label_must_be_one_hot(self):
        with pytest.raises(DomainError):
            Dataset(
                images=[np.zeros((1, 2, 2))],
                labels=[np.array([0.5, 0.5])],
                class_count=2,
            )

    def test_mixed_extents(self):
        with pytest.raises(ShapeError):
            Dataset(
                images=[np.zeros((1, 2, 2)), np.zeros((1, 3, 3))],
                labels=[one_hot(0, 2), one_hot(1, 2)],
                class_count=2,
            )

    def test_label_out_of_range_in_idx(self):
        a = np.zeros((2, 2), dtype=np.uint8)
        with pytest.raises(DomainError):
            dataset_from_idx(
                io.BytesIO(write_idx_images([a])),
                io.BytesIO(write_idx_labels([7])),
                class_count=2,
            )
