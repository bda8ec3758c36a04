"""Grayscale image and label ingestion (IDX and binary PGM), pixel
normalization, and in-memory dataset assembly. Its sectioned byte reader
reads the model file too."""

from __future__ import annotations

import operator
import re
import struct
from contextlib import nullcontext
from dataclasses import dataclass
from typing import BinaryIO, ContextManager

import numpy as np

from . import tensor
from .errors import DomainError, ParseError, ShapeError, TruncationError

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


@dataclass
class Dataset:
    """Normalized images in [0, 1], one C-contiguous (N, 1, H, W) float64
    array, paired with class indices, one C-contiguous (N,) int64 array in
    [0, class_count)."""

    images: np.ndarray
    labels: np.ndarray
    class_count: int

    def __post_init__(self):
        try:
            self.images = np.ascontiguousarray(self.images, dtype=np.float64)
            labels = np.asarray(self.labels)
        except (TypeError, ValueError) as e:
            raise ShapeError(f"dataset fields are not numeric arrays: {e}") from None
        if labels.ndim != 1 or labels.dtype.kind not in "iu":
            raise ShapeError(f"labels {labels.dtype} {labels.shape} are not (N,) class indices")
        n = len(self.images)
        if len(labels) != n:
            raise ShapeError(f"{n} images vs {len(labels)} labels")
        if self.class_count < 1:
            raise DomainError(f"class_count must be >= 1, got {self.class_count}")
        if self.images.ndim != 4 or self.images.shape[1] != 1:
            raise ShapeError(f"images shape {self.images.shape} is not (N, 1, H, W)")
        check_labels(labels, self.class_count)
        self.labels = np.ascontiguousarray(labels, dtype=np.int64)


def check_labels(labels: np.ndarray, class_count: int) -> None:
    """Raise ``DomainError`` naming the first label outside [0, class_count)."""
    outside = labels[(labels < 0) | (labels >= class_count)]
    if outside.size:
        raise DomainError(f"label {outside[0]} outside [0, {class_count})")


def _opened(source: str | BinaryIO) -> ContextManager[BinaryIO]:
    """A stream as it is (left open), or the file a path names."""
    return nullcontext(source) if hasattr(source, "read") else open(source, "rb")


class _Reader:
    """Sequential reader of a binary stream that names the section a
    truncation happened in. It reads each section as it is taken, so no
    byte past the last section taken is read."""

    def __init__(self, f: BinaryIO, pos: int = 0):
        self.f = f
        self.pos = pos

    def take(self, n: int, section: str) -> bytes:
        chunk = self.f.read(n)
        if len(chunk) < n:
            raise TruncationError(
                f"file truncated in section '{section}' "
                f"(need {n} bytes at offset {self.pos}, have {len(chunk)})"
            )
        self.pos += n
        return chunk

    def unpack(self, layout: str, section: str) -> tuple:
        """One ``struct`` layout, read as one section."""
        return struct.unpack(layout, self.take(struct.calcsize(layout), section))

    def f64_array(self, count: int, section: str) -> np.ndarray:
        raw = self.take(8 * count, section)
        return np.frombuffer(raw, dtype="<f8").astype(np.float64)

    def end(self, last: str) -> None:
        """Refuse a byte after section ``last``, reading at most that one."""
        if self.f.read(1):
            raise ParseError(f"trailing bytes after {last}: the header gives {self.pos} bytes")


def load_idx_images(source: str | BinaryIO) -> np.ndarray:
    """Parse an IDX image file into one read-only (N, H, W) uint8 array.

    Layout (all integers big-endian):
      u32   magic    0x00000803
      u32   image count
      u32   row count (>= 1)
      u32   column count (>= 1)
      u8[]  pixels, row-major per image

    The header is checked before the pixels are read, and at most one
    byte past the pixels is read.
    """
    with _opened(source) as f:
        r = _Reader(f)
        (magic,) = r.unpack(">I", "IDX image magic")
        if magic != IDX_IMAGE_MAGIC:
            raise ParseError(f"bad IDX image magic 0x{magic:08x}, "
                             f"expected 0x{IDX_IMAGE_MAGIC:08x}")
        count, rows, cols = r.unpack(">3I", "IDX image extents")
        if rows < 1 or cols < 1:
            raise ParseError(f"IDX image extents {rows}x{cols} must be positive")
        need = count * rows * cols
        # dataset_from_idx makes the pixels float64
        tensor.check_bytes({"IDX images": 8 * need})
        pixels = r.take(need, "IDX image pixels")
        r.end("IDX image pixels")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(count, rows, cols)


def load_idx_labels(source: str | BinaryIO) -> np.ndarray:
    """Parse an IDX label file into a read-only uint8 array of class indices.

    Layout (big-endian):
      u32   magic    0x00000801
      u32   label count
      u8[]  labels

    The header is checked before the labels are read, and at most one
    byte past the labels is read.
    """
    with _opened(source) as f:
        r = _Reader(f)
        (magic,) = r.unpack(">I", "IDX label magic")
        if magic != IDX_LABEL_MAGIC:
            raise ParseError(f"bad IDX label magic 0x{magic:08x}, "
                             f"expected 0x{IDX_LABEL_MAGIC:08x}")
        (count,) = r.unpack(">I", "IDX label count")
        tensor.check_bytes({"IDX label bytes": count})
        labels = r.take(count, "IDX labels")
        r.end("IDX labels")
    return np.frombuffer(labels, dtype=np.uint8)


# One PGM header token after its separators: whitespace, and '#' comments
# to the end of their line. The possessive ``*+`` (Python 3.11) gives no
# separator back, so a header cut off inside a comment holds no token.
_PGM_TOKEN = re.compile(rb"(?:\s|#[^\n]*)*+(\S+)")
# The header is parsed from at most this prefix (or MAX_BYTES + 1 bytes):
# room for any comments, a 1 MiB one included, while a file that is no
# PGM is refused after 2 MiB is read, not the 1 GiB its pixels may take.
_PGM_HEAD_BYTES = 1 << 21
# No width, height or maxval that passes check_bytes needs more than 9
# digits; 64 bytes leave room for a sign, zero padding and '_'.
_PGM_FIELD_BYTES = 64


def _quoted(token: bytes) -> str:
    """``repr(token)``, or its first 32 bytes and its length if longer."""
    return repr(token) if len(token) <= 32 else f"{token[:32]!r}... ({len(token)} bytes)"


def load_pgm(source: str | BinaryIO) -> np.ndarray:
    """Parse a binary (P5) PGM into a raw (H, W) uint8 array.

    The header is whitespace-separated "P5 <width> <height> <maxval>",
    tolerating '#' comments between tokens. One whitespace byte separates
    maxval from the raw pixel payload. Only 8-bit PGMs, maxval 255, are
    read, since ``normalize`` divides by 255; a pixel above a smaller
    maxval is named in the error. The float64 image ``normalize`` makes
    must fit ``tensor.MAX_BYTES``: that is checked before the pixels are
    copied. The header is parsed from the file's first
    ``_PGM_HEAD_BYTES`` bytes at most, and past them only the pixels the
    header claims are read.
    """
    with _opened(source) as f:
        limit = min(_PGM_HEAD_BYTES, tensor.MAX_BYTES + 1)
        head = f.read(limit)
        pos, fields = 0, []
        for name in ("signature", "width", "height", "maxval"):
            m = _PGM_TOKEN.match(head, pos)
            if len(head) == limit and (m is None or m.end() == limit):
                raise ParseError(f"PGM header does not end within its first {limit} bytes")
            if m is None:
                raise TruncationError("PGM header ended before all tokens were read")
            tok, pos = m[1], m.end()
            if name == "signature":
                if tok != b"P5":
                    raise ParseError(f"not a binary PGM: signature {_quoted(tok)}, expected b'P5'")
                continue
            if len(tok) > _PGM_FIELD_BYTES:
                raise ParseError(f"PGM {name} {_quoted(tok)} is longer than "
                                 f"{_PGM_FIELD_BYTES} bytes")
            try:
                fields.append(int(tok))
            except ValueError:
                raise ParseError(f"PGM {name} {_quoted(tok)} is not an integer") from None
        width, height, maxval = fields
        if width < 1 or height < 1:
            raise ParseError(f"PGM extents {width}x{height} must be positive")
        tensor.check_bytes({"PGM image": 8 * width * height})
        only_8_bit = f"PGM maxval {maxval}: only 8-bit PGMs (maxval 255) are read"
        if not 0 < maxval <= 255:
            raise ParseError(only_8_bit)
        if pos == len(head):
            raise TruncationError("PGM header ended after maxval, before its separator byte")
        pos += 1  # single whitespace byte after maxval
        need = width * height
        pixels = head[pos:pos + need]
        if len(head) == limit and len(pixels) < need:  # the file goes on past the prefix
            pixels += _Reader(f, len(head)).take(need - len(pixels), "PGM pixels")
    if len(pixels) < need:
        raise TruncationError(f"PGM payload holds {len(pixels)} bytes, header claims {need}")
    flat = np.frombuffer(pixels, dtype=np.uint8)
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


def normalize(raw: np.ndarray) -> np.ndarray:
    """Map u8 pixels to [0, 1] floats and prepend a unit channel axis."""
    raw = np.asarray(raw)
    if raw.ndim != 2:
        raise ShapeError(f"raw image must be rank 2, got rank {raw.ndim}")
    return (raw.astype(np.float64) / 255.0)[None, :, :]


def one_hot(index: int, class_count: int) -> np.ndarray:
    """The 0/1 target vector of class ``index``: zeros with a single 1."""
    try:
        index = operator.index(index)
    except TypeError:
        raise DomainError(f"class index {index!r} is not an integer") from None
    if not 0 <= index < class_count:
        raise DomainError(f"class index {index} outside [0, {class_count})")
    v = np.zeros(class_count)
    v[index] = 1.0
    return v


def dataset_from_idx(
    image_source: str | BinaryIO, label_source: str | BinaryIO, class_count: int
) -> Dataset:
    """A Dataset from an IDX image/label file pair: pixels scaled to [0, 1],
    labels as class indices. The labels are read first, and their count is
    checked before the images are made float64."""
    labels = load_idx_labels(label_source)
    raws = load_idx_images(image_source)
    if len(raws) != len(labels):
        raise ParseError(f"{len(raws)} images but {len(labels)} labels")
    return Dataset(images=raws[:, None] / 255.0, labels=labels, class_count=class_count)


def synth_bars(n: int, h: int, w: int, seed: int) -> Dataset:
    """Synthetic two-class task: one full-intensity bar on faint noise.

    The first n/2 images carry a random horizontal bar (class 0), the
    rest a vertical bar (class 1). Deterministic per seed.
    """
    if h < 4 or w < 4:
        raise DomainError(f"extents must be >= 4, got {h}x{w}")
    if n < 2 or n % 2:
        raise DomainError(f"sample count must be even and >= 2, got {n}")
    tensor.check_bytes({"bars images": 8 * n * h * w})  # the labels take less
    rng = np.random.Generator(np.random.PCG64(seed))
    images = np.empty((n, 1, h, w))
    labels = np.repeat([0, 1], n // 2)
    for k, img in enumerate(images[:, 0]):
        img[...] = rng.uniform(0.0, 0.1, size=(h, w))
        if k < n // 2:
            img[int(rng.integers(0, h)), :] = 1.0
        else:
            img[:, int(rng.integers(0, w))] = 1.0
    return Dataset(images=images, labels=labels, class_count=2)
