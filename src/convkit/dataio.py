"""Grayscale image and label ingestion (IDX and binary PGM), pixel
normalization, and in-memory dataset assembly."""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

from .errors import DomainError, ParseError, ShapeError, TruncationError
from .tensor import check_shape

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

# Rejects headers whose claimed payload would be absurd.
MAX_IDX_BYTES = 1 << 31


@dataclass
class Dataset:
    """Normalized images (1, H, W) in [0, 1] paired with one-hot labels."""

    images: list[np.ndarray]
    labels: list[np.ndarray]
    class_count: int

    def __post_init__(self):
        if len(self.images) != len(self.labels):
            raise ShapeError(
                f"{len(self.images)} images vs {len(self.labels)} labels"
            )
        if self.class_count < 1:
            raise DomainError(f"class_count must be >= 1, got {self.class_count}")
        shape = self.images[0].shape if self.images else None
        for img in self.images:
            if img.ndim != 3 or img.shape[0] != 1:
                raise ShapeError(f"image shape {img.shape} is not (1, H, W)")
            if img.shape != shape:
                raise ShapeError(f"mixed image extents {img.shape} vs {shape}")
        for lab in self.labels:
            if lab.shape != (self.class_count,):
                raise ShapeError(f"label shape {lab.shape} != ({self.class_count},)")
            if not np.all((lab == 0.0) | (lab == 1.0)) or np.sum(lab) != 1.0:
                raise DomainError(f"label {lab} is not one-hot")


def _read_all(source: str | BinaryIO) -> bytes:
    if hasattr(source, "read"):
        return source.read()
    with open(source, "rb") as f:
        return f.read()


def load_idx_images(source: str | BinaryIO) -> list[np.ndarray]:
    """Parse an IDX image file into raw (H, W) uint8 arrays.

    Layout (all integers big-endian):
      u32   magic    0x00000803
      u32   image count
      u32   row count
      u32   column count
      u8[]  pixels, row-major per image
    """
    blob = _read_all(source)
    if len(blob) < 4:
        raise TruncationError(f"IDX image header needs 16 bytes, have {len(blob)}")
    magic = struct.unpack(">I", blob[:4])[0]
    if magic != IDX_IMAGE_MAGIC:
        raise ParseError(
            f"bad IDX image magic 0x{magic:08x}, expected 0x{IDX_IMAGE_MAGIC:08x}"
        )
    if len(blob) < 16:
        raise TruncationError(f"IDX image header needs 16 bytes, have {len(blob)}")
    count, rows, cols = struct.unpack(">III", blob[4:16])
    if count * rows * cols > MAX_IDX_BYTES:
        raise ParseError(
            f"IDX dimensions overflow: {count} x {rows} x {cols} bytes claimed"
        )
    need = count * rows * cols
    if len(blob) - 16 != need:
        raise TruncationError(
            f"IDX payload holds {len(blob) - 16} bytes, header claims {need}"
        )
    flat = np.frombuffer(blob, dtype=np.uint8, offset=16)
    return [flat[i * rows * cols : (i + 1) * rows * cols].reshape(rows, cols).copy()
            for i in range(count)]


def load_idx_labels(source: str | BinaryIO) -> list[int]:
    """Parse an IDX label file into class indices.

    Layout (big-endian):
      u32   magic    0x00000801
      u32   label count
      u8[]  labels
    """
    blob = _read_all(source)
    if len(blob) < 4:
        raise TruncationError(f"IDX label header needs 8 bytes, have {len(blob)}")
    magic = struct.unpack(">I", blob[:4])[0]
    if magic != IDX_LABEL_MAGIC:
        raise ParseError(
            f"bad IDX label magic 0x{magic:08x}, expected 0x{IDX_LABEL_MAGIC:08x}"
        )
    if len(blob) < 8:
        raise TruncationError(f"IDX label header needs 8 bytes, have {len(blob)}")
    count = struct.unpack(">I", blob[4:8])[0]
    if count > MAX_IDX_BYTES:
        raise ParseError(f"IDX dimensions overflow: {count} labels claimed")
    if len(blob) - 8 != count:
        raise TruncationError(
            f"IDX payload holds {len(blob) - 8} labels, header claims {count}"
        )
    return [int(b) for b in blob[8:]]


def load_pgm(source: str | BinaryIO) -> np.ndarray:
    """Parse a binary (P5) PGM into a raw (H, W) uint8 array.

    The header is whitespace-separated "P5 <width> <height> <maxval>",
    tolerating '#' comments between tokens; maxval must be <= 255. One
    whitespace byte separates maxval from the raw pixel payload.
    """
    blob = _read_all(source)
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
    if not 0 < maxval <= 255:
        raise ParseError(f"PGM maxval {maxval} not in 1..255")
    pos += 1  # single whitespace byte after maxval
    need = width * height
    if len(blob) - pos < need:
        raise TruncationError(
            f"PGM payload holds {len(blob) - pos} bytes, header claims {need}"
        )
    flat = np.frombuffer(blob, dtype=np.uint8, offset=pos, count=need)
    return flat.reshape(height, width).copy()


def normalize(raw: np.ndarray) -> np.ndarray:
    """Map u8 pixels to [0, 1] floats and prepend a unit channel axis."""
    raw = np.asarray(raw)
    if raw.ndim != 2:
        raise ShapeError(f"raw image must be rank 2, got rank {raw.ndim}")
    return (raw.astype(np.float64) / 255.0)[None, :, :]


def one_hot(index: int, class_count: int) -> np.ndarray:
    """Zeros with a single 1 at ``index``."""
    if not 0 <= index < class_count:
        raise DomainError(f"class index {index} outside [0, {class_count})")
    v = np.zeros(class_count)
    v[index] = 1.0
    return v


def dataset_from_idx(
    image_source: str | BinaryIO, label_source: str | BinaryIO, class_count: int
) -> Dataset:
    """Assemble a Dataset from an IDX image/label file pair."""
    raws = load_idx_images(image_source)
    indices = load_idx_labels(label_source)
    if len(raws) != len(indices):
        raise ParseError(f"{len(raws)} images but {len(indices)} labels")
    for i in indices:
        if not 0 <= i < class_count:
            raise DomainError(f"label {i} outside [0, {class_count})")
    return Dataset(
        images=[normalize(r) for r in raws],
        labels=[one_hot(i, class_count) for i in indices],
        class_count=class_count,
    )


def synth_bars(n: int, h: int, w: int, seed: int) -> Dataset:
    """Synthetic two-class task: one full-intensity bar on faint noise.

    The first n/2 images carry a random horizontal bar (class 0), the
    rest a vertical bar (class 1). Deterministic per seed.
    """
    if h < 4 or w < 4:
        raise DomainError(f"extents must be >= 4, got {h}x{w}")
    if n < 2 or n % 2:
        raise DomainError(f"sample count must be even and >= 2, got {n}")
    check_shape((n, h, w))  # before any image is allocated
    rng = np.random.Generator(np.random.PCG64(seed))
    images = []
    labels = []
    for k in range(n):
        img = rng.uniform(0.0, 0.1, size=(h, w))
        if k < n // 2:
            img[int(rng.integers(0, h)), :] = 1.0
            labels.append(one_hot(0, 2))
        else:
            img[:, int(rng.integers(0, w))] = 1.0
            labels.append(one_hot(1, 2))
        images.append(img[None, :, :])
    return Dataset(images=images, labels=labels, class_count=2)
