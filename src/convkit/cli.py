"""Command-line surface: train, evaluate, gradient-check, and predict.

Commands::

    convkit train <config>
    convkit eval <model> <config>
    convkit gradcheck <config> [--threshold V]
    convkit predict <model> <image.pgm> [--softmax]

The config is flat ``key=value`` lines with ``#`` comments. Exit codes
are stable for scripting: 0 success, 1 usage/config error, 2 data/parse
error, 3 gradient-check failure. A failing run writes no output files.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import secrets
import sys
from typing import BinaryIO, Callable, NamedTuple

import numpy as np

from . import activations
from . import network as net_mod
from . import tensor
from .dataio import (
    Dataset,
    dataset_from_idx,
    load_pgm,
    normalize,
    synth_bars,
)
from .errors import (
    ConfigError,
    ConvkitError,
    DomainError,
    GeometryError,
    ParseError,
    ShapeError,
)
from .gradcheck import check_network
from .layers import ConvGeometry, PoolGeometry

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_CHECK = 3


class Value(NamedTuple):
    """A config value's kind (``int``, finite ``float``, comma-separated
    ``widths`` or ``text``) and the bounds of a number or of each width."""

    kind: str
    minimum: int | None = None
    maximum: int | None = None


# The config keys the README documents; each command reads those it needs.
SCHEMA = {
    "conv.kernels": Value("int", 1),
    "conv.size": Value("int", 1),
    "conv.stride": Value("int", 1),
    "conv.pad": Value("int", 0),
    "pool.window": Value("int", 1),
    "pool.stride": Value("int", 1),
    "dense.widths": Value("widths", 1),
    "train.alpha": Value("float", 0),
    "train.epochs": Value("int", 1),
    "train.batch_size": Value("int", 1),
    "train.seed": Value("int", 0, 2**64 - 1),  # the generators take an unsigned 64-bit seed
    "data.source": Value("text"),
    "out.model": Value("text"),
    "out.csv": Value("text"),
}


def _parse(value: Value, raw: str, name: str) -> object:
    """``raw`` as ``value`` declares it; each error message starts with ``name``."""
    kind, low, high = value
    if kind == "text":
        return raw
    if kind == "widths":
        try:
            ws = tuple(int(p) for p in raw.split(","))
        except ValueError:
            raise ConfigError(f"{name} must be comma-separated integers") from None
        if any(w < low for w in ws):
            raise ConfigError(f"{name} needs positive widths, got {raw!r}")
        return ws
    try:
        v = int(raw) if kind == "int" else float(raw)
    except ValueError:
        raise ConfigError(f"{name} must be {'an integer' if kind == 'int' else 'a number'}, "
                          f"got {raw!r}") from None
    if kind == "float" and not math.isfinite(v):
        raise ConfigError(f"{name} must be finite, got {raw!r}")
    if low is not None and v < low:
        raise ConfigError(f"{name} must be >= {low}, got {v}")
    if high is not None and v > high:
        raise ConfigError(f"{name} must be <= {high}, got {v}")
    return v


class RunConfig(dict):
    """The flat key=value config's values by key, each parsed and checked
    against ``SCHEMA`` as the file is read. Reading a key the file does
    not give is a ``ConfigError`` naming it."""

    def __missing__(self, key: str):
        raise ConfigError(f"missing required config key '{key}'")

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        try:
            with open(path, "r", encoding="utf-8") as f:
                text = f.read()
        except (OSError, UnicodeDecodeError) as e:
            raise ConfigError(f"cannot read config {path}: {e}") from e
        cfg = cls()
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in SCHEMA:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            if key in cfg:
                raise ConfigError(f"{path}:{lineno}: config key {key!r} is given twice")
            cfg[key] = _parse(SCHEMA[key], value, f"{path}:{lineno}: config key {key!r}")
        return cfg


def _load_dataset(cfg: RunConfig, class_count: int) -> Dataset:
    """The dataset ``data.source`` names, with labels in [0, class_count)."""
    source = cfg["data.source"]
    if source.startswith("bars:"):
        parts = source[len("bars:"):].split(",")
        if len(parts) != 3:
            raise ConfigError("data.source bars needs 'bars:<n>,<h>,<w>'")
        try:
            n, h, w = (int(p) for p in parts)
        except ValueError:
            raise ConfigError(f"data.source {source!r} has non-integer fields") from None
        if class_count != 2:
            raise ConfigError(
                f"bars data has 2 classes but the network has {class_count}"
            )
        try:
            return synth_bars(n, h, w, seed=cfg["train.seed"])
        except (DomainError, ShapeError) as e:
            raise ConfigError(f"data.source {source!r}: {e}") from e
    if source.startswith("idx:"):
        parts = source[len("idx:"):].split(",")
        if len(parts) != 2:
            raise ConfigError("data.source idx needs 'idx:<images>,<labels>'")
        img_path, lbl_path = parts[0].strip(), parts[1].strip()
        with open(img_path, "rb") as images, open(lbl_path, "rb") as labels:
            data = dataset_from_idx(images, labels, class_count)
        if len(data.images) == 0:
            raise ParseError(f"IDX data {img_path} holds no samples")
        return data
    raise ConfigError(f"data.source {source!r} must start with 'idx:' or 'bars:'")


def _network_and_data(cfg: RunConfig) -> tuple[net_mod.Network, Dataset]:
    """The dataset the config names and the network the config describes,
    initialized from ``train.seed``. Every key is read before any data is
    loaded."""
    seed = cfg["train.seed"]
    if cfg["conv.stride"] != 1:
        raise ConfigError("training and gradient checking support conv.stride=1 only")
    size, n_kernels, pad = cfg["conv.size"], cfg["conv.kernels"], cfg["conv.pad"]
    pool = (cfg["pool.window"], cfg["pool.stride"])
    widths = cfg["dense.widths"]
    try:
        # Refuse what the keys alone make too large before any data is
        # read: a 1x1 conv output and no pooling are the smallest arrays
        # any input size gives.
        smallest = net_mod.Architecture(
            ConvGeometry(size, size, 1, size, size, n_kernels), PoolGeometry(1, 1), widths
        )
        tensor.check_bytes(smallest.array_bytes())
    except ShapeError as e:
        raise ConfigError(f"invalid architecture: {e}") from e
    data = _load_dataset(cfg, widths[-1])
    _, in_h, in_w = data.images[0].shape
    # Bad geometry and oversized arrays come from config values, so they
    # report as config errors.
    try:
        conv = ConvGeometry(in_h, in_w, 1, size, size, n_kernels, pad=pad)
        arch = net_mod.Architecture(conv, PoolGeometry(*pool), widths)
        return net_mod.init(arch, seed=seed), data
    except GeometryError as e:
        raise ConfigError(f"invalid geometry for {in_h}x{in_w} input: {e}") from e
    except ShapeError as e:
        raise ConfigError(f"invalid architecture: {e}") from e


def _check_extents(net: net_mod.Network, shape: tuple[int, ...], source: str) -> None:
    """Refuse images from ``source`` whose (C, H, W) extents are not the model's."""
    g = net.bank.geometry
    want = (g.in_c, g.in_h, g.in_w)
    if shape != want:
        raise ParseError(f"model expects images {want}, {source} has {shape}")


def _write_outputs(outputs: list[tuple[str, Callable[[BinaryIO], object]]]) -> None:
    """Write each ``(path, write)`` output through ``write`` into a new
    temporary file beside ``path``, then move all of them into place with
    ``os.replace``. On any error every temporary file, and every output
    already moved, is unlinked before the error propagates."""
    temps: list[str] = []
    moved: list[str] = []
    try:
        for path, write in outputs:
            head, name = os.path.split(path)
            tmp = os.path.join(head, f".{name}.{secrets.token_hex(4)}.tmp")
            with open(tmp, "xb") as f:
                temps.append(tmp)
                write(f)
        for (path, _), tmp in zip(outputs, temps):
            os.replace(tmp, path)
            moved.append(path)
    except BaseException:
        for path in temps + moved:
            with contextlib.suppress(OSError):
                os.unlink(path)
        raise


def _check_outputs(model_path: str, csv_path: str) -> None:
    """Refuse, before any data is read, an ``out.model`` or ``out.csv``
    that is empty or whose directory does not exist: its temporary file
    could not be made, so the run would train only to fail. Refuse one
    that names a directory: its file could not be moved into place, and
    the rollback would then unlink the other output, already moved over
    the user's old file. Refuse the two naming one file: the CSV would
    replace the model. Paths that resolve alike name one file, and so do
    two existing paths to one inode (hard links)."""
    for key, path in (("out.model", model_path), ("out.csv", csv_path)):
        if not path:
            raise ConfigError(f"cannot write output: {key!r} is empty")
        if os.path.isdir(path):
            raise ConfigError(f"cannot write output: {key!r} ({path}) is a directory")
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise ConfigError(
                f"cannot write output: the directory of {key!r} ({path}) does not exist"
            )
    same = os.path.realpath(model_path) == os.path.realpath(csv_path)
    if not same:
        with contextlib.suppress(OSError):
            same = os.path.samefile(model_path, csv_path)
    if same:
        raise ConfigError(
            f"'out.model' ({model_path}) and 'out.csv' ({csv_path}) name the same file"
        )


def cmd_train(config_path: str) -> int:
    cfg = RunConfig.from_file(config_path)
    train_cfg = net_mod.TrainConfig(
        learning_rate=cfg["train.alpha"],
        epochs=cfg["train.epochs"],
        batch_size=cfg["train.batch_size"],
        rng_seed=cfg["train.seed"],
    )
    model_path, csv_path = cfg["out.model"], cfg["out.csv"]
    _check_outputs(model_path, csv_path)
    net, data = _network_and_data(cfg)
    net, history = net_mod.train(net, data, train_cfg)
    # All computation succeeded; only now touch the filesystem.
    lines = ["epoch,mean_loss,accuracy"]
    lines += [f"{e},{l:.6f},{a:.6f}" for e, l, a in history]
    csv = ("\n".join(lines) + "\n").encode("utf-8")
    try:
        _write_outputs([(model_path, lambda f: net_mod.save(net, f)),
                        (csv_path, lambda f: f.write(csv))])
    except OSError as e:
        raise ConfigError(f"cannot write output: {e}") from e
    final = history[-1]
    print(f"trained {len(history)} epochs: "
          f"loss={final.mean_loss:.6f} accuracy={final.accuracy:.6f}")
    return EXIT_OK


def cmd_eval(model_path: str, config_path: str) -> int:
    cfg = RunConfig.from_file(config_path)
    net = net_mod.load(model_path)
    data = _load_dataset(cfg, net.class_count)
    _check_extents(net, data.images[0].shape, "the data")
    mean_loss, accuracy = net_mod.evaluate(net, data)
    print(f"loss={mean_loss:.6f} accuracy={accuracy:.6f}")
    return EXIT_OK


def cmd_gradcheck(config_path: str, threshold: float) -> int:
    net, data = _network_and_data(RunConfig.from_file(config_path))
    report = check_network(net, (data.images[0], data.labels[0]), threshold=threshold)
    print(report.format())
    return EXIT_OK if report.passed else EXIT_CHECK


def cmd_predict(model_path: str, image_path: str, softmax: bool) -> int:
    net = net_mod.load(model_path)
    image = normalize(load_pgm(image_path))
    _check_extents(net, image.shape, f"image {image_path}")
    # The check below reports an overflow, so numpy's warnings would be noise.
    with np.errstate(over="ignore", invalid="ignore"):
        yhat, _ = net_mod.forward(net, image)
    if not np.isfinite(yhat).all():
        raise DomainError(f"model output for {image_path} is not finite")
    out = activations.softmax(yhat) if softmax else yhat
    print(" ".join(f"{v:.6f}" for v in out))
    print(f"class={int(np.argmax(out))}")
    return EXIT_OK


def _threshold(raw: str) -> float:
    try:
        v = float(raw)
    except ValueError:
        v = math.nan
    if not math.isfinite(v) or v <= 0:
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {raw!r}")
    return v


class _Parser(argparse.ArgumentParser):
    # A usage mistake must exit 1, not argparse's default 2.
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="convkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a network from a config file")
    p.add_argument("config")

    p = sub.add_parser("eval", help="evaluate a saved model on a dataset")
    p.add_argument("model")
    p.add_argument("config")

    p = sub.add_parser("gradcheck", help="finite-difference check of backward()")
    p.add_argument("config")
    p.add_argument("--threshold", type=_threshold, default=1e-6)

    p = sub.add_parser("predict", help="classify one PGM image")
    p.add_argument("model")
    p.add_argument("image")
    p.add_argument("--softmax", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "train":
            return cmd_train(args.config)
        if args.command == "eval":
            return cmd_eval(args.model, args.config)
        if args.command == "gradcheck":
            return cmd_gradcheck(args.config, args.threshold)
        if args.command == "predict":
            return cmd_predict(args.model, args.image, args.softmax)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConvkitError, OSError) as e:  # OSError: an input that cannot be read
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
