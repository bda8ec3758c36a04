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
import math
import sys

import numpy as np

from . import network as net_mod
from .activations import ActivationKind, apply
from .dataio import Dataset, dataset_from_idx, load_pgm, normalize, synth_bars
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


class RunConfig:
    """Typed access to the flat key=value config with diagnostics that
    name the offending key."""

    def __init__(self, pairs: dict[str, str]):
        self.pairs = pairs

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        try:
            with open(path, "r", encoding="utf-8") as f:
                text = f.read()
        except OSError as e:
            raise ConfigError(f"cannot read config {path}: {e}") from e
        pairs: dict[str, str] = {}
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            pairs[key.strip()] = value.strip()
        return cls(pairs)

    def require(self, key: str) -> str:
        if key not in self.pairs:
            raise ConfigError(f"missing required config key '{key}'")
        return self.pairs[key]

    def intval(self, key: str, minimum: int | None = None) -> int:
        raw = self.require(key)
        try:
            v = int(raw)
        except ValueError:
            raise ConfigError(f"config key '{key}' must be an integer, got {raw!r}") from None
        if minimum is not None and v < minimum:
            raise ConfigError(f"config key '{key}' must be >= {minimum}, got {v}")
        return v

    def floatval(self, key: str, nonnegative: bool = False) -> float:
        raw = self.require(key)
        try:
            v = float(raw)
        except ValueError:
            raise ConfigError(f"config key '{key}' must be a number, got {raw!r}") from None
        if not math.isfinite(v):
            raise ConfigError(f"config key '{key}' must be finite, got {raw!r}")
        if nonnegative and v < 0:
            raise ConfigError(f"config key '{key}' must be >= 0, got {v}")
        return v

    def widths(self, key: str) -> tuple[int, ...]:
        raw = self.require(key)
        try:
            ws = tuple(int(p) for p in raw.split(","))
        except ValueError:
            raise ConfigError(f"config key '{key}' must be comma-separated integers") from None
        if not ws or any(w < 1 for w in ws):
            raise ConfigError(f"config key '{key}' needs positive widths, got {raw!r}")
        return ws


def _architecture(cfg: RunConfig, in_h: int, in_w: int) -> net_mod.Architecture:
    # Bad geometry comes from config values, so it reports as a config error.
    try:
        conv = ConvGeometry(
            in_h=in_h,
            in_w=in_w,
            in_c=1,
            k_h=cfg.intval("conv.size", 1),
            k_w=cfg.intval("conv.size", 1),
            n_kernels=cfg.intval("conv.kernels", 1),
            stride=cfg.intval("conv.stride", 1),
            pad=cfg.intval("conv.pad", 0),
        )
        pool = PoolGeometry(
            window=cfg.intval("pool.window", 1), stride=cfg.intval("pool.stride", 1)
        )
        arch = net_mod.Architecture(
            conv=conv, pool=pool, dense_widths=cfg.widths("dense.widths")
        )
        arch.flat_length()
    except GeometryError as e:
        raise ConfigError(f"invalid geometry for {in_h}x{in_w} input: {e}") from e
    return arch


def _load_dataset(cfg: RunConfig, class_count: int) -> Dataset:
    source = cfg.require("data.source")
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
            return synth_bars(n, h, w, seed=cfg.intval("train.seed", 0))
        except (DomainError, ShapeError) as e:
            raise ConfigError(f"data.source {source!r}: {e}") from e
    if source.startswith("idx:"):
        parts = source[len("idx:"):].split(",")
        if len(parts) != 2:
            raise ConfigError("data.source idx needs 'idx:<images>,<labels>'")
        img_path, lbl_path = parts[0].strip(), parts[1].strip()
        try:
            data = dataset_from_idx(img_path, lbl_path, class_count)
        except OSError as e:
            raise ParseError(f"cannot read IDX data: {e}") from e
        if not data.images:
            raise ParseError(f"IDX data {img_path} holds no samples")
        return data
    raise ConfigError(f"data.source {source!r} must start with 'idx:' or 'bars:'")


def _check_extents(net: net_mod.Network, data: Dataset) -> None:
    g = net.bank.geometry
    want = (g.in_c, g.in_h, g.in_w)
    got = data.images[0].shape
    if got != want:
        raise ParseError(f"model expects images {want}, data provides {got}")
    if data.class_count != net.class_count:
        raise ParseError(
            f"model has {net.class_count} classes, data has {data.class_count}"
        )


def cmd_train(config_path: str) -> int:
    cfg = RunConfig.from_file(config_path)
    # Validate every knob before any heavy work.
    train_cfg = net_mod.TrainConfig(
        learning_rate=cfg.floatval("train.alpha", nonnegative=True),
        epochs=cfg.intval("train.epochs", 1),
        batch_size=cfg.intval("train.batch_size", 1),
        rng_seed=cfg.intval("train.seed", 0),
    )
    if cfg.intval("conv.stride", 1) != 1:
        raise ConfigError("training supports conv.stride=1 only")
    model_path = cfg.require("out.model")
    csv_path = cfg.require("out.csv")
    widths = cfg.widths("dense.widths")
    data = _load_dataset(cfg, class_count=widths[-1])
    _, in_h, in_w = data.images[0].shape
    arch = _architecture(cfg, in_h, in_w)
    net = net_mod.init(arch, seed=train_cfg.rng_seed)
    net, history = net_mod.train(net, data, train_cfg)
    # All computation succeeded; only now touch the filesystem.
    try:
        net_mod.save(net, model_path)
        lines = ["epoch,mean_loss,accuracy"]
        lines += [f"{e},{l:.6f},{a:.6f}" for e, l, a in history]
        with open(csv_path, "w", encoding="utf-8", newline="\n") as f:
            f.write("\n".join(lines) + "\n")
    except OSError as e:
        raise ConfigError(f"cannot write output: {e}") from e
    final = history[-1]
    print(f"trained {len(history)} epochs: "
          f"loss={final.mean_loss:.6f} accuracy={final.accuracy:.6f}")
    return EXIT_OK


def cmd_eval(model_path: str, config_path: str) -> int:
    cfg = RunConfig.from_file(config_path)
    net = _load_model(model_path)
    data = _load_dataset(cfg, class_count=net.class_count)
    _check_extents(net, data)
    mean_loss, accuracy = net_mod.evaluate(net, data)
    print(f"loss={mean_loss:.6f} accuracy={accuracy:.6f}")
    return EXIT_OK


def cmd_gradcheck(config_path: str, threshold: float) -> int:
    cfg = RunConfig.from_file(config_path)
    seed = cfg.intval("train.seed", 0)
    if cfg.intval("conv.stride", 1) != 1:
        raise ConfigError("gradient checking supports conv.stride=1 only")
    widths = cfg.widths("dense.widths")
    data = _load_dataset(cfg, class_count=widths[-1])
    _, in_h, in_w = data.images[0].shape
    arch = _architecture(cfg, in_h, in_w)
    net = net_mod.init(arch, seed=seed)
    report = check_network(net, (data.images[0], data.labels[0]), threshold=threshold)
    print(report.format())
    return EXIT_OK if report.passed else EXIT_CHECK


def cmd_predict(model_path: str, image_path: str, softmax: bool) -> int:
    net = _load_model(model_path)
    try:
        raw = load_pgm(image_path)
    except OSError as e:
        raise ParseError(f"cannot read image {image_path}: {e}") from e
    image = normalize(raw)
    g = net.bank.geometry
    if image.shape != (g.in_c, g.in_h, g.in_w):
        raise ParseError(
            f"model expects images {(g.in_c, g.in_h, g.in_w)}, "
            f"image {image_path} is {image.shape}"
        )
    yhat, _ = net_mod.forward(net, image)
    out = apply(ActivationKind.SOFTMAX, yhat) if softmax else yhat
    print(" ".join(f"{v:.6f}" for v in out))
    print(f"class={int(np.argmax(out))}")
    return EXIT_OK


def _load_model(path: str) -> net_mod.Network:
    try:
        return net_mod.load(path)
    except OSError as e:
        raise ParseError(f"cannot read model {path}: {e}") from e


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
    except ConvkitError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
