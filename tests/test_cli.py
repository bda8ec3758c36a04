import builtins
import struct
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from convkit import cli, tensor
from convkit import network as nm
from convkit.activations import ActivationKind
from convkit.cli import main
from convkit.layers import ConvGeometry, DenseLayer, KernelBank, PoolGeometry

from test_dataio import CountingStream

BASE_KEYS = """\
conv.kernels=2
conv.size=3
conv.stride=1
conv.pad=0
pool.window=2
pool.stride=2
dense.widths=8,2
train.alpha=0.05
train.epochs=3
train.batch_size=20
train.seed=42
data.source=bars:20,8,8
"""


def write_config(tmp_path, name, extra="", drop=None, **outs):
    """BASE_KEYS without ``drop``, each ``key=value`` line of ``extra`` in
    place of the base line with its key (or after them), then ``outs``."""
    given = dict(line.split("=", 1) for line in extra.splitlines())
    lines = [
        f"{key}={given.pop(key, value)}"
        for key, value in (line.split("=", 1) for line in BASE_KEYS.splitlines())
        if key != drop
    ]
    lines += [f"{key}={value}" for key, value in given.items()]
    for key, value in outs.items():
        lines.append(f"{key.replace('_', '.')}={value}")
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def train_config(tmp_path, name="train.cfg", tag="a", **kw):
    return write_config(
        tmp_path, name,
        out_model=str(tmp_path / f"model-{tag}.cnnf"),
        out_csv=str(tmp_path / f"metrics-{tag}.csv"),
        **kw,
    )


def zero_model(tmp_path):
    bank = KernelBank(
        kernels=np.zeros((2, 1, 3, 3)), biases=np.zeros(2),
        geometry=ConvGeometry(8, 8, 1, 3, 3, 2),
    )
    net = nm.Network(
        bank=bank,
        pool=PoolGeometry(2, 2),
        dense=[
            DenseLayer(np.zeros((8, 18)), np.zeros(8), ActivationKind.RELU),
            DenseLayer(np.zeros((2, 8)), np.zeros(2), ActivationKind.SIGMOID),
        ],
    )
    path = tmp_path / "zero.cnnf"
    nm.save(net, str(path))
    return str(path)


def write_pgm(tmp_path, name, h, w, value=128):
    blob = f"P5 {w} {h} 255\n".encode() + bytes([value]) * (h * w)
    path = tmp_path / name
    path.write_bytes(blob)
    return str(path)


# 67108864 * 3 dense weights alone take 1.6 GB, more than tensor.MAX_BYTES.
OVERSIZED_WIDTHS = "67108864,2"

# One past the largest unsigned 64-bit seed.
SEED_2_64 = "train.seed=18446744073709551616"


def overflowing_model(tmp_path):
    """The acceptance suite's criterion-7 model with its parameters times
    1e200: huge but finite, so its forward pass overflows. Returns the
    model path and the criterion-7 config."""
    path = tmp_path / "crit7.cfg"
    path.write_text(
        BASE_KEYS.replace("train.epochs=3", "train.epochs=4")
        .replace("train.batch_size=20", "train.batch_size=25")
        .replace("bars:20,8,8", "bars:50,8,8")
        + f"out.model={tmp_path / 'model-a.cnnf'}\n"
        + f"out.csv={tmp_path / 'metrics-a.csv'}\n"
    )
    assert main(["train", str(path)]) == 0
    net = nm.load(str(tmp_path / "model-a.cnnf"))
    net.params *= 1e200
    assert np.isfinite(net.params).all()
    huge = tmp_path / "huge.cnnf"
    nm.save(net, str(huge))
    return str(huge), str(path)


class TestTrain:
    def test_success_writes_csv_and_model(self, tmp_path, capsys):
        cfg = train_config(tmp_path)
        assert main(["train", cfg]) == 0
        csv = (tmp_path / "metrics-a.csv").read_text()
        lines = csv.strip().splitlines()
        assert lines[0] == "epoch,mean_loss,accuracy"
        assert len(lines) == 1 + 3
        assert (tmp_path / "model-a.cnnf").exists()
        out = capsys.readouterr().out
        assert "loss=" in out and "accuracy=" in out

    def test_missing_alpha_names_key(self, tmp_path, capsys):
        cfg = train_config(tmp_path, drop="train.alpha")
        assert main(["train", cfg]) == 1
        assert "alpha" in capsys.readouterr().err

    def test_reruns_byte_identical(self, tmp_path):
        cfg_a = train_config(tmp_path, name="a.cfg", tag="a")
        cfg_b = train_config(tmp_path, name="b.cfg", tag="b")
        assert main(["train", cfg_a]) == 0
        assert main(["train", cfg_b]) == 0
        assert (tmp_path / "model-a.cnnf").read_bytes() == \
            (tmp_path / "model-b.cnnf").read_bytes()
        assert (tmp_path / "metrics-a.csv").read_bytes() == \
            (tmp_path / "metrics-b.csv").read_bytes()

    def test_failing_run_writes_nothing(self, tmp_path):
        # pool window 3 does not divide the 6x6 conv output
        cfg = train_config(tmp_path, drop="pool.window", extra="pool.window=3")
        assert main(["train", cfg]) == 1
        assert not (tmp_path / "model-a.cnnf").exists()
        assert not (tmp_path / "metrics-a.csv").exists()

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("conv.kernels 2\n")
        assert main(["train", str(path)]) == 1

    def test_unwritable_output_path(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "bad-out.cfg",
            out_model=str(tmp_path / "no" / "such" / "dir" / "m.cnnf"),
            out_csv=str(tmp_path / "m.csv"),
        )
        assert main(["train", cfg]) == 1
        assert "cannot write" in capsys.readouterr().err

    @pytest.mark.parametrize("csv", ["no/dir/m.csv", "a-dir"])
    def test_unwritable_csv_leaves_no_model(self, tmp_path, capsys, csv):
        # "a-dir" is a directory: its CSV is written, then cannot be moved
        # into place after the model was
        (tmp_path / "a-dir").mkdir()
        cfg = write_config(
            tmp_path, "bad-csv.cfg",
            out_model=str(tmp_path / "m.cnnf"), out_csv=str(tmp_path / csv),
        )
        assert main(["train", cfg]) == 1
        assert "cannot write output" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a-dir", "bad-csv.cfg"]

    @pytest.mark.parametrize("directory", ["out.model", "out.csv"])
    def test_directory_output_keeps_old_file(self, tmp_path, capsys, monkeypatch,
                                             directory):
        # refused before any data is read: the output moved first would
        # otherwise replace the old file and then be unlinked
        paths = {"out.model": tmp_path / "old.cnnf", "out.csv": tmp_path / "old.csv"}
        for key, path in paths.items():
            if key == directory:
                path.mkdir()
            else:
                path.write_bytes(b"old")

        def no_data(cfg):
            raise AssertionError("data read before the outputs were checked")

        monkeypatch.setattr(cli, "_network_and_data", no_data)
        cfg = write_config(tmp_path, "dir.cfg", out_model=str(paths["out.model"]),
                           out_csv=str(paths["out.csv"]))
        assert main(["train", cfg]) == 1
        err = capsys.readouterr().err
        assert "cannot write output" in err and repr(directory) in err
        kept = [p for key, p in paths.items() if key != directory]
        assert [p.read_bytes() for p in kept] == [b"old"]
        assert sorted(p.name for p in tmp_path.rglob("*")) == \
            sorted(["dir.cfg", "old.cnnf", "old.csv"])

    @pytest.mark.parametrize("key,value", [("out.model", ""), ("out.csv", ""),
                                           ("out.model", "nodir/m.cnnf"),
                                           ("out.csv", "nodir/m.csv")])
    def test_unwritable_output_refused_before_training(self, tmp_path, capsys,
                                                       monkeypatch, key, value):
        # its temporary file could not be made: the run would train, then fail
        def no_data(cfg):
            raise AssertionError("data read before the outputs were checked")

        monkeypatch.setattr(cli, "_network_and_data", no_data)
        monkeypatch.chdir(tmp_path)
        outs = {"out.model": "m.cnnf", "out.csv": "m.csv", key: value}
        cfg = write_config(tmp_path, "out.cfg", out_model=outs["out.model"],
                           out_csv=outs["out.csv"])
        assert main(["train", cfg]) == 1
        err = capsys.readouterr().err
        assert "cannot write output" in err and repr(key) in err
        assert [p.name for p in tmp_path.iterdir()] == ["out.cfg"]

    def test_save_failing_partway_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        def failing_save(net, sink):
            sink.write(b"CNNF")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(nm, "save", failing_save)
        cfg = train_config(tmp_path)
        assert main(["train", cfg]) == 1
        assert "cannot write output" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["train.cfg"]

    def test_outputs_replace_old_files_and_leave_no_temporaries(self, tmp_path):
        cfg = train_config(tmp_path)
        (tmp_path / "model-a.cnnf").write_bytes(b"old")
        assert main(["train", cfg]) == 0
        assert nm.load(str(tmp_path / "model-a.cnnf")).params.size > 0
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["metrics-a.csv", "model-a.cnnf", "train.cfg"]

    @pytest.mark.parametrize("link", ["same", "dotdot", "symlink", "hardlink"])
    def test_one_file_for_both_outputs_refused(self, tmp_path, capsys, monkeypatch, link):
        # the CSV would replace the model; refused before any data is read
        (tmp_path / "d").mkdir()
        model, csv = tmp_path / "out.bin", tmp_path / "out.bin"
        if link == "dotdot":
            csv = tmp_path / "d" / ".." / "out.bin"
        elif link == "symlink":
            csv = tmp_path / "d" / "link.csv"
            csv.symlink_to(model)
        elif link == "hardlink":
            model.write_bytes(b"old")
            csv = tmp_path / "d" / "hard.csv"
            csv.hardlink_to(model)
        before = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))

        def no_data(cfg):
            raise AssertionError("data read before the outputs were checked")

        monkeypatch.setattr(cli, "_network_and_data", no_data)
        cfg = write_config(tmp_path, "same.cfg", out_model=str(model), out_csv=str(csv))
        assert main(["train", cfg]) == 1
        err = capsys.readouterr().err
        assert "'out.model'" in err and "'out.csv'" in err and "same file" in err
        after = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))
        assert after == sorted(before + [Path("same.cfg")])
        if link == "hardlink":
            assert model.read_bytes() == b"old"

    def test_distinct_outputs_in_one_directory_accepted(self, tmp_path):
        cfg = write_config(tmp_path, "two.cfg", out_model=str(tmp_path / "out.bin"),
                           out_csv=str(tmp_path / "d" / ".." / "out.csv"))
        (tmp_path / "d").mkdir()
        assert main(["train", cfg]) == 0
        assert nm.load(str(tmp_path / "out.bin")).params.size > 0
        assert (tmp_path / "out.csv").read_text().startswith("epoch,mean_loss,accuracy\n")

    def test_missing_config_file(self, tmp_path):
        assert main(["train", str(tmp_path / "nope.cfg")]) == 1

    @pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
    def test_non_finite_alpha_rejected(self, tmp_path, capsys, alpha):
        cfg = train_config(tmp_path, drop="train.alpha", extra=f"train.alpha={alpha}")
        assert main(["train", cfg]) == 1
        assert "train.alpha" in capsys.readouterr().err
        assert not (tmp_path / "model-a.cnnf").exists()
        assert not (tmp_path / "metrics-a.csv").exists()

    def test_negative_alpha_rejected(self, tmp_path, capsys):
        cfg = train_config(tmp_path, drop="train.alpha", extra="train.alpha=-0.5")
        assert main(["train", cfg]) == 1
        assert "'train.alpha' must be >= 0" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["train.cfg"]

    def test_diverging_run_writes_nothing(self, tmp_path, capsys):
        # the acceptance suite's criterion-7 run with a learning rate that
        # overflows the parameters
        path = tmp_path / "diverge.cfg"
        path.write_text(
            BASE_KEYS.replace("train.alpha=0.05", "train.alpha=1e200")
            .replace("train.epochs=3", "train.epochs=4")
            .replace("train.batch_size=20", "train.batch_size=25")
            .replace("bars:20,8,8", "bars:50,8,8")
            + f"out.model={tmp_path / 'model-a.cnnf'}\n"
            + f"out.csv={tmp_path / 'metrics-a.csv'}\n"
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["train", str(path)]) == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "model-a.cnnf").exists()
        assert not (tmp_path / "metrics-a.csv").exists()

    def test_non_finite_loss_writes_nothing(self, tmp_path, capsys):
        # one full-batch step leaves the parameters huge but finite; the
        # epoch's evaluation then overflows to a NaN loss
        cfg = train_config(
            tmp_path, drop="train.alpha", extra="train.alpha=1e200\ntrain.epochs=1"
        )
        assert main(["train", cfg]) == 2
        captured = capsys.readouterr()
        assert "epoch 1: training loss went non-finite" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "model-a.cnnf").exists()
        assert not (tmp_path / "metrics-a.csv").exists()

    def test_oversized_bars_rejected(self, tmp_path, capsys):
        cfg = train_config(
            tmp_path, drop="data.source", extra="data.source=bars:1048576,1024,1024"
        )
        assert main(["train", cfg]) == 1
        assert "bars images would take" in capsys.readouterr().err

    def test_wide_bars_refused_before_allocating(self, tmp_path, capsys):
        # 2 x 4 x 100,000,000 pixels: 6.4 GB of float64 images
        cfg = train_config(
            tmp_path, drop="data.source", extra="data.source=bars:2,4,100000000"
        )
        code, peak = traced_main(["train", cfg])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bars images would take 6400000000 bytes" in captured.err
        assert [p.name for p in tmp_path.iterdir()] == ["train.cfg"]
        assert peak < 1 << 20

    def test_largest_seed_accepted(self, tmp_path):
        cfg = train_config(
            tmp_path, drop="train.seed", extra="train.seed=18446744073709551615"
        )
        assert main(["train", cfg]) == 0


class TestEval:
    def test_eval_trained_model(self, tmp_path, capsys):
        cfg = train_config(tmp_path)
        assert main(["train", cfg]) == 0
        capsys.readouterr()
        assert main(["eval", str(tmp_path / "model-a.cnnf"), cfg]) == 0
        out = capsys.readouterr().out
        assert out.startswith("loss=") and " accuracy=" in out
        # six decimal places on both numbers
        loss_str = out.split()[0].split("=")[1]
        assert len(loss_str.split(".")[1]) == 6

    def test_extent_mismatch_names_both(self, tmp_path, capsys):
        cfg = train_config(tmp_path)
        assert main(["train", cfg]) == 0
        big = write_config(
            tmp_path, "big.cfg", drop="data.source",
            extra="data.source=bars:20,12,12",
        )
        capsys.readouterr()
        assert main(["eval", str(tmp_path / "model-a.cnnf"), big]) == 2
        err = capsys.readouterr().err
        assert "8" in err and "12" in err

    def test_eval_deterministic(self, tmp_path, capsys):
        cfg = train_config(tmp_path)
        assert main(["train", cfg]) == 0
        capsys.readouterr()
        assert main(["eval", str(tmp_path / "model-a.cnnf"), cfg]) == 0
        first = capsys.readouterr().out
        assert main(["eval", str(tmp_path / "model-a.cnnf"), cfg]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_corrupt_model_is_data_error(self, tmp_path):
        cfg = train_config(tmp_path)
        bad = tmp_path / "bad.cnnf"
        bad.write_bytes(b"XXXX" + bytes(64))
        assert main(["eval", str(bad), cfg]) == 2

    def test_overflowing_model_is_data_error(self, tmp_path, capsys):
        # the forward pass overflows to a NaN loss
        huge, path = overflowing_model(tmp_path)
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["eval", huge, path]) == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: mean loss")


class TestGradcheck:
    def test_fixture_passes_and_prints_groups(self, tmp_path, capsys):
        cfg = train_config(tmp_path)
        assert main(["gradcheck", cfg]) == 0
        out = capsys.readouterr().out
        rows = [l for l in out.splitlines() if l.strip().startswith(("conv", "dense"))]
        assert len(rows) == 2 + 2 * 2
        assert "pass" in out

    def test_unattainable_threshold_fails(self, tmp_path):
        cfg = train_config(tmp_path)
        assert main(["gradcheck", cfg, "--threshold", "1e-12"]) == 3

    @pytest.mark.parametrize("threshold", ["inf", "nan", "-1", "0"])
    def test_bad_threshold_is_usage_error(self, tmp_path, capsys, threshold):
        cfg = train_config(tmp_path)
        assert main(["gradcheck", cfg, "--threshold", threshold]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--threshold" in captured.err


# (key dropped from BASE_KEYS, line put in its place, fragment of the error)
CONFIG_ERRORS = {
    "negative-seed": ("train.seed", "train.seed=-1", "train.seed"),
    "seed-over-64-bits": ("train.seed", SEED_2_64, "train.seed"),
    "strided-conv": ("conv.stride", "conv.stride=2", "stride"),
    "oversized-architecture": (
        "dense.widths", f"dense.widths={OVERSIZED_WIDTHS}", "parameters"
    ),
    "kernel-larger-than-input": (
        "conv.size", "conv.size=9", "kernel 9x9 exceeds padded input 8x8"
    ),
    "bars-with-3-classes": (
        "dense.widths", "dense.widths=8,3", "bars data has 2 classes"
    ),
    # every key is read before any data is loaded
    "bad-key-and-missing-data": (
        "conv.size", "conv.size=0\ndata.source=idx:no-such-images,no-such-labels",
        "conv.size"
    ),
}


@pytest.mark.parametrize("case", sorted(CONFIG_ERRORS))
@pytest.mark.parametrize("command", ["train", "gradcheck"])
def test_config_error_exits_1_writing_nothing(tmp_path, capsys, command, case):
    drop, extra, fragment = CONFIG_ERRORS[case]
    cfg = train_config(tmp_path, drop=drop, extra=extra)
    assert main([command, cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and fragment in captured.err
    assert [p.name for p in tmp_path.iterdir()] == ["train.cfg"]


def refuse_forward(*args):
    raise AssertionError("an oversized geometry reached network.forward")


def traced_main(argv):
    """main(argv) and the tracemalloc peak of the call, in bytes."""
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, peak


@pytest.mark.parametrize("command", ["train", "gradcheck"])
def test_oversized_layer_arrays_refused_before_allocating(tmp_path, capsys,
                                                          monkeypatch, command):
    # 108,216,170 parameters pass the parameter bound; the conv products of
    # one sample would be 9 x 6006 x 6006 x 6 = 1,947,889,944 float64s.
    # Should the check fail, the test fails before a forward pass tries to
    # allocate them.
    monkeypatch.setattr(nm, "forward", refuse_forward)
    cfg = train_config(tmp_path, drop="conv.pad",
                       extra="conv.pad=3000\nconv.kernels=6\ndense.widths=2")
    code, peak = traced_main([command, cfg])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "conv products would take 15583119552 bytes" in captured.err
    assert [p.name for p in tmp_path.iterdir()] == ["train.cfg"]
    assert peak < 1 << 20


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_model_with_oversized_layer_arrays_is_data_error(tmp_path, capsys,
                                                         monkeypatch, command):
    # pad 3000 on 8x8 with 6 kernels of 3x3, one 6006x6006 pool window:
    # 74 parameters, 1,947,889,944 conv products per sample
    monkeypatch.setattr(nm, "forward", refuse_forward)
    head = struct.pack("<4sI8I2II", b"CNNF", 1, 8, 8, 1, 3, 3, 6, 1, 3000, 6006, 1, 1)
    layer = struct.pack("<IIB", 6, 2, int(ActivationKind.SIGMOID))
    model = tmp_path / "padded.cnnf"
    model.write_bytes(head + layer + np.zeros(74).tobytes())
    image = write_pgm(tmp_path, "x.pgm", 8, 8)
    cfg = train_config(tmp_path)
    argv = ["eval", str(model), cfg] if command == "eval" else ["predict", str(model), image]
    before = sorted(p.name for p in tmp_path.iterdir())
    code, peak = traced_main(argv)
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "conv products would take 15583119552 bytes" in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert peak < 1 << 20


@pytest.mark.parametrize("command", ["train", "eval", "gradcheck"])
def test_config_not_utf8_is_config_error(tmp_path, capsys, command):
    model = zero_model(tmp_path)
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(
        b"conv.kernels=6\xff\n"
        + f"out.model={tmp_path / 'model-a.cnnf'}\n".encode()
        + f"out.csv={tmp_path / 'metrics-a.csv'}\n".encode()
    )
    argv = [command, model, str(cfg)] if command == "eval" else [command, str(cfg)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot read config")
    assert str(cfg) in lines[0]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg", "zero.cnnf"]


class TestPredict:
    def test_zero_model_prints_half(self, tmp_path, capsys):
        model = zero_model(tmp_path)
        image = write_pgm(tmp_path, "img.pgm", 8, 8)
        assert main(["predict", model, image]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "0.500000 0.500000"
        assert out[1] == "class=0"

    def test_softmax_flag(self, tmp_path, capsys):
        model = zero_model(tmp_path)
        image = write_pgm(tmp_path, "img.pgm", 8, 8)
        assert main(["predict", model, image, "--softmax"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "0.500000 0.500000"

    def test_missing_image_names_path(self, tmp_path, capsys):
        model = zero_model(tmp_path)
        missing = str(tmp_path / "absent.pgm")
        assert main(["predict", model, missing]) == 2
        assert "absent.pgm" in capsys.readouterr().err

    @pytest.mark.parametrize("pixels,message", [
        ([15, 200], "pixel 200 at row 0, column 1 exceeds maxval 15"),
        ([15, 3], "only 8-bit PGMs"),
    ])
    def test_maxval_below_255_is_data_error(self, tmp_path, capsys, pixels, message):
        model = zero_model(tmp_path)
        image = tmp_path / "dim.pgm"
        image.write_bytes(b"P5 8 8 15\n" + bytes(pixels) + bytes(62))
        capsys.readouterr()
        assert main(["predict", model, str(image)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_extent_mismatch(self, tmp_path):
        model = zero_model(tmp_path)
        image = write_pgm(tmp_path, "img.pgm", 12, 12)
        assert main(["predict", model, image]) == 2

    def test_oversized_pgm_refused_before_copying(self, tmp_path, capsys, monkeypatch):
        # 1000x1000 pixels take 8 MB as float64; the file alone is 1 MB
        model = zero_model(tmp_path)
        image = write_pgm(tmp_path, "big.pgm", 1000, 1000)
        capsys.readouterr()
        monkeypatch.setattr(tensor, "MAX_BYTES", 100_000)
        code, peak = traced_main(["predict", model, image])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "PGM image would take 8000000 bytes, more than 100000" in captured.err
        assert peak < 1 << 20

    def test_model_with_long_tail_refused_after_bounded_read(self, tmp_path, capsys):
        # the header fixes the model's length; the 50 MB tail is never read
        model = Path(zero_model(tmp_path))
        with open(model, "ab") as f:
            f.truncate(model.stat().st_size + 50_000_000)
        image = write_pgm(tmp_path, "img.pgm", 8, 8)
        capsys.readouterr()
        code, peak = traced_main(["predict", str(model), image])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "trailing bytes after parameters" in captured.err
        assert peak < 1 << 20

    @pytest.mark.parametrize("softmax", [[], ["--softmax"]])
    def test_overflowing_model_is_data_error(self, tmp_path, capsys, softmax):
        huge, _ = overflowing_model(tmp_path)
        image = write_pgm(tmp_path, "img.pgm", 8, 8)
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["predict", huge, image, *softmax]) == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and "not finite" in lines[0]


class TestUnknownActivationTag:
    """A model whose dense header carries a tag other than 0 (sigmoid) or
    2 (ReLU) is a data error for every command that reads a model; 1, 3
    and 4 once tagged tanh, leaky ReLU and softmax layers."""

    @pytest.mark.parametrize("command", ["eval", "predict"])
    @pytest.mark.parametrize("tag", [1, 3, 4, 5, 255])
    def test_exits_2_and_writes_nothing(self, tmp_path, capsys, command, tag):
        model = Path(zero_model(tmp_path))
        blob = bytearray(model.read_bytes())
        blob[52 + 9 + 8] = tag  # dense[1]'s tag: each dense header is 9 bytes
        model.write_bytes(bytes(blob))
        cfg = train_config(tmp_path)
        image = write_pgm(tmp_path, "img.pgm", 8, 8)
        before = sorted(tmp_path.iterdir())
        capsys.readouterr()
        args = [cfg] if command == "eval" else [image]
        assert main([command, str(model), *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"dense[1] has unknown activation tag {tag}" in captured.err
        assert sorted(tmp_path.iterdir()) == before


def unreadable_input_argv(tmp_path, case):
    """The argv of one run whose input file cannot be read, and its path."""
    if case == "eval-missing-model":
        missing = str(tmp_path / "absent.cnnf")
        return ["eval", missing, train_config(tmp_path)], missing
    if case == "predict-on-directory":
        image = tmp_path / "images"
        image.mkdir()
        return ["predict", zero_model(tmp_path), str(image)], str(image)
    missing = str(tmp_path / "absent-images.idx")
    cfg = train_config(tmp_path, extra=f"data.source=idx:{missing},{missing}")
    return [case.split("-")[0], cfg], missing


@pytest.mark.parametrize("case", ["eval-missing-model", "predict-on-directory",
                                  "train-missing-idx", "gradcheck-missing-idx"])
def test_unreadable_input_exits_2_naming_it(tmp_path, capsys, case):
    argv, path = unreadable_input_argv(tmp_path, case)
    before = sorted(p.name for p in tmp_path.iterdir())
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: [Errno ") and repr(path) in lines[0]
    assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.parametrize("line,message", [
    ("train.epohcs=500", "unknown config key 'train.epohcs'"),
    ("train.alpha=50", "config key 'train.alpha' is given twice"),
    ("  data.source = bars:20,8,8  # again", "config key 'data.source' is given twice"),
], ids=["misspelled", "repeated", "repeated-spaced"])
@pytest.mark.parametrize("command", ["train", "gradcheck", "eval"])
def test_config_key_refused_naming_its_line(tmp_path, capsys, command, line, message):
    # BASE_KEYS fill lines 1-12, so ``line`` is line 13
    path = tmp_path / "keys.cfg"
    path.write_text(f"{BASE_KEYS}{line}\nout.model={tmp_path / 'm.cnnf'}\n"
                    f"out.csv={tmp_path / 'm.csv'}\n")
    cfg = str(path)
    argv = ["eval", zero_model(tmp_path), cfg] if command == "eval" else [command, cfg]
    before = sorted(p.name for p in tmp_path.iterdir())
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {cfg}:13: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_readme_key_table_is_the_accepted_key_set():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    table = readme.split("| key | meaning |\n", 1)[1].split("\n\n", 1)[0]
    keys = [row.split("`")[1] for row in table.splitlines()[1:]]
    assert len(keys) == len(set(keys)) == 14
    assert set(keys) == cli.CONFIG_KEYS


class TestUsage:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_arguments(self, capsys):
        assert main(["eval"]) == 1


def test_module_entry_point(tmp_path):
    import subprocess
    import sys

    cfg = train_config(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "convkit.cli", "train", cfg],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "accuracy=" in proc.stdout


class TestIdxSource:
    def write_idx_pair(self, tmp_path):
        rng = np.random.default_rng(99)
        n, h, w = 12, 8, 8
        img_blob = struct.pack(">IIII", 0x00000803, n, h, w)
        lbl_blob = struct.pack(">II", 0x00000801, n)
        for i in range(n):
            img_blob += bytes(rng.integers(0, 256, size=h * w).tolist())
            lbl_blob += bytes([i % 2])
        img_path = tmp_path / "imgs.idx"
        lbl_path = tmp_path / "lbls.idx"
        img_path.write_bytes(img_blob)
        lbl_path.write_bytes(lbl_blob)
        return img_path, lbl_path

    def test_train_and_eval_from_idx(self, tmp_path, capsys):
        img_path, lbl_path = self.write_idx_pair(tmp_path)
        cfg = write_config(
            tmp_path, "idx.cfg", drop="data.source",
            extra=f"data.source=idx:{img_path},{lbl_path}",
            out_model=str(tmp_path / "idx.cnnf"),
            out_csv=str(tmp_path / "idx.csv"),
        )
        assert main(["train", cfg]) == 0
        capsys.readouterr()
        assert main(["eval", str(tmp_path / "idx.cnnf"), cfg]) == 0
        assert capsys.readouterr().out.startswith("loss=")

    @pytest.mark.parametrize("command", ["train", "gradcheck"])
    def test_label_payload_read_once(self, tmp_path, capsys, monkeypatch, command):
        img_path, lbl_path = self.write_idx_pair(tmp_path)
        cfg = write_config(
            tmp_path, "idx.cfg", drop="data.source",
            extra=f"data.source=idx:{img_path},{lbl_path}",
            out_model=str(tmp_path / "idx.cnnf"),
            out_csv=str(tmp_path / "idx.csv"),
        )
        streams = {}

        def counting_open(path, mode="r", *args, **kwargs):
            if str(path) not in (str(img_path), str(lbl_path)):
                return builtins.open(path, mode, *args, **kwargs)
            assert mode == "rb"
            streams[str(path)] = CountingStream(Path(path).read_bytes())
            return streams[str(path)]

        monkeypatch.setattr(cli, "open", counting_open, raising=False)
        assert main([command, cfg]) == 0
        # header plus payload of each file: 12 labels, 12 images of 8x8
        assert streams[str(lbl_path)].bytes_read == 8 + 12
        assert streams[str(img_path)].bytes_read == 16 + 12 * 64

    def test_empty_idx_is_data_error(self, tmp_path, capsys):
        img_path = tmp_path / "empty-imgs.idx"
        lbl_path = tmp_path / "empty-lbls.idx"
        img_path.write_bytes(struct.pack(">IIII", 0x00000803, 0, 8, 8))
        lbl_path.write_bytes(struct.pack(">II", 0x00000801, 0))
        cfg = write_config(
            tmp_path, "idx.cfg", drop="data.source",
            extra=f"data.source=idx:{img_path},{lbl_path}",
            out_model=str(tmp_path / "m.cnnf"),
            out_csv=str(tmp_path / "m.csv"),
        )
        for argv in (["train", cfg], ["eval", zero_model(tmp_path), cfg],
                     ["gradcheck", cfg]):
            assert main(argv) == 2, argv[0]
            assert "no samples" in capsys.readouterr().err
        assert not (tmp_path / "m.cnnf").exists()
        assert not (tmp_path / "m.csv").exists()

    def test_zero_row_idx_is_data_error(self, tmp_path, capsys):
        img_path = tmp_path / "flat-imgs.idx"
        lbl_path = tmp_path / "flat-lbls.idx"
        img_path.write_bytes(struct.pack(">IIII", 0x00000803, 2, 0, 8))
        lbl_path.write_bytes(struct.pack(">II", 0x00000801, 2) + bytes([0, 1]))
        cfg = write_config(
            tmp_path, "idx.cfg", drop="data.source",
            extra=f"data.source=idx:{img_path},{lbl_path}",
            out_model=str(tmp_path / "m.cnnf"),
            out_csv=str(tmp_path / "m.csv"),
        )
        assert main(["train", cfg]) == 2
        assert "extents 0x8" in capsys.readouterr().err
        assert not (tmp_path / "m.cnnf").exists()
        assert not (tmp_path / "m.csv").exists()

    @pytest.mark.parametrize("command", ["train", "gradcheck"])
    def test_oversized_widths_refused_before_loading(self, tmp_path, capsys,
                                                     monkeypatch, command):
        # The 12 x 200,000 label array alone would be 19.2 MB.
        monkeypatch.setattr(tensor, "MAX_BYTES", 8 * 10**5)
        img_path, lbl_path = self.write_idx_pair(tmp_path)
        cfg = write_config(
            tmp_path, "idx.cfg", drop="dense.widths",
            extra=f"dense.widths=8,200000\ndata.source=idx:{img_path},{lbl_path}",
            out_model=str(tmp_path / "m.cnnf"),
            out_csv=str(tmp_path / "m.csv"),
        )
        code, peak = traced_main([command, cfg])
        assert code == 1
        assert "parameters would take 14400352 bytes, more than 800000" in (
            capsys.readouterr().err)
        assert not (tmp_path / "m.cnnf").exists()
        assert not (tmp_path / "m.csv").exists()
        assert peak < 1 << 20

    def test_labels_take_no_per_class_array(self, tmp_path, capsys, monkeypatch):
        # 12 labels of 100 classes would take 9,600 bytes as one float64 row
        # per sample; as class indices they take 96, less than every other
        # array of the run (the parameters take 8,576)
        img_path, lbl_path = self.write_idx_pair(tmp_path)
        model = str(tmp_path / "wide.cnnf")
        cfg = write_config(
            tmp_path, "wide.cfg", drop="dense.widths",
            extra=f"dense.widths=8,100\ndata.source=idx:{img_path},{lbl_path}",
            out_model=model, out_csv=str(tmp_path / "wide.csv"),
        )
        monkeypatch.setattr(tensor, "MAX_BYTES", 9599)
        for argv in (["train", cfg], ["gradcheck", cfg], ["eval", model, cfg]):
            assert main(argv) == 0, (argv[0], capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["train", "gradcheck"])
    def test_oversized_idx_images_are_data_error(self, tmp_path, capsys,
                                                 monkeypatch, command):
        # 12 images of 8x8 take 6,144 bytes as float64
        monkeypatch.setattr(tensor, "MAX_BYTES", 6143)
        img_path, lbl_path = self.write_idx_pair(tmp_path)
        cfg = write_config(
            tmp_path, "idx.cfg", drop="data.source",
            extra=f"data.source=idx:{img_path},{lbl_path}",
            out_model=str(tmp_path / "m.cnnf"),
            out_csv=str(tmp_path / "m.csv"),
        )
        code, peak = traced_main([command, cfg])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "IDX images would take 6144 bytes, more than 6143" in captured.err
        assert not (tmp_path / "m.cnnf").exists()
        assert not (tmp_path / "m.csv").exists()
        assert peak < 1 << 20

    def test_missing_idx_file_is_data_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "idx.cfg", drop="data.source",
            extra=f"data.source=idx:{tmp_path / 'nope.idx'},{tmp_path / 'nada.idx'}",
            out_model=str(tmp_path / "m.cnnf"),
            out_csv=str(tmp_path / "m.csv"),
        )
        assert main(["train", cfg]) == 2
        assert "nope.idx" in capsys.readouterr().err
