import struct
import warnings

import numpy as np
import pytest

from convkit import network as nm
from convkit.activations import ActivationKind
from convkit.cli import main
from convkit.layers import ConvGeometry, DenseLayer, KernelBank, PoolGeometry

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
    lines = [
        line for line in BASE_KEYS.splitlines()
        if drop is None or not line.startswith(drop + "=")
    ]
    for key, value in outs.items():
        lines.append(f"{key.replace('_', '.')}={value}")
    if extra:
        lines.append(extra)
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
        conv_activation=ActivationKind.RELU,
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

    def test_negative_seed_rejected(self, tmp_path, capsys):
        cfg = train_config(tmp_path, drop="train.seed", extra="train.seed=-1")
        assert main(["train", cfg]) == 1
        assert "train.seed" in capsys.readouterr().err

    def test_strided_conv_training_rejected(self, tmp_path, capsys):
        cfg = train_config(tmp_path, drop="conv.stride", extra="conv.stride=2")
        assert main(["train", cfg]) == 1
        assert "stride" in capsys.readouterr().err

    def test_unwritable_output_path(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "bad-out.cfg",
            out_model=str(tmp_path / "no" / "such" / "dir" / "m.cnnf"),
            out_csv=str(tmp_path / "m.csv"),
        )
        assert main(["train", cfg]) == 1
        assert "cannot write" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        assert main(["train", str(tmp_path / "nope.cfg")]) == 1

    @pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
    def test_non_finite_alpha_rejected(self, tmp_path, capsys, alpha):
        cfg = train_config(tmp_path, drop="train.alpha", extra=f"train.alpha={alpha}")
        assert main(["train", cfg]) == 1
        assert "train.alpha" in capsys.readouterr().err
        assert not (tmp_path / "model-a.cnnf").exists()
        assert not (tmp_path / "metrics-a.csv").exists()

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
        assert "exceeds" in capsys.readouterr().err


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

    def test_extent_mismatch(self, tmp_path):
        model = zero_model(tmp_path)
        image = write_pgm(tmp_path, "img.pgm", 12, 12)
        assert main(["predict", model, image]) == 2


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

    def test_missing_idx_file_is_data_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "idx.cfg", drop="data.source",
            extra=f"data.source=idx:{tmp_path / 'nope.idx'},{tmp_path / 'nada.idx'}",
            out_model=str(tmp_path / "m.cnnf"),
            out_csv=str(tmp_path / "m.csv"),
        )
        assert main(["train", cfg]) == 2
        assert "nope.idx" in capsys.readouterr().err
