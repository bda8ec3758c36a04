"""Golden outputs beyond the acceptance suite's criterion-7 config.

* sha256 digests of the model file and metrics CSV of `convkit train`
  runs: 10 classes at 28x28 read through the real `idx:` path with a
  short last batch, and bars with a padded conv and one sample per batch.
* The exit code and exact stdout of `convkit gradcheck` on the padded
  bars config and on 3 classes at 8x8 read through the `idx:` path.
* Every field of every ``GroupResult`` that ``check_network`` reports for
  four fixed nets and samples, one of them with excluded perturbations.
* sha256 digests of the model file and epoch history of a 2-channel,
  padded net trained through the library API (``Dataset`` holds
  1-channel images only).

The pins hold only on the platform they were measured on (see
``test_acceptance.GOLDEN_PLATFORM``); elsewhere each run still has to
succeed, then the test is skipped.
"""

import hashlib
import io
from typing import NamedTuple

import numpy as np
import pytest

from convkit import network as nm
from convkit.cli import main
from convkit.dataio import synth_bars
from convkit.gradcheck import check_network
from convkit.layers import ConvGeometry, PoolGeometry

from test_acceptance import golden_skip_reason
from test_dataio import write_idx_images, write_idx_labels

COMMON = """\
conv.stride=1
pool.window=2
pool.stride=2
train.alpha=0.1
train.seed=42
"""


def idx_source(tmp_path, n=40, size=28, classes=10, seed=2024):
    """n seeded size x size images over ``classes`` classes, written as an
    IDX pair."""
    rng = np.random.default_rng(seed)
    raws = rng.integers(0, 256, size=(n, size, size)).astype(np.uint8)
    labels = [i % classes for i in rng.permutation(n)]
    img_path = tmp_path / "golden-images.idx"
    lbl_path = tmp_path / "golden-labels.idx"
    img_path.write_bytes(write_idx_images(raws))
    lbl_path.write_bytes(write_idx_labels(labels))
    return f"idx:{img_path},{lbl_path}"


CASES = {
    # 40 samples in batches of 16: the last batch holds 8
    "idx-10class-28x28": (
        "conv.kernels=3\nconv.size=5\nconv.pad=0\ndense.widths=16,10\n"
        "train.epochs=2\ntrain.batch_size=16\n",
        idx_source,
        "32e296148fb9c42abc1e732671729fba84f3c3e65a04c6e012d51531b92aa169",
        "d65e0748247282b1a4784c7dfd0bceec16e19a98bf692e5e78152337aa5d744d",
    ),
    "bars-pad1-batch1": (
        "conv.kernels=2\nconv.size=3\nconv.pad=1\ndense.widths=8,2\n"
        "train.epochs=2\ntrain.batch_size=1\n",
        lambda tmp_path: "bars:20,8,8",
        "51caec0d8b033c00b16f93314a627015e4d43887867f812d4dd0c8bd1c6b74db",
        "e2782a60797e2efa21c899a49015c9a0797130e5136220dda3faca11964933bc",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_train_digests(tmp_path, case):
    keys, source, model_sha, csv_sha = CASES[case]
    model_path = tmp_path / "model.cnnf"
    csv_path = tmp_path / "metrics.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        COMMON + keys + f"data.source={source(tmp_path)}\n"
        f"out.model={model_path}\nout.csv={csv_path}\n"
    )
    assert main(["train", str(cfg)]) == 0
    reason = golden_skip_reason()
    if reason:
        pytest.skip(reason)
    assert hashlib.sha256(model_path.read_bytes()).hexdigest() == model_sha
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == csv_sha


GRADCHECK_CLI_CASES = {
    "bars-pad1-batch1": (
        CASES["bars-pad1-batch1"][0],
        CASES["bars-pad1-batch1"][1],
        """\
group          max_rel_err  mean_rel_err  excl  argmax        status
conv.kernels  2.527973e-08  3.444237e-09     0  (0, 0, 1, 1)  pass
conv.biases   1.692768e-10  1.208304e-10     0  (0,)          pass
dense[0].W    2.730557e-08  4.099157e-10     0  (6, 17)       pass
dense[0].b    5.967275e-11  1.134694e-11     0  (6,)          pass
dense[1].W    1.593801e-09  1.436079e-10     0  (0, 0)        pass
dense[1].b    9.288595e-13  6.523510e-13     0  (0,)          pass
threshold 1.000000e-06: pass
""",
    ),
    "idx-3class-8x8": (
        "conv.kernels=2\nconv.size=3\nconv.pad=0\ndense.widths=8,3\n",
        lambda tmp_path: idx_source(tmp_path, n=12, size=8, classes=3, seed=2025),
        """\
group          max_rel_err  mean_rel_err  excl  argmax        status
conv.kernels  4.287383e-09  7.606462e-10     0  (1, 0, 1, 2)  pass
conv.biases   8.979668e-10  6.164500e-10     0  (1,)          pass
dense[0].W    9.195279e-09  1.300437e-10     0  (0, 17)       pass
dense[0].b    7.050220e-11  8.812775e-12     0  (0,)          pass
dense[1].W    1.123745e-10  8.856003e-12     0  (2, 0)        pass
dense[1].b    1.103768e-11  5.849994e-12     0  (1,)          pass
threshold 1.000000e-06: pass
""",
    ),
}


@pytest.mark.parametrize("case", sorted(GRADCHECK_CLI_CASES))
def test_gradcheck_cli_pins(tmp_path, capsys, case):
    keys, source, want = GRADCHECK_CLI_CASES[case]
    cfg = tmp_path / "check.cfg"
    cfg.write_text(COMMON + keys + f"data.source={source(tmp_path)}\n")
    assert main(["gradcheck", str(cfg)]) == 0
    reason = golden_skip_reason()
    if reason:
        pytest.skip(reason)
    assert capsys.readouterr().out == want


README_ARCH = nm.Architecture(ConvGeometry(8, 8, 1, 3, 3, 6), PoolGeometry(2, 2), (32, 2))
TEN_CLASS_ARCH = nm.Architecture(ConvGeometry(8, 8, 1, 3, 3, 4), PoolGeometry(2, 2), (16, 10))


def readme_bars0():
    data = synth_bars(200, 8, 8, seed=42)
    return nm.init(README_ARCH, 42), (data.images[0], data.labels[0])


def ten_class():
    image = synth_bars(2, 8, 8, seed=7).images[0]
    return nm.init(TEN_CLASS_ARCH, 7), (image, 3)


class Samples(NamedTuple):
    """The fields of a ``Dataset`` that ``train`` and ``evaluate`` read,
    without its 1-channel check."""

    images: np.ndarray
    labels: np.ndarray
    class_count: int


TWO_CHANNEL_ARCH = nm.Architecture(
    ConvGeometry(8, 8, 2, 3, 3, 3, pad=1), PoolGeometry(2, 2), (8, 3)
)


def two_channel_trained():
    """24 seeded 2-channel 8x8 images over 3 classes, trained 3 epochs in
    batches of 8; returns the net, its history and the data."""
    rng = np.random.default_rng(2026)
    images = rng.uniform(0.0, 1.0, size=(24, 2, 8, 8))
    labels = rng.permutation(24) % 3
    data = Samples(images, labels, 3)
    cfg = nm.TrainConfig(learning_rate=0.1, epochs=3, batch_size=8, rng_seed=42)
    net, history = nm.train(nm.init(TWO_CHANNEL_ARCH, 42), data, cfg)
    return net, history, data


def test_two_channel_train_digests():
    net, history, _ = two_channel_trained()
    assert [h.epoch for h in history] == [1, 2, 3]
    reason = golden_skip_reason()
    if reason:
        pytest.skip(reason)
    model = io.BytesIO()
    nm.save(net, model)
    assert hashlib.sha256(model.getvalue()).hexdigest() == \
        "16be58b42f3ef512a87ef9ab85d8c9e50a3e005cf13d0284b9a76175cd00e970"
    # repr round-trips every float exactly
    assert hashlib.sha256(repr([tuple(h) for h in history]).encode()).hexdigest() == \
        "45c6ede0d17e64d2dc9ad8896579a11f40b65524198520d353b43d287e7bbc4a"


def two_channel_sample0():
    net, _, data = two_channel_trained()
    return net, (data.images[0], data.labels[0])


def readme_zero_image():
    # Every conv pre-activation is the zero bias: each bias perturbation
    # flips the ReLU decisions between its two runs and is excluded.
    return nm.init(README_ARCH, 42), (np.zeros((1, 8, 8)), 0)


# (group, max_rel_err, mean_rel_err, argmax_coord, n_checked, n_excluded, passed)
GRADCHECK_CASES = {
    "readme-bars-sample0": (readme_bars0, [
        ("conv.kernels", 9.194503581797433e-08, 4.771051997781281e-09, (0, 0, 2, 0), 54, 0, True),
        ("conv.biases", 9.060106067297089e-10, 3.8543064868079213e-10, (2,), 6, 0, True),
        ("dense[0].W", 2.9306003312855654e-07, 1.7819562541554681e-09, (25, 43), 1728, 0, True),
        ("dense[0].b", 9.978913749125722e-10, 1.2278804533334973e-10, (6,), 32, 0, True),
        ("dense[1].W", 1.5707526906838684e-09, 1.3474282639836393e-10, (0, 4), 64, 0, True),
        ("dense[1].b", 1.0554768088759583e-11, 8.532042112941927e-12, (1,), 2, 0, True),
    ]),
    "ten-class": (ten_class, [
        ("conv.kernels", 2.0029090605417507e-07, 1.5181208067962068e-08, (3, 0, 2, 1), 36, 0, True),
        ("conv.biases", 1.7874681463050298e-08, 5.628756152055962e-09, (2,), 4, 0, True),
        ("dense[0].W", 2.6037485366742514e-07, 4.2093904065256454e-09, (2, 29), 576, 0, True),
        ("dense[0].b", 3.0849592349296203e-10, 6.490901134107893e-11, (0,), 16, 0, True),
        ("dense[1].W", 2.3645484001925e-09, 1.7504221942424547e-10, (4, 2), 160, 0, True),
        ("dense[1].b", 1.3052107219644715e-10, 4.68256670398695e-11, (5,), 10, 0, True),
    ]),
    "readme-zero-image": (readme_zero_image, [
        ("conv.kernels", 0.0, 0.0, (0, 0, 0, 0), 54, 0, True),
        ("conv.biases", 0.0, 0.0, (), 0, 6, True),
        ("dense[0].W", 0.0, 0.0, (0, 0), 1728, 0, True),
        ("dense[0].b", 0.0, 0.0, (), 0, 32, True),
        ("dense[1].W", 0.0, 0.0, (0, 0), 64, 0, True),
        ("dense[1].b", 1.565336749109747e-11, 1.1102285757381338e-11, (1,), 2, 0, True),
    ]),
    "two-channel-pad1": (two_channel_sample0, [
        ("conv.kernels", 1.0865534314137547e-08, 5.08904074433379e-10, (1, 1, 1, 2), 54, 0, True),
        ("conv.biases", 1.927169261273696e-10, 8.044573121058263e-11, (1,), 3, 0, True),
        ("dense[0].W", 1.0798252483799312e-08, 1.5170240739110586e-10, (6, 45), 384, 0, True),
        ("dense[0].b", 1.6914596942926e-10, 2.7497637855650662e-11, (2,), 8, 0, True),
        ("dense[1].W", 8.548440898205047e-10, 7.130147072768371e-11, (0, 2), 24, 0, True),
        ("dense[1].b", 3.282462401035734e-11, 2.1945344180592207e-11, (0,), 3, 0, True),
    ]),
}


@pytest.mark.parametrize("case", sorted(GRADCHECK_CASES))
def test_gradcheck_report_pins(case):
    build, want = GRADCHECK_CASES[case]
    net, sample = build()
    before = net.params.copy()
    report = check_network(net, sample)
    assert report.passed
    assert np.array_equal(net.params, before)
    reason = golden_skip_reason()
    if reason:
        pytest.skip(reason)
    got = [
        (g.group, g.max_rel_err, g.mean_rel_err, g.argmax_coord, g.n_checked,
         g.n_excluded, g.passed)
        for g in report.groups
    ]
    # == on floats is exact, and the argmax coordinates must be plain ints.
    assert got == want
    assert all(type(i) is int for g in report.groups for i in g.argmax_coord)
