"""Golden sha256 digests of the model file and metrics CSV of `convkit
train` runs beyond the acceptance suite's criterion-7 config: 10 classes
at 28x28 read through the real `idx:` path with a short last batch, and
bars with a padded conv and one sample per batch.

The pins hold only on the platform they were measured on (see
``test_acceptance.GOLDEN_PLATFORM``); elsewhere each run still has to
succeed, then the test is skipped.
"""

import hashlib

import numpy as np
import pytest

from convkit.cli import main

from test_acceptance import golden_skip_reason
from test_dataio import write_idx_images, write_idx_labels

COMMON = """\
conv.stride=1
pool.window=2
pool.stride=2
train.alpha=0.1
train.seed=42
"""


def idx_source(tmp_path):
    """40 seeded 28x28 images over 10 classes, written as an IDX pair."""
    rng = np.random.default_rng(2024)
    raws = rng.integers(0, 256, size=(40, 28, 28)).astype(np.uint8)
    labels = [i % 10 for i in rng.permutation(40)]
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
