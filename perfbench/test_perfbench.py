"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q

They sit outside ``tests/`` so the tier-1 suite (``testpaths = ["tests"]``)
does not collect them.
"""

from __future__ import annotations

import json
import shutil
import struct
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from convkit import dataio, network as nm  # noqa: E402
from convkit.layers import ConvGeometry, PoolGeometry  # noqa: E402
from calibration import Reference  # noqa: E402
from tracer import TRACED, Tracer, _convkit_modules  # noqa: E402

TINY = nm.Architecture(ConvGeometry(4, 4, 1, 3, 3, 1), PoolGeometry(2, 2), (3, 2))


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_tracer_replaces_every_binding_and_restores_it():
    tracer = Tracer()
    before = tracer.bindings()
    assert all(before[name] >= 1 for name in TRACED)
    assert before["layers.conv_forward"] >= 2  # layers and network
    with tracer:
        assert all(n == 0 for n in tracer.bindings().values())
    assert tracer.bindings() == before
    for module in _convkit_modules():
        assert not any(getattr(v, "__wrapped__", None) for v in vars(module).values())


def test_tracer_self_time_excludes_children():
    net = nm.init(TINY, seed=1)
    image = np.zeros((1, 4, 4))
    tracer = Tracer()
    with tracer:
        nm.forward(net, image)
    stats = tracer.take()
    assert stats["network.forward"][0] == 1
    assert stats["layers.conv_forward"][0] == 1
    assert stats["tensor.matvec"][0] == 2
    calls, busy, self_s = stats["network.forward"]
    children = sum(stats[n][1] for n in ("layers.conv_forward", "layers.maxpool_forward",
                                         "layers.dense_forward"))
    assert 0 <= self_s <= busy - children + 1e-9
    assert tracer.take()["network.forward"] == (0, 0.0, 0.0)


def test_idx_pair_is_big_endian_u8_and_parses(tmp_path):
    img, lbl = workloads.write_idx_pair(str(tmp_path), "t", 20, seed=3)
    head = Path(img).read_bytes()[:16]
    assert struct.unpack(">IIII", head) == (0x803, 20, 28, 28)
    assert Path(img).stat().st_size == 16 + 20 * 28 * 28
    assert struct.unpack(">II", Path(lbl).read_bytes()[:8]) == (0x801, 20)
    data = dataio.dataset_from_idx(img, lbl, class_count=10)
    assert len(data.images) == 20
    (tmp_path / "again").mkdir()
    again = workloads.write_idx_pair(str(tmp_path / "again"), "t", 20, seed=3)
    assert Path(again[0]).read_bytes() == Path(img).read_bytes()


class _TinyBars(workloads.BarsTrain):
    arch = nm.Architecture(ConvGeometry(8, 8, 1, 3, 3, 2), PoolGeometry(2, 2), (4, 2))
    n, held_out, epochs, batch_size = 6, 4, 2, 4


class _TinyMnist(workloads.MnistTrain):
    n, held_out, batch_size = 5, 3, 2


class _TinyGradcheck(workloads.Gradcheck):
    arch = nm.Architecture(ConvGeometry(8, 8, 1, 3, 3, 1), PoolGeometry(2, 2), (2, 2))
    params = workloads.param_count(arch)


def test_param_count_matches_the_network():
    for arch in (workloads.BarsTrain.arch, workloads.MnistTrain.arch, TINY):
        net = nm.init(arch, seed=0)
        arrays = [net.bank.kernels, net.bank.biases]
        arrays += [a for layer in net.dense for a in (layer.weights, layer.biases)]
        assert workloads.param_count(arch) == sum(a.size for a in arrays)
    assert workloads.Gradcheck.params == 1886


def test_implied_call_counts_match_a_traced_job(tmp_path):
    tracer = Tracer()
    for cls in (_TinyBars, _TinyMnist, _TinyGradcheck):
        wl = cls(7, str(tmp_path))
        with tracer:
            state = wl.setup()
            result = wl.op(state, 0)
        recorded = {name: s[0] for name, s in tracer.take().items()}
        expected = {name: wl.expected_calls().get(name, 0) for name in TRACED}
        assert recorded == expected, cls.__name__
        problems, _ = wl.verify(state, result, None)
        assert problems == []


def test_reference_factor_scales_by_the_surrounding_passes():
    ref = Reference(8, 3, 2, 4, reps=3, nominal_s=0.5)
    factor = ref.factor()
    before, after = ref.samples
    assert factor == 0.5 / ((before + after) / 2)
    assert ref.last == after


def test_result_lines_carry_the_declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run("--workload", "bars_train", "--seconds", "0", "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == [m["name"] for m in spec[key]]
        for m in spec[key]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_fails_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("--workload", "bars_train", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
