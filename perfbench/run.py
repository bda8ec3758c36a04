#!/usr/bin/env python3
"""convkit benchmark: times calls into convkit's public functions from
outside the library and checks every output.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads are defined in ``workloads.py``. One run is one process, one
thread and one caller in a closed loop: it builds the inputs from
``--seed``, sets up ``SETUP_REPS`` times, then sets up and runs one op
at a time until the next op would end after ``--seconds``. Every op is
verified; an op that raises or fails verification counts in ``failed``.

Every timed item is followed by a pass of a fixed reference loop, and
its time is calibrated by the references around it (``calibration.py``)
so that bursts of load from other tenants of the host cancel out.

``--trace 0`` reports the end-to-end metrics, medians over the run of
calibrated times:

* ``setup_s``: data generation or IDX parse plus ``network.init``.
* ``items_per_s``: training samples (epochs x n) per second of
  ``network.train`` on the ``*_train`` workloads, parameters checked per
  second of ``check_network`` on ``gradcheck``.
* ``job_s``: wall time of one op: train plus held-out evaluate (plus
  save and load on ``mnist_train``), or one ``check_network``.
* ``peak_rss_mb``: ``ru_maxrss`` of the process.

``--trace 1`` alternates an untraced op with a traced set-up plus op and
reports per-layer counters per traced job (set-up plus op): calls, busy
and self time of each traced function, computed multiply-accumulates and
bytes, and ``trace.overhead_frac``, the traced op's median calibrated
time over the untraced op's, minus one. The recorded call counts must
equal the counts the workload implies, so a missed wrapper fails the run.

The line before the result holds the environment, the outputs of the
first op, the median and spread within the run of each metric, raw and
calibrated, and, with tracing, the full per-function table. The last
line is the result: ``{"correct", "attempted", "failed", "metrics"}``,
with the metric names and units declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

import os
import sys

# One thread, fixed before numpy loads; no bytecode files in the checkout.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from calibration import Reference  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEFAULT_SEED = 42
SETUP_REPS = 5

# Functions whose times are reported on every workload: each workload
# calls all of them. The others report calls here and times in the table.
TIMED = (
    "layers.conv_forward",
    "layers.conv_backward",
    "layers.maxpool_forward",
    "layers.maxpool_backward",
    "layers.dense_forward",
    "layers.dense_backward",
    "tensor.matvec",
    "activations.apply",
    "activations.derivative",
    "losses.loss",
    "losses.ce_grad",
    "network.forward",
    "network.backward",
    "network.init",
)


def median_spread(values: list[float]) -> float | None:
    """Distance between the first and third quartile over the median."""
    if len(values) < 2:
        return None
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def git_rev() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted((SRC / "convkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_rev": git_rev(),
        "src_sha256": digest.hexdigest(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "seed": seed,
    }


def load_pins(workload: str, seed: int, env: dict) -> dict | None:
    """Pinned outputs, when this run's seed and environment are the pinned ones."""
    pins = json.loads((HERE / "pins.json").read_text())
    pinned_env = pins["env"]
    same_env = (env["numpy"] == pinned_env["numpy"]
                and env["python"].rsplit(".", 1)[0] == pinned_env["python"]
                and env["machine"] == pinned_env["machine"])
    if seed != pins["seed"] or not same_env:
        return None
    return pins[workload]


def attempt(fn):
    """Call fn; return (value, None) or (None, problem) if it raised."""
    try:
        return fn(), None
    except Exception as e:  # a raising op is a failed op, not a crash
        return None, f"{type(e).__name__}: {e}"


class Runner:
    def __init__(self, workload, pins):
        self.wl = workload
        self.pins = pins
        g = workload.arch.conv
        self.ref = Reference(g.in_h, g.k_h, g.n_kernels, workload.arch.dense_widths[0],
                             *workload.reference)
        self.attempted = 0
        self.failed_ops: set[int] = set()
        self.first_outputs = None

    def setup(self, reps: int = 1) -> tuple[object, list[float], list[float]]:
        """Set up ``reps`` times; return the last state, and the raw and the
        calibrated wall time of every set-up."""
        raw, calibrated = [], []
        for _ in range(reps):
            gc.collect()
            start = time.perf_counter()
            state = self.wl.setup()
            raw.append(time.perf_counter() - start)
            calibrated.append(raw[-1] * self.ref.factor())
        return state, raw, calibrated

    def op(self, state, tracer=None):
        """Run and verify one op; return its result, or None if it raised.

        A result that fails verification is still returned, for its times;
        the failure is counted. Its ``factor`` scales its wall times to
        calibrated ones.
        """
        index = self.attempted
        self.attempted += 1
        gc.collect()
        if tracer is None:
            result, problem = attempt(lambda: self.wl.op(state, index))
        else:
            with tracer:
                result, problem = attempt(lambda: self.wl.op(state, index))
        factor = self.ref.factor()
        problems = [problem] if problem else []
        if result is not None:
            result.factor = factor
            checked, problem = attempt(lambda: self.wl.verify(state, result, self.pins))
            if problem:
                problems.append(f"verification raised {problem}")
            else:
                problems += checked[0]
                if self.first_outputs is None:
                    self.first_outputs = checked[1]
        self.report(index, problems)
        return result

    def report(self, index: int, problems: list[str]) -> None:
        if problems:
            self.failed_ops.add(index)
            for p in problems:
                print(f"op {index} failed: {p}", file=sys.stderr)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def traced_job(self, tracer, expected: dict[str, int]):
        """Set up and run one op under the tracer; return (result, stats).

        The job fails if the recorded call counts differ from ``expected``.
        """
        with tracer:
            state, problem = attempt(self.wl.setup)
        if problem:
            self.attempted += 1
            self.report(self.attempted - 1, [f"traced set-up raised {problem}"])
            result = None
        else:
            result = self.op(state, tracer)
        stats = tracer.take()
        wrong = {name: (s[0], expected.get(name, 0)) for name, s in stats.items()
                 if s[0] != expected.get(name, 0)}
        if result is not None and wrong:
            self.report(self.attempted - 1, [f"call counts (recorded, implied) differ: {wrong}"])
        return result, stats


def summary(values: list[float]) -> dict:
    return {"median": statistics.median(values), "spread": median_spread(values)}


def run_untraced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    _, raw_setup, setup_s = runner.setup(SETUP_REPS)
    results = []
    deadline = time.perf_counter() + seconds
    last = 0.0
    while runner.attempted == 0 or time.perf_counter() + last <= deadline:
        start = time.perf_counter()
        state, raw, calibrated = runner.setup()
        raw_setup += raw
        setup_s += calibrated
        result = runner.op(state)
        if result is not None:
            results.append(result)
        last = time.perf_counter() - start
    if not results:
        raise RuntimeError("no op completed")
    items_per_s = [r.items / (r.main_s * r.factor) for r in results]
    job_s = [r.job_s * r.factor for r in results]
    metrics = {
        "setup_s": statistics.median(setup_s),
        "items_per_s": statistics.median(items_per_s),
        "job_s": statistics.median(job_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    within = {
        "ops": len(results),
        "setups": len(setup_s),
        "calibrated": {"setup_s": summary(setup_s), "items_per_s": summary(items_per_s),
                       "job_s": summary(job_s)},
        "raw": {"setup_s": summary(raw_setup),
                "items_per_s": summary([r.items / r.main_s for r in results]),
                "job_s": summary([r.job_s for r in results]),
                "reference_s": summary(runner.ref.samples)},
    }
    return metrics, within


def run_traced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    from tracer import TRACED, Tracer
    from workloads import work_counts

    wl = runner.wl
    tracer = Tracer()
    unbound = [name for name, n in tracer.bindings().items() if n == 0]
    if unbound:
        raise RuntimeError(f"no module binds {unbound}")
    state, _, _ = runner.setup()
    expected = wl.expected_calls()
    untraced_s, traced_s, jobs = [], [], []
    saved_bytes = 0
    deadline = time.perf_counter() + seconds
    last = 0.0
    while runner.attempted == 0 or time.perf_counter() + last <= deadline:
        start = time.perf_counter()
        result = runner.op(state)
        if result is not None:
            untraced_s.append(result.job_s * result.factor)
        result, stats = runner.traced_job(tracer, expected)
        if result is not None:
            traced_s.append(result.job_s * result.factor)
            saved_bytes = result.saved_bytes
            jobs.append(stats)
        last = time.perf_counter() - start
    if not jobs or not untraced_s:
        raise RuntimeError("no traced job completed")

    table = {}
    for name in TRACED:
        n_calls = jobs[0][name][0]
        busy = statistics.fmean(job[name][1] for job in jobs)
        self_s = statistics.fmean(job[name][2] for job in jobs)
        table[name] = {
            "calls": n_calls,
            "busy_s": busy,
            "self_s": self_s,
            "us_per_call": busy / n_calls * 1e6 if n_calls else 0.0,
        }
    metrics = {}
    for name in TRACED:
        metrics[f"{name}.calls"] = table[name]["calls"]
    for name in TIMED:
        for key in ("busy_s", "self_s", "us_per_call"):
            metrics[f"{name}.{key}"] = table[name][key]
    metrics.update(work_counts(wl.arch, *wl.passes()))
    metrics["network.save.bytes"] = saved_bytes * table["network.save"]["calls"]
    metrics["dataio.dataset_from_idx.bytes"] = wl.data_bytes
    overhead = statistics.median(traced_s) / statistics.median(untraced_s) - 1.0
    metrics["trace.overhead_frac"] = overhead
    return metrics, {"jobs": len(jobs), "table": table}


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "convkit" / "__init__.py").is_file():
        print(f"error: convkit sources not found under {SRC}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 1 << 63:
        print(f"error: seed must be in [0, 2**63), got {args.seed}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    declared = declared_metrics(bool(args.trace))
    env = environment(args.seed)
    pins = load_pins(args.workload, args.seed, env)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmpdir:
        runner = Runner(workloads.WORKLOADS[args.workload](args.seed, tmpdir), pins)
        if args.trace:
            metrics, details = run_traced(runner, args.seconds)
        else:
            metrics, details = run_untraced(runner, args.seconds)
    missing = sorted(set(declared) - set(metrics))
    if missing:
        print(f"error: no value for declared metrics {missing}", file=sys.stderr)
        return 1
    info = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "pinned": pins is not None,
        "outputs": runner.first_outputs,
        "within_run": details,
    }
    print(json.dumps(info))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
