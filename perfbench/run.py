"""Benchmark of shapeforms: one workload per run, end to end or traced.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload roundtrip-20k --seed 0 --seconds 20 --trace 0

The command re-runs itself as a child process whose environment pins
OpenBLAS, OpenMP and MKL to one thread before numpy is imported, so each
workload runs in its own fresh single-threaded process. The child imports
shapeforms from ``src/`` of the checkout, generates the inputs from the
seed, runs one warm-up preparation and operation, and then whole rounds
of the workload's operations, each followed by preparations of its
references, until ``--seconds`` have passed, checking every output. Every
step and preparation is followed by the calibration kernel of
``hostspeed.py``, by which the reported times are scaled. The workload names and the metrics with their units come from
``BENCHMARK.json``. The last line of standard output is the result as JSON;
``perfbench/out/`` receives the same result and, with ``--trace 1``, the
spans.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPEC = HERE.parent / "BENCHMARK.json"
OUT = HERE / "out"
#: The child's environment: one BLAS/OpenMP thread, and no transparent huge
#: pages requested by numpy, whose grant depends on the host's free memory
#: and made the peak resident memory of identical runs differ by 15 %.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "NUMPY_MADVISE_HUGEPAGE": "0"}
CHILD_TIMEOUT_S = 175


def load_spec():
    """``BENCHMARK.json``: the workload names and the metrics, with units."""
    return json.loads(SPEC.read_text(encoding="utf-8"))


def parse_args(argv, spec):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def spawn_child(argv):
    env = dict(os.environ, **CHILD_ENV)
    try:
        return subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--child", *argv], env=env,
                              timeout=CHILD_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"error: workload ran longer than {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1


def prepare_batch(workload, speed):
    """``SETUP_BATCH`` preparations of the workload's references, each
    followed by its share of calibration; returns their wall times."""
    walls = []
    for _ in range(workload.SETUP_BATCH):
        start = time.perf_counter()
        workload.prepare()
        walls.append(time.perf_counter() - start)
        speed.follow(walls[-1])
    return walls


def run_step(t, step, op_id, speed):
    """Run one step, then its share of calibration, then its check; return
    its wall time and whether it failed."""
    t.op_id = op_id
    with t.span("bench.operation" if step.operation else "bench.step",
                label=step.label):
        start = time.perf_counter()
        failed, check = step.fn()
        elapsed = time.perf_counter() - start
    t.op_id = None
    speed.follow(elapsed)
    if check is not None:
        check()
    return elapsed, failed


def measure(workload, seconds, t, speed):
    """One warm-up preparation and operation, then whole rounds for
    ``seconds``, each followed by ``SETUP_BATCH`` preparations.

    Every step and preparation is followed by the calibration kernel of
    :mod:`hostspeed` for a fixed share of its duration. A time metric is
    the mean measured time (of a preparation, a round, or each operation
    over the rounds) scaled by the kernel's mean duration, so it reads in
    seconds at the reference machine's speed: the host's changes of speed
    slow the kernel and the workload alike and cancel in the ratio. Peak
    memory is read after the first round and its preparations: later
    rounds repeat the same work but fragment the heap, so a peak read at
    the end would grow with the number of rounds a run happens to fit.
    """
    t.op_id = "setup"
    workload.prepare()
    speed.kernel()
    steps = workload.steps()
    for step in steps:
        run_step(t, step, "warmup", speed)
        if step.operation:
            break

    before = dict(t.counts)
    round_counts = None
    walls = [[] for _ in steps]
    setups = []
    peak_mb = None
    attempted = failed = 0
    start = time.perf_counter()
    while not walls[0] or time.perf_counter() - start < seconds:
        r = len(walls[0])
        for i, step in enumerate(steps):
            elapsed, step_failed = run_step(t, step, f"round{r}.{i}", speed)
            walls[i].append(elapsed)
            if step.operation:
                attempted += 1
                failed += int(step_failed)
        if round_counts is None and t.enabled:
            round_counts = {k: v - before[k] for k, v in t.counts.items()}
        t.op_id = "setup"
        setups += prepare_batch(workload, speed)
        t.op_id = None
        if peak_mb is None:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scale = speed.scale()
    step_means = [statistics.fmean(w) for w in walls]
    rounds = len(walls[0])
    return {
        "setup_s": scale * statistics.fmean(setups),
        "run_s": scale * sum(step_means),
        "op_p50_s": scale * statistics.median(
            m for m, step in zip(step_means, steps) if step.operation),
        "mean_round_s": sum(step_means),
        "kernel_ms": 1e3 * statistics.fmean(speed.samples),
        "peak_rss_mb": peak_mb,
        "rounds": rounds,
        "ops_per_round": attempted // rounds,
        "attempted": attempted,
        "failed": failed,
        "round_counts": round_counts,
    }


def child(args, spec):
    if not (SRC / "shapeforms" / "__init__.py").is_file():
        print(f"error: shapeforms sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks
    import hostspeed
    import tracer
    import workloads

    t = tracer.Tracer() if args.trace else tracer.NullTracer()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir, t)
        speed = hostspeed.HostSpeed()
        m = measure(workload, args.seconds, t, speed)
        if args.trace:
            workloads.probe_layers(t, workload.kit(), workdir, speed)
            t.write(OUT / f"trace-{tag}.json")
    except checks.CheckError as exc:
        print(f"error: check failed in {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = tracer.per_layer_metrics(t, spec["per_layer"], m["round_counts"],
                                           m["run_s"], m["ops_per_round"],
                                           speed.scale())
    else:
        metrics = {e["name"]: {"value": m[e["name"]], "unit": e["unit"]}
                   for e in spec["end_to_end"]}
    result = {"correct": True, "attempted": m["attempted"], "failed": m["failed"],
              "metrics": metrics}
    print(f"{args.workload}: {m['rounds']} rounds of {m['ops_per_round']} "
          f"operations, {m['failed']} of {m['attempted']} failed, mean round "
          f"{m['mean_round_s']:.3f} s, calibration kernel {m['kernel_ms']:.2f} ms",
          file=sys.stderr)
    line = json.dumps(result)
    (OUT / f"result-{tag}.json").write_text(line + "\n", encoding="utf-8")
    print(line)
    return 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    spec = load_spec()
    args = parse_args(argv, spec)
    if not args.child:
        return spawn_child(argv)
    return child(args, spec)


if __name__ == "__main__":
    sys.exit(main())
