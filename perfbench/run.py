"""Benchmark of pricelab: evaluate, price and Variance-Gamma, end to end and by layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

Run from the root of a checkout; the package is imported from its src/
directory. The last line of standard output is one JSON object with
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer metrics of a separate traced run. The
result and the trace's spans are also written under .perfbench_out/.
--smoke runs every workload at a tiny size, traced and untraced, with all
of its checks, and exits 0 only if they pass. See perfbench/README.md.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
# Set-ups per untraced run: this process's own and the rest in child processes.
SETUP_RUNS = 3
CHILD_TIMEOUT_S = 120
MIN_REPS = 3
# The timings are given for a host on which one reference.yardstick() takes
# this long, about its median on the machine of the README's tables. The
# yardstick is timed after every repetition, and each timing is scaled by
# YARDSTICK_S over the run's median yardstick time, so that the host's
# speed, which drifts by a third within half an hour there, cancels out.
YARDSTICK_S = 0.006
SETUP_YARDSTICKS = 20
LAYER_UNITS = {"calls": "count", "s": "s", "self_s": "s", "calls_per_quote": "count",
               "inverted_frac": "ratio", "converged": "ratio", "calls_per_calibration": "count"}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    # Set up one workload as a run does and print the seconds it took; a
    # run starts such child processes to time set-up more than once.
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if (args.setup_only or not args.smoke) and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    return args


def import_program():
    """Import pricelab from this checkout's src/ and nowhere else."""
    if not (SRC / "pricelab" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no pricelab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    # The benchmark passes the protocol seed itself.
    os.environ.pop("PRICELAB_SEED", None)
    import pricelab
    if SRC.resolve() not in Path(pricelab.__file__).resolve().parents:
        raise SystemExit(f"run.py: pricelab was imported from {pricelab.__file__}, not {SRC}")


class Measured:
    """Per-repetition wall and CPU seconds, per-layer metrics when traced,
    and the operations of all repetitions."""

    def __init__(self):
        self.walls, self.cpus, self.yardsticks, self.layers = [], [], [], []
        self.attempted = self.failed = 0
        self.priced = set()


def measure(workload, seconds: float, min_reps: int, tracer=None) -> Measured:
    """Repeat the timed body for the given seconds, checking every output."""
    m = Measured()
    started = time.perf_counter()
    while len(m.walls) < min_reps or time.perf_counter() - started < seconds:
        first = len(tracer) if tracer is not None else 0
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            output, error = workload.run(), None
        except Exception as exc:  # an escaped exception fails the repetition's operations
            output, error = None, exc
        wall1, cpu1 = time.perf_counter(), time.process_time()
        m.walls.append(wall1 - wall0)
        m.cpus.append(cpu1 - cpu0)
        m.yardsticks.append(time_yardstick())
        if tracer is not None:
            m.layers.append(tracer.layer_metrics(first, len(tracer)))
        if error is not None:
            traceback.print_exception(error, file=sys.stderr)
            counts = workload.failed_repetition()
        else:
            counts = workload.check(output)
        m.attempted += counts.attempted
        m.failed += counts.failed
        m.priced.add(counts.priced)
    return m


def time_yardstick() -> float:
    from reference import yardstick

    started = time.perf_counter()
    yardstick()
    return time.perf_counter() - started


def set_up(workload, seed: int, workdir: Path, import_s: float) -> float:
    """Build the inputs SETUP_REPEATS times and warm up once, checking the
    warm-up's output. Returns the import time, the median build time and the
    warm-up time, summed and scaled by the yardsticks timed after the warm-up."""
    generation = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        workload.setup(seed, workdir)
        generation.append(time.perf_counter() - started)
    started = time.perf_counter()
    output = workload.warm_up()
    warm_up_s = time.perf_counter() - started
    yardstick_s = median(time_yardstick() for _ in range(SETUP_YARDSTICKS))
    workload.first_check(output)
    print(f"set-up: inputs {median(generation):.3f}s (median of {SETUP_REPEATS}), "
          f"warm-up {warm_up_s:.3f}s, yardstick {yardstick_s:.5f}s", file=sys.stderr)
    return (import_s + median(generation) + warm_up_s) * YARDSTICK_S / yardstick_s


def child_set_ups(name: str, seed: int, smoke: bool, count: int) -> list[float]:
    """Set-up seconds of `count` fresh processes, one after another, each of
    which imports, builds the inputs and warms up as this one did."""
    from reference import CheckFailed

    argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
            "--setup-only"] + (["--smoke"] if smoke else [])
    times = []
    for _ in range(count):
        child = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False,
                               timeout=CHILD_TIMEOUT_S)
        if child.returncode != 0:
            raise CheckFailed(f"set-up in a child process failed:\n{child.stderr[-2000:]}")
        times.append(json.loads(child.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
                 import_s: float, smoke: bool = False) -> dict:
    import workloads
    from tracing import Tracer, median_metrics

    workload = workloads.make(name, smoke)
    setup_s = set_up(workload, seed, workdir, import_s)
    min_reps = 1 if smoke else MIN_REPS
    if not trace:
        set_ups = [setup_s] + child_set_ups(name, seed, smoke, 1 if smoke else SETUP_RUNS - 1)
        print("set-up: " + ", ".join(f"{t:.3f}s" for t in set_ups), file=sys.stderr)
        m = measure(workload, seconds, min_reps)
        if len(m.priced) != 1:
            raise workloads.CheckFailed(f"priced quotes changed between repetitions: {m.priced}")
        scale = YARDSTICK_S / median(m.yardsticks)
        print(f"measured, unscaled: wall {median(m.walls):.4f}s, cpu {median(m.cpus):.4f}s, "
              f"yardstick {median(m.yardsticks):.5f}s", file=sys.stderr)
        metrics = {
            "wall_s": (median(m.walls) * scale, "s"),
            "cpu_s": (median(m.cpus) * scale, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "setup_s": (median(set_ups), "s"),
            "priced_quotes": (float(m.priced.pop()), "count"),
        }
        attempted, failed = m.attempted, m.failed
    else:
        plain = measure(workload, seconds / 2.0, min_reps)
        tracer = Tracer()
        tracer.install()
        try:
            traced = measure(workload, seconds / 2.0, min_reps, tracer)
        finally:
            tracer.uninstall()
        metrics = {key: (value, LAYER_UNITS[key.rsplit(".", 1)[1]])
                   for key, value in median_metrics(traced.layers).items()}
        metrics["trace.overhead_s"] = (median(traced.walls) - median(plain.walls), "s")
        metrics["host.yardstick_s"] = (median(plain.yardsticks), "s")
        tracer.write(OUT / f"spans-{name}-seed{seed}.csv")
        attempted, failed = plain.attempted + traced.attempted, plain.failed + traced.failed
    return {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }


def smoke(import_s: float) -> int:
    import workloads

    for name in workloads.WORKLOADS:
        for trace in (False, True):
            workdir = Path(tempfile.mkdtemp(prefix="smoke-", dir=OUT))
            try:
                started = time.perf_counter()
                result = run_workload(name, 7, 0.0, trace, workdir, import_s, smoke=True)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            print(f"smoke {name} trace={int(trace)}: ok, {result['attempted']} operations, "
                  f"{result['failed']} failed, {len(result['metrics'])} metrics, "
                  f"{time.perf_counter() - started:.1f}s", flush=True)
    return 0


def setup_only(name: str, seed: int, smoke: bool, import_s: float) -> int:
    import workloads

    workdir = Path(tempfile.mkdtemp(prefix=f"setup-{name}-", dir=OUT))
    try:
        setup_s = set_up(workloads.make(name, smoke), seed, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": setup_s}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    sys.path.insert(0, str(HERE))
    import tracing  # noqa: F401
    import workloads  # noqa: F401
    from reference import CheckFailed, self_check

    import_s = time.perf_counter() - _STARTED
    print(f"set-up: imports {import_s:.3f}s", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    if args.setup_only:
        return setup_only(args.workload, args.seed, args.smoke, import_s)
    if args.smoke:
        try:
            self_check()
            return smoke(import_s)
        except CheckFailed as exc:
            print(f"smoke: check failed: {exc}", file=sys.stderr)
            return 1
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        # The reference pricers are checked before any timing, outside set-up.
        self_check()
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), workdir,
                              import_s)
    except CheckFailed as exc:
        print(f"run.py: check failed: {exc}", file=sys.stderr)
        result, status = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}, 1
    else:
        status = 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
