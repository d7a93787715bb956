"""Benchmark of the aded package, end to end and layer by layer.

    python3 perfbench/run.py --workload aded-refine --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
A workload is a few units, each one seeded run; one repetition runs every
unit once. Each run first makes every unit once, untimed, at one
generation. With ``--trace 0`` it then runs the units in turn, round after
round, until the sum of their times is as near ``--seconds`` as whole units
allow (at least one full repetition), and reports the seconds of one
repetition as the sum over units of each unit's mean time. Between units it times fresh interpreters
until ``import aded`` returns, so set-up samples are spread over the run.
With ``--trace 1`` it runs every unit once plain and once under the layer
tracer, which must agree exactly, and reports the per-layer metrics. Every
timed run is checked, and runs of the same seed must agree exactly; a run
that raises or fails its check counts as failed and the benchmark carries
on.

Standard error gets a readable report: every metric with its unit, the
verdict and each failure. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it holds the host and provenance record. ``attempted`` counts the
checked runs.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench-work"
SETUP_SAMPLES = 5
WARMUP_GENERATIONS = 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True, help="base seed of the workload")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_sample() -> float:
    """Seconds, in a fresh interpreter, until ``import aded`` returns."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import aded"], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - start


class Sample:
    """One timed run of one unit."""

    def __init__(self, index: int, unit, seed: int):
        wall, cpu = time.perf_counter(), time.process_time()
        self.outcome = unit(seed, WORK_DIR)
        self.wall = time.perf_counter() - wall
        self.cpu = time.process_time() - cpu
        self.index = index


def timed_rounds(units, seed: int, seconds: float, setup: list) -> list:
    """Run the units in turn while one more is expected to end nearer to
    ``seconds`` (in the sum of their times) than stopping now; always at
    least one full repetition. After each unit, one set-up sample is taken
    until there are ``SETUP_SAMPLES``."""
    samples, spent = [], 0.0
    while True:
        index = len(samples) % len(units)
        if len(samples) >= len(units):
            expected = statistics.fmean(s.wall for s in samples if s.index == index)
            if spent + expected / 2 > seconds:
                break
        samples.append(Sample(index, units[index], seed))
        spent += samples[-1].wall
        if len(setup) < SETUP_SAMPLES:
            setup.append(setup_sample())
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample())
    return samples


def per_repetition(samples, field: str) -> float:
    """Sum over units of the unit's mean ``field``: one repetition's worth."""
    by_unit = {}
    for s in samples:
        by_unit.setdefault(s.index, []).append(getattr(s, field))
    return sum(statistics.fmean(values) for values in by_unit.values())


def check_determinism(samples) -> None:
    """Fail every run whose result differs from the first run of its seed."""
    first = {}
    for o in (s.outcome for s in samples):
        if o.fingerprint is None:
            continue
        reference = first.setdefault((o.label, o.seed), o.fingerprint)
        if o.problem is None and o.fingerprint != reference:
            o.problem = "result differs from an earlier run of the same seed"


def read_loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def blas_threads() -> dict:
    """Thread count of every OpenBLAS library mapped into this process."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return {}
    found = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        found[Path(path).name] = None
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "scipy_openblas_get_num_threads64_"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype, getter.argtypes = ctypes.c_int, []
                found[Path(path).name] = getter()
                break
    return found


def git_sha():
    """Commit of the checkout, read from .git without running git; None
    when the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def host_record(loadavg_before) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_sha": git_sha(),
        "loadavg_before": loadavg_before,
        "loadavg_after": read_loadavg(),
    }


def declared_metrics(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "aded" / "__init__.py").is_file():
        sys.exit(f"perfbench: no aded package under {SRC}; run from the root of a checkout")
    loadavg_before = read_loadavg()

    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import aded
    from layertrace import Tracer
    from workloads import WORKLOADS

    if Path(aded.__file__).resolve().parent != SRC / "aded":
        sys.exit(f"perfbench: imported aded from {aded.__file__}, not from {SRC}")
    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {list(WORKLOADS)}")
    units = WORKLOADS[args.workload]

    setup = []
    try:
        for unit in units:             # untimed warm-up; the timed runs are checked
            unit(args.seed, WORK_DIR, max_generations=WARMUP_GENERATIONS)
        if args.trace:
            # each unit plain and then traced, so that the pair sees the
            # same host and trace_overhead_s compares like with like
            tracer, plain, traced = Tracer(), [], []
            for index, unit in enumerate(units):
                plain.append(Sample(index, unit, args.seed))
                with tracer:
                    traced.append(Sample(index, unit, args.seed))
            samples = plain + traced
        else:
            samples = timed_rounds(units, args.seed, args.seconds, setup)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)

    check_determinism(samples)
    outcomes = [s.outcome for s in samples]
    failed = sum(o.problem is not None for o in outcomes)
    first_round = samples[:len(units)]
    if args.trace:
        values = tracer.metrics()
        values["trace_overhead_s"] = (sum(s.wall for s in traced) - sum(s.wall for s in plain),
                                      "s")
    else:
        values = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (per_repetition(samples, "wall"), "s"),
            "cpu_s": (per_repetition(samples, "cpu"), "s"),
            "evals": (sum(s.outcome.evals for s in first_round), "count"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "pass_frac": ((len(outcomes) - failed) / len(outcomes), "fraction"),
        }
    declared = declared_metrics(args.trace)
    emitted = {name: unit for name, (_, unit) in values.items()}
    if emitted != declared:
        sys.exit(f"perfbench: metrics {sorted(emitted.items())} do not match "
                 f"BENCHMARK.json {sorted(declared.items())}")

    host = host_record(loadavg_before)
    verdict = "correct" if failed == 0 else "NOT correct"
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: {verdict}, "
          f"{len(outcomes)} checked runs of {len(units)} units, "
          f"{failed} failed", file=sys.stderr)
    for name, (value, unit) in values.items():
        print(f"  {name:<48} {value:>16.6g} {unit}", file=sys.stderr)
    for o in outcomes:
        if o.problem is not None:
            print(f"  FAILED {o.label} seed {o.seed}: {o.problem}", file=sys.stderr)
    if args.trace:
        for hook in tracer.absent:
            print(f"  absent hook: {hook}", file=sys.stderr)
        calls = values["benchmarks.evaluate.calls"][0]
        evals = sum(s.outcome.evals for s in traced)
        print(f"  trace check: benchmarks.evaluate.calls {calls} "
              f"{'==' if calls == evals else '!='} evals {evals}", file=sys.stderr)

    print(json.dumps({"host": host}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
