"""The benchmark's workloads still run against the package's API.

Every unit of every workload in ``perfbench/workloads.py`` runs once at one
generation, the size of the benchmark's untimed warm-up. A unit that raised
(a renamed entry point, a removed option) reports a problem starting with
"raised"; a failed quality check at one generation is expected and allowed.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = load_workloads()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_unit_runs_at_one_generation(workload, tmp_path):
    for i, unit in enumerate(WORKLOADS[workload]):
        work_dir = tmp_path / str(i)
        work_dir.mkdir()
        outcome = unit(0, work_dir, max_generations=1)
        assert outcome.problem is None or not outcome.problem.startswith("raised"), (
            f"{workload} unit {i}: {outcome.problem}")


# Each unit's run at three generations on seed 0: its evaluations and the
# first 16 hex digits of the SHA-256 of ``repr(Outcome.fingerprint)``. A
# change that moves one value or one evaluation of the benchmark's own runs
# moves one of these.
PINNED_RUNS = {
    "aded-refine": [(36019, "f4670488a6600c98"), (44908, "ba9c3f5c08a5b909"),
                    (37053, "1317f9d509348f5d")],
    "generation-loop": [(1200, "0e65f08300a50a92"), (1200, "d8aa5adfbd6dbd5e"),
                        (1200, "97b05c507c042f59")],
    "moo-zdt1": [(4640, "7ba6f25b6f0b74a8"), (5408, "babd488fcce3c928"),
                 (6434, "0b3f6a17f1d8df45")],
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_unit_repeats_its_pinned_run(workload, tmp_path):
    runs = []
    for i, unit in enumerate(WORKLOADS[workload]):
        work_dir = tmp_path / str(i)
        work_dir.mkdir()
        outcome = unit(0, work_dir, max_generations=3)
        digest = hashlib.sha256(repr(outcome.fingerprint).encode()).hexdigest()[:16]
        runs.append((outcome.evals, digest))
    assert runs == PINNED_RUNS[workload]
