"""The benchmark's workloads still run against the package's API.

Every unit of every workload in ``perfbench/workloads.py`` runs once at one
generation, the size of the benchmark's untimed warm-up. A unit that raised
(a renamed entry point, a removed option) reports a problem starting with
"raised"; a failed quality check at one generation is expected and allowed.
"""

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
