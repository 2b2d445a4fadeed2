"""The jobs of the `milnor` benchmark, run through the CLI and checked by the
benchmark's own oracle, which takes Milnor numbers from closed forms or from
sympy without importing wildcycles. perfbench/jobs.py and perfbench/oracle.py
are loaded from their files and not changed."""

import importlib.util
import sys
from pathlib import Path

import pytest

from wildcycles import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look up their module
    spec.loader.exec_module(module)
    return module


jobs = load("jobs")
oracle = load("oracle")


@pytest.mark.parametrize("seed", range(1, 6))
def test_benchmark_milnor_jobs_pass_the_oracle(capsys, seed):
    milnor = jobs.job_list("milnor", seed)
    assert len(milnor) == 40 and {job.kind for job in milnor} == {"milnor"}
    for job in milnor:
        assert cli.run(list(job.argv)) == 0, job.argv
        assert oracle.check(job, capsys.readouterr().out) is None, job.argv
    # the one job the benchmark still marks as a known fault passes too:
    # the local dimension has no truncation bound, so A_22 reads mu = 22
    (faulty,) = [job for job in milnor if job.known_fault]
    assert faulty.known_fault == jobs.A22_FAULT and faulty.spec["family"] == ("A", 22)
