"""The curve, orbit and Collatz jobs of the `enumerate` benchmark, run
through the CLI and checked by the benchmark's own oracle, which counts
points, walks orbits and checks the parity bijection without importing
wildcycles. perfbench/jobs.py and perfbench/oracle.py are loaded from their
files and not changed."""

from collections import Counter

import pytest

from helpers import perfbench
from wildcycles import cli

jobs = perfbench("jobs")
oracle = perfbench("oracle")

KINDS = {"curve-count": 6, "curve-sweep": 2, "orbits": 6, "collatz-bijection": 7}


@pytest.mark.parametrize("seed", range(1, 3))
def test_benchmark_enumerate_jobs_pass_the_oracle(capsys, seed):
    enumerate_jobs = [job for job in jobs.job_list("enumerate", seed) if job.kind in KINDS]
    assert Counter(job.kind for job in enumerate_jobs) == KINDS
    for job in enumerate_jobs:
        assert cli.run(list(job.argv)) == 0, job.argv
        assert oracle.check(job, capsys.readouterr().out) is None, job.argv
