"""The inertia jobs of the `enumerate` benchmark, run through the CLI and
checked by the benchmark's own oracle, which counts vanishing coefficients
without importing wildcycles. perfbench/jobs.py and perfbench/oracle.py are
loaded from their files and not changed."""

import pytest

from helpers import perfbench
from wildcycles import cli

jobs = perfbench("jobs")
oracle = perfbench("oracle")


@pytest.mark.parametrize("seed", range(1, 6))
def test_benchmark_inertia_jobs_pass_the_oracle(capsys, seed):
    inertia = [job for job in jobs.job_list("enumerate", seed) if job.kind == "inertia"]
    assert len(inertia) == 19
    for job in inertia:
        assert cli.run(list(job.argv)) == 0, job.argv
        assert oracle.check_inertia(job.spec, capsys.readouterr().out) is None, job.argv
