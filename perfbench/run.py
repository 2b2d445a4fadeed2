#!/usr/bin/env python3
"""End-to-end benchmark of the wildcycles CLI, one workload per run.

    python3 perfbench/run.py --workload milnor --seed 1 --seconds 35 --trace 0

Runs the CLI's own subcommands in-process through `wildcycles.cli.run`, one
job at a time with stdout captured, in as many whole rounds of a seeded job
list as fit in --seconds. Job times are scaled by the machine's speed of the
moment (see REFERENCE_S). After the timed rounds, every job's output is
checked against `oracle.py` and every round's output against the first.
The last line of stdout is one JSON object: end-to-end metrics with
--trace 0, per-layer metrics from `spans.py` with --trace 1.
`--workload all` runs every workload one after another and prints a table.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import jobs as joblists  # noqa: E402
import lane  # noqa: E402

LANES = {"milnor": "pure", "enumerate": "pure", "enumerate-c": "c"}
SETUP_PROBES = 6
# A fixed loop, timed before every job, tracks how fast this shared machine
# runs at the moment. Job times are scaled to a machine on which the loop
# takes REFERENCE_S, using the median of the loop's times in the same round.
REFERENCE_LOOP = 100_000
REFERENCE_S = 0.011
# job_s.tail is the order statistic with this many per-job times above it
TAIL_BEYOND = 10

PROBE = """\
import sys
sys.path[:0] = sys.argv[1:3]
import lane
lane.select(sys.argv[3], sys.argv[4] or None)
import wildcycles.cli
from wildcycles.backend import BACKEND_NAME
sys.exit(BACKEND_NAME != sys.argv[3])
"""


def setup_probes(lane_name: str, extension) -> list:
    """Wall times of fresh interpreters importing wildcycles.cli on the lane."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", PROBE, str(HERE), str(SRC), lane_name, str(extension or "")],
            capture_output=True,
            text=True,
        )
        times.append(time.perf_counter() - t0)
        if done.returncode != 0:
            raise SystemExit(f"set-up probe failed on the {lane_name} lane:\n{done.stderr[-2000:]}")
    return times


def reference_seconds() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOP):
        acc += i * i % 7
    return time.perf_counter() - t0


def run_job(cli, job):
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(list(job.argv))
    return time.perf_counter() - t0, rc, out.getvalue(), err.getvalue()


def comparable(out: str, drop_backend: bool = False) -> list:
    """Envelopes without their timestamps and, across lanes, without config.backend."""
    envs = []
    for line in out.splitlines():
        env = json.loads(line)
        del env["timestamp"]
        if drop_backend:
            env["config"].pop("backend", None)
        envs.append(env)
    return envs


def pure_lane_outputs(cli, job_list):
    """The same jobs with the pure kernels swapped in, for the lane check."""
    from wildcycles import _kernels_py, curves, dynsys

    saved = curves.kernels, dynsys.kernels
    curves.kernels = dynsys.kernels = _kernels_py
    try:
        return [run_job(cli, job)[2] for job in job_list]
    finally:
        curves.kernels, dynsys.kernels = saved


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    if not (SRC / "wildcycles" / "cli.py").exists():
        raise SystemExit(f"no wildcycles sources under {SRC}")
    lane_name = LANES[workload]
    extension = lane.build(ROOT) if lane_name == "c" else None
    # half the set-up probes before the timed rounds and half after them, so
    # that the median samples the machine over the whole run
    setup_times = [] if traced else setup_probes(lane_name, extension)

    lane.select(lane_name, str(extension) if extension else None)
    sys.path.insert(0, str(SRC))
    from wildcycles import cli
    from wildcycles.backend import BACKEND_NAME

    if BACKEND_NAME != lane_name:
        raise SystemExit(f"lane {BACKEND_NAME!r} loaded, {lane_name!r} forced")
    job_list = joblists.job_list(workload, seed)
    tracer = None
    if traced:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    rounds, round_walls, scales = [], [], []
    t_start = time.perf_counter()
    while True:
        refs, results = [], []
        for job in job_list:
            refs.append(reference_seconds())
            results.append(run_job(cli, job))
        rounds.append(results)
        scales.append(REFERENCE_S / statistics.median(refs))
        wall = time.perf_counter() - t_start
        round_walls.append(wall - sum(round_walls))
        # only whole rounds, and only those expected to end within --seconds
        if wall + statistics.median(round_walls) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not traced:
        setup_times += setup_probes(lane_name, extension)
    if tracer is not None:
        tracer.uninstall()

    # checks, outside the timed region and after peak memory was read
    import oracle

    correct, failed_jobs = True, 0
    for i, job in enumerate(job_list):
        _, rc, out, err = rounds[0][i]
        reason = f"exit {rc}: {err.strip()[:200]}" if rc != 0 else oracle.check(job, out)
        if reason is None and any(comparable(r[i][2]) != comparable(out) for r in rounds[1:]):
            reason = "output changed between rounds"
        if reason is not None:
            failed_jobs += 1
            if job.known_fault is None:
                correct = False
            print(f"FAILED {' '.join(job.argv)[:120]}: {reason}", file=sys.stderr)
    if lane_name == "c":
        for job, pure_out, (_, _, out, _) in zip(job_list, pure_lane_outputs(cli, job_list), rounds[0]):
            if comparable(pure_out, True) != comparable(out, True):
                correct = False
                print(f"LANES DIFFER {' '.join(job.argv)[:120]}", file=sys.stderr)

    n_rounds = len(rounds)
    (HERE / "out").mkdir(exist_ok=True)
    with open(HERE / "out" / f"times-{workload}-seed{seed}-trace{int(traced)}.json", "w") as fh:
        json.dump({"round_s": round_walls, "scale": scales, "job_s": [[r[i][0] for r in rounds] for i in range(len(job_list))],
                   "argv": [job.argv for job in job_list]}, fh)
    result = {
        "correct": correct,
        "attempted": n_rounds * len(job_list),
        "failed": n_rounds * failed_jobs,
    }
    if tracer is not None:
        from spans import layer_metrics

        output_bytes = sum(len(r[2].encode()) for rnd in rounds for r in rnd)
        metrics = layer_metrics(tracer, n_rounds, output_bytes)
        tracer.write(HERE / "out" / f"spans-{workload}-seed{seed}.jsonl")
        units = {"_s": "s", "_calls": "count", "_bytes": "bytes"}
        result["metrics"] = {
            k: {"value": v, "unit": next((u for s, u in units.items() if k.endswith(s)), "count")}
            for k, v in sorted(metrics.items())
        }
    else:
        # each job's median scaled time over the rounds
        per_job = sorted(
            statistics.median(rnd[i][0] * scale for rnd, scale in zip(rounds, scales)) for i in range(len(job_list))
        )
        passed_per_round = len(job_list) - failed_jobs
        result["metrics"] = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "jobs_per_s": {"value": passed_per_round / sum(per_job), "unit": "1/s"},
            "job_s.p50": {"value": statistics.median(per_job), "unit": "s"},
            "job_s.tail": {"value": per_job[len(per_job) - 1 - TAIL_BEYOND], "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(
        f"# {workload}: {len(job_list)} jobs x {n_rounds} rounds in {wall:.2f} s on the {lane_name} lane, seed {seed};"
        f" rounds took {' '.join(f'{w:.2f}' for w in round_walls)} s, scaled by {' '.join(f'{s:.3f}' for s in scales)}",
        file=sys.stderr,
    )
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(LANES) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        for workload in LANES:
            cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            done = subprocess.run(cmd, capture_output=True, text=True)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return done.returncode
            res = json.loads(done.stdout.splitlines()[-1])
            print(f"{workload}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
            for name, m in res["metrics"].items():
                print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
        return 0
    print(json.dumps(measure(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
