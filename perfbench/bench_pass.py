"""One timed pass of a benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per pass with ``PYTHONPATH`` pointing
at the checkout's ``src`` and the pass's own cache root.  The pass
imports the harness, prepares the cache root, then times the public
harness path from the first harness call to the last validated figure
or summary row, and writes what it measured and what the program
produced (per-point SimStats digests, failures, oracle violations, job
keys) as JSON to ``--out``.  With ``--probe`` it stops once set-up is
done; with ``--trace`` it wraps every layer boundary first (``layers.py``).
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import functools
import hashlib
import json
import random
import resource
import sys
import time
from pathlib import Path

#: Worker processes per campaign: the host this benchmark targets has 2
#: cores, and every workload runs from one process with 2 workers.
WORKERS = 2

#: Per-job timeout; a healthy fig5a or stress job takes well under 2 s.
JOB_TIMEOUT_S = 60.0


def stats_digest(stats) -> str:
    """Content digest of a SimStats, independent of dict and enum types."""

    def plain(value):
        if dataclasses.is_dataclass(value):
            return {
                f.name: plain(getattr(value, f.name))
                for f in dataclasses.fields(value)
            }
        if isinstance(value, dict):
            return sorted([str(k), plain(v)] for k, v in value.items())
        if isinstance(value, (list, tuple)):
            return [plain(v) for v in value]
        if isinstance(value, enum.Enum):
            return str(value)
        return value

    blob = json.dumps(plain(stats), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN gives the largest
    # waited-for worker.
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024


def _fig5a(seed, cache):
    from repro.harness import experiment, figures

    # fig5_speedups takes no seed: bind the benchmark's seed into the
    # run_app calls it makes, so the figure reads the campaign's memo
    # entries instead of simulating the default-seed points again.
    experiment.run_app = functools.partial(experiment.run_app, seed=seed)
    jobs = [
        dataclasses.replace(job, seed=seed)
        for job in figures.figure_points("fig5a")
    ]
    result = experiment.run_points(
        jobs, workers=WORKERS, cache=cache, timeout=JOB_TIMEOUT_S
    )
    rows = figures.fig5_speedups(2)
    return result, rows


def _stress(seed, cache, engine, suite_path):
    from repro.harness import experiment, results
    from repro.workloads.suites import expand_suite_jobs, load_suite

    # The suite runs with the workload seeds it pins: re-seeding its
    # request-stream scenarios trips an oracle violation (see README.md,
    # "Known defect").  The benchmark seed orders the campaign's jobs.
    jobs = expand_suite_jobs(load_suite(suite_path), default_engine=engine)
    random.Random(seed).shuffle(jobs)
    result = experiment.run_points(
        jobs, workers=WORKERS, cache=cache, timeout=JOB_TIMEOUT_S
    )
    return result, results.summarize_campaign(result)


def _figure_problems(result, rows) -> list[str]:
    """Figure rows must be the campaign's cycles, divided as the paper does."""
    cycles = {
        (o.job.app, o.job.config.name): o.payload.stats.cycles
        for o in result.outcomes if o.ok
    }
    problems = []
    for row in rows[:-1]:  # the last row is the geomean
        for config, speedup in row.items():
            if config == "app":
                continue
            base = cycles.get((row["app"], "Base"))
            other = cycles.get((row["app"], config))
            if base is None or other is None or speedup != base / other:
                problems.append(f"figure row {row['app']}/{config}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--suite", choices=("fig5a", "stress"),
                        required=True)
    parser.add_argument("--engine", choices=("fast", "reference"),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache-root", type=Path, required=True)
    parser.add_argument("--suite-file", type=Path, required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() when run.py started us")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--trace-dir", type=Path)
    args = parser.parse_args(argv)

    from repro.harness import campaign, experiment, figures, results  # noqa: F401
    from repro.workloads import suites  # noqa: F401

    args.cache_root.mkdir(parents=True, exist_ok=True)
    cache = campaign.ResultCache(args.cache_root)
    experiment.set_default_engine(args.engine)
    tracer = None
    if args.trace_dir is not None:
        import layers

        tracer = layers.Tracer(args.trace_dir)
        layers.install(tracer)
    ready = time.monotonic()
    record = {"setup_s": ready - args.spawned}
    if args.probe:
        args.out.write_text(json.dumps(record))
        return 0

    cpu0 = _cpu_s()
    start = time.monotonic()
    if args.suite == "fig5a":
        result, rows = _fig5a(args.seed, cache)
    else:
        result, rows = _stress(args.seed, cache, args.engine,
                               args.suite_file)
    wall = time.monotonic() - start
    cpu = _cpu_s() - cpu0

    problems = [
        f"{campaign.job_label(o.job)}: {o.status} {o.error}"
        for o in result.outcomes if not o.ok
    ]
    problems += [f"oracle {v}" for v in result.validation_failures]
    if args.suite == "fig5a":
        problems += _figure_problems(result, rows)
    record.update({
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": _peak_rss_mb(),
        "fingerprint": campaign.code_fingerprint(),
        "jobs": len(result.outcomes),
        "keys": sorted(o.key for o in result.outcomes),
        "digests": {
            campaign.job_label(o.job): stats_digest(o.payload.stats)
            for o in result.outcomes if o.ok
        },
        "problems": problems,
    })
    if tracer is not None:
        record["layers"] = layers.layer_metrics(tracer, result, WORKERS)
    args.out.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
