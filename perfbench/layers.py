"""Span tracer for the benchmark's traced pass.

The traced pass wraps the public functions each layer of the simulator
exposes (workload builds, lint, job keying, the result cache, campaign
dispatch, engine construction and run, power, the oracle, figure rows)
with :func:`functools.wraps` wrappers that record one span per call:
name, layer, start, end and the enclosing span.  Nothing inside the
program changes; ``job_key`` hashes the runner's qualified name, and the
wrapped runner keeps it, so traced and untraced passes hit the same keys.

Forked campaign workers record their own spans under the wrapped runner
and write them to ``spans_dir`` before the runner returns, because a
forked worker exits without running the parent's clean-up.  Timestamps
come from ``time.monotonic`` (CLOCK_MONOTONIC on Linux), which every
process of the host shares, so worker spans line up with parent spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import time
from collections import Counter, defaultdict
from multiprocessing.reduction import ForkingPickler
from pathlib import Path

_NAME, _LAYER, _START, _END, _PARENT = range(5)

#: Count-key prefix naming one distinct (app, threads, scale, seed) build.
_WORKLOAD = "workload:"


class Tracer:
    """In-memory span recorder for one process (see the module docstring)."""

    def __init__(self, spans_dir: Path) -> None:
        self.spans_dir = Path(spans_dir)
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def _call(self, fn, name, layer, args, kwargs):
        parent = self.stack[-1] if self.stack else -1
        span = [name, layer, time.monotonic(), None, parent]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[_END] = time.monotonic()
            self.stack.pop()

    def wrap(self, owner, attr: str, layer: str, after=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        *after*, when given, is called as
        ``after(counts, args, kwargs, result)``
        to record counts at the same boundary.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self._call(fn, attr, layer, args, kwargs)
            if after is not None:
                after(self.counts, args, kwargs, result)
            return result

        setattr(owner, attr, traced)

    def wrap_runner(self, owner, attr: str) -> None:
        """Wrap the campaign runner ``owner.attr(job, seed)``.

        The runner's spans and counts go to their own file under
        ``spans_dir``, written before the runner returns, and never into
        the calling process's lists.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(job, seed):
            outer = (self.spans, self.stack, self.counts)
            self.spans, self.stack, self.counts = [], [], Counter()
            try:
                payload = self._call(fn, attr, "worker", (job, seed), {})
                self.counts["payload_bytes"] += len(
                    ForkingPickler.dumps(payload)
                )
                self.counts["sim_cycles"] += payload.stats.cycles
                self.counts["committed_insts"] += (
                    payload.stats.committed_thread_insts
                )
                return payload
            finally:
                self.spans_dir.mkdir(parents=True, exist_ok=True)
                path = self.spans_dir / f"{os.getpid()}-{seed}.json"
                path.write_text(json.dumps({
                    "seed": seed, "spans": self.spans,
                    "counts": dict(self.counts),
                }))
                self.spans, self.stack, self.counts = outer

        setattr(owner, attr, traced)

    def worker_records(self) -> list[dict]:
        return [
            json.loads(path.read_text())
            for path in sorted(self.spans_dir.glob("*.json"))
        ]


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark attributes time to."""
    from repro.analysis import redundancy
    from repro.harness import campaign, experiment, figures, results
    from repro.pipeline.fast import FastSMTCore
    from repro.pipeline.smt import SMTCore
    from repro.workloads import engine as workload_engine

    build_signature = inspect.signature(experiment.build_point)

    def count_build(counts, args, kwargs, result):
        bound = build_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        counts["builds"] += 1
        counts[_WORKLOAD + repr(tuple(bound.arguments.values()))] += 1

    def count_lint(counts, args, kwargs, fresh):
        counts["lint_programs"] += fresh

    def count_load(counts, args, kwargs, entry):
        cache, key = args
        if entry is None:
            counts["cache_misses"] += 1
        else:
            counts["cache_hits"] += 1
            counts["cache_read_bytes"] += cache.path_for(key).stat().st_size

    def count_store(counts, args, kwargs, path):
        counts["cache_write_bytes"] += path.stat().st_size

    tracer.wrap(experiment, "build_point", "workloads", after=count_build)
    tracer.wrap(experiment, "lint_campaign_jobs", "lint", after=count_lint)
    tracer.wrap(campaign, "job_key", "keying")
    tracer.wrap(campaign.ResultCache, "load", "cache.load", after=count_load)
    tracer.wrap(campaign.ResultCache, "store", "cache.store",
                after=count_store)
    tracer.wrap(experiment, "run_campaign", "dispatch")
    tracer.wrap_runner(experiment, "simulate_job")
    for core in (SMTCore, FastSMTCore):
        tracer.wrap(core, "__init__", "pipeline.construct")
        tracer.wrap(core, "run", "pipeline.run")
    tracer.wrap(experiment, "energy_of_run", "power")
    tracer.wrap(experiment, "oracle_for_run", "oracle")
    tracer.wrap(redundancy, "analyze_build", "oracle")
    tracer.wrap(redundancy, "analyze_limit_build", "oracle")
    tracer.wrap(workload_engine, "analyze_engine_build", "oracle")
    tracer.wrap(redundancy.OracleReport, "validate_against", "oracle.validate")
    tracer.wrap(figures, "fig5_speedups", "figure")
    tracer.wrap(results, "summarize_campaign", "figure")


def _self_times(spans: list[list]) -> dict[str, float]:
    """Per-layer self time: each span's duration minus its children's."""
    self_time = [span[_END] - span[_START] for span in spans]
    for span in spans:
        if span[_PARENT] >= 0:
            self_time[span[_PARENT]] -= span[_END] - span[_START]
    totals: dict[str, float] = defaultdict(float)
    for span, value in zip(spans, self_time):
        totals[span[_LAYER]] += value
    return totals


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[
        int(q * 100) - 1
    ]


def layer_metrics(tracer: Tracer, result, workers: int) -> dict[str, float]:
    """Reduce the parent's and the workers' spans to the per-layer metrics.

    *result* is the pass's :class:`CampaignResult`; dispatch metrics
    combine what the parent observed per job with what the worker
    measured inside the runner, matched by the per-job seed.
    """
    records = tracer.worker_records()
    layer_s: dict[str, float] = defaultdict(float)
    counts: Counter = Counter(tracer.counts)
    for spans in [tracer.spans] + [r["spans"] for r in records]:
        for layer, value in _self_times(spans).items():
            layer_s[layer] += value
    for record in records:
        counts.update(record["counts"])
    analyses = sum(
        1 for span in tracer.spans
        if span[_NAME].startswith("analyze_") and span[_PARENT] >= 0
        and tracer.spans[span[_PARENT]][_NAME] == "oracle_for_run"
    )
    workloads = sum(1 for key in counts if key.startswith(_WORKLOAD))

    # Dispatch: phase 2 of run_campaign starts once phase 1 has keyed and
    # looked up every job, i.e. at the end of the parent's last cache load.
    loads = [s[_END] for s in tracer.spans if s[_LAYER] == "cache.load"]
    campaigns = [s for s in tracer.spans if s[_NAME] == "run_campaign"]
    phase2_start = max(loads) if loads else campaigns[0][_START]
    phase2_wall = campaigns[-1][_END] - phase2_start
    runner = {}
    for record in records:
        span = record["spans"][0]
        runner[record["seed"]] = (span[_START], span[_END] - span[_START])
    dispatched = [o for o in result.outcomes if not o.from_cache]
    walls = [o.wall_time for o in dispatched]
    overhead = sum(
        o.wall_time - runner[o.seed][1] for o in dispatched
        if o.ok and o.seed in runner
    )
    queue_wait = sum(start - phase2_start for start, _ in runner.values())
    busy = sum(wall for _, wall in runner.values())
    run_s = layer_s["pipeline.run"]
    return {
        "workloads.build_s": layer_s["workloads"],
        "workloads.builds": counts["builds"],
        "workloads.builds_per_workload": (
            counts["builds"] / workloads if workloads else 0.0
        ),
        "lint.s": layer_s["lint"],
        "lint.programs": counts["lint_programs"],
        "keying.s": layer_s["keying"],
        "keying.jobs": sum(1 for s in tracer.spans if s[_NAME] == "job_key"),
        "cache.load_s": layer_s["cache.load"],
        "cache.store_s": layer_s["cache.store"],
        "cache.hits": counts["cache_hits"],
        "cache.misses": counts["cache_misses"],
        "cache.read_bytes": counts["cache_read_bytes"],
        "cache.write_bytes": counts["cache_write_bytes"],
        "dispatch.processes": sum(o.attempts for o in dispatched),
        "dispatch.queue_wait_s": queue_wait,
        "dispatch.job_p50_s": _quantile(walls, 0.5),
        "dispatch.job_p90_s": _quantile(walls, 0.9),
        "dispatch.overhead_s": overhead,
        "dispatch.payload_bytes": counts["payload_bytes"],
        "dispatch.worker_busy_frac": (
            busy / (workers * phase2_wall)
            if dispatched and phase2_wall > 0 else 0.0
        ),
        "pipeline.construct_s": layer_s["pipeline.construct"],
        "pipeline.run_s": run_s,
        "pipeline.sim_kips": (
            counts["committed_insts"] / run_s / 1000 if run_s > 0 else 0.0
        ),
        "pipeline.sim_cycles": counts["sim_cycles"],
        "pipeline.committed_insts": counts["committed_insts"],
        "power.energy_s": layer_s["power"],
        "oracle.s": layer_s["oracle"],
        "oracle.analyses": analyses,
        "oracle.validate_s": layer_s["oracle.validate"],
        "figure.s": layer_s["figure"],
    }
