"""End-to-end benchmark of the MMT simulator's campaign path.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig5a-warm --seed 3 --seconds 30 --trace 0

Each timed pass runs in a fresh interpreter with its own cache root
(``bench_pass.py``); this script sets the passes up, repeats them until
``--seconds`` of harness wall time is measured, checks every point's
SimStats against the reference engine's, and prints each metric by name
and unit, then one JSON result as the last line of standard output.
The time metrics are scaled to a fixed host speed by the host-speed
probe (``hostspeed.py``) run between the passes.
``--trace 1`` runs one untraced and one traced pass instead and reports
the per-layer metrics.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent

#: Default workload seed (the seed the shipped stress suite pins); the
#: expected digests for it are kept in ``expected/``.
DEFAULT_SEED = 3

#: name -> (suite, engine, served from a cache filled during set-up)
WORKLOADS = {
    "fig5a-cold": ("fig5a", "fast", False),
    "fig5a-warm": ("fig5a", "fast", True),
    "fig5a-ref": ("fig5a", "reference", False),
    "scenario-stress": ("stress", "fast", False),
}

END_TO_END_UNITS = {
    "wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "workloads.build_s": "s",
    "workloads.builds": "count",
    "workloads.builds_per_workload": "ratio",
    "lint.s": "s",
    "lint.programs": "count",
    "keying.s": "s",
    "keying.jobs": "count",
    "cache.load_s": "s",
    "cache.store_s": "s",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.read_bytes": "bytes",
    "cache.write_bytes": "bytes",
    "dispatch.processes": "count",
    "dispatch.queue_wait_s": "s",
    "dispatch.job_p50_s": "s",
    "dispatch.job_p90_s": "s",
    "dispatch.overhead_s": "s",
    "dispatch.payload_bytes": "bytes",
    "dispatch.worker_busy_frac": "frac",
    "pipeline.construct_s": "s",
    "pipeline.run_s": "s",
    "pipeline.sim_kips": "kinst/s",
    "pipeline.sim_cycles": "cycles",
    "pipeline.committed_insts": "insts",
    "power.energy_s": "s",
    "oracle.s": "s",
    "oracle.analyses": "count",
    "oracle.validate_s": "s",
    "figure.s": "s",
    "trace.untraced_s": "s",
    "trace.overhead_frac": "frac",
    "host.probe_s": "s",
}

#: Set-up-only interpreters started per run; setup_s is their median.
SETUP_PROBES = 7

#: Host-speed probes run at once, one per core of the 2-core host, as the
#: campaigns run two workers.
PROBE_COPIES = 2

#: A run must end within 180 s; passes stop being started past this.
RUN_BUDGET_S = 165.0


class BenchError(RuntimeError):
    """A pass could not run at all (crash, timeout, missing output)."""


class Bench:
    def __init__(self, root: Path, work: Path, workload: str, seed: int):
        self.root = root
        self.work = work
        self.run_dir = work / f"run-{os.getpid()}"
        self.suite, self.engine, self.warm = WORKLOADS[workload]
        self.seed = seed
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.seq = itertools.count(1)
        shutil.rmtree(self.run_dir, ignore_errors=True)
        self.run_dir.mkdir(parents=True)

    def env(self, cache_root: Path) -> dict:
        """The pass's environment: no inherited REPRO_* setting, this
        checkout's sources, and the pass's own cache root."""
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(self.root / "src")
        env["REPRO_CACHE_DIR"] = str(cache_root)
        return env

    def fresh_root(self) -> Path:
        return self.run_dir / f"cache-{next(self.seq)}"

    def run_pass(self, cache_root: Path, *, engine=None, probe=False,
                 trace=False) -> dict:
        seq = next(self.seq)
        out = self.run_dir / f"pass-{seq}.json"
        log = self.run_dir / f"pass-{seq}.log"
        cmd = [
            sys.executable, str(HERE / "bench_pass.py"),
            "--suite", self.suite, "--engine", engine or self.engine,
            "--seed", str(self.seed), "--cache-root", str(cache_root),
            "--suite-file", str(self.root / "scenarios" / "stress.toml"),
            "--out", str(out),
        ]
        if probe:
            cmd.append("--probe")
        if trace:
            cmd += ["--trace-dir", str(self.run_dir / f"spans-{seq}")]
        timeout = self.deadline + 10 - time.monotonic()
        with log.open("wb") as handle:
            cmd += ["--spawned", repr(time.monotonic())]
            proc = subprocess.Popen(
                cmd, cwd=self.root, env=self.env(cache_root),
                stdout=handle, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
            try:
                code = proc.wait(timeout=max(timeout, 1.0))
            except subprocess.TimeoutExpired:
                code = None
            finally:
                # The pass's campaign workers share its process group.
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.wait()
        if code != 0 or not out.exists():
            tail = log.read_text(errors="replace")[-2000:]
            reason = "timed out" if code is None else f"exit code {code}"
            raise BenchError(f"pass {' '.join(cmd[2:8])} {reason}:\n{tail}")
        return json.loads(out.read_text())

    def host_probe(self) -> float:
        """Mean seconds of the host-speed probe, run as PROBE_COPIES
        copies at once, each in a fresh interpreter."""
        procs = [
            subprocess.Popen(
                [sys.executable, str(HERE / "hostspeed.py")],
                cwd=self.root, env=self.env(self.run_dir),
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True,
            )
            for _ in range(PROBE_COPIES)
        ]
        try:
            timeout = max(self.deadline + 10 - time.monotonic(), 1.0)
            times = []
            for proc in procs:
                out, _ = proc.communicate(timeout=timeout)
                if proc.returncode != 0:
                    raise BenchError(f"host-speed probe exit code "
                                     f"{proc.returncode}")
                times.append(float(out))
            return statistics.mean(times)
        except (subprocess.SubprocessError, ValueError) as exc:
            raise BenchError(f"host-speed probe failed: {exc}") from exc
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()

    def setup_s(self) -> float:
        probes = [
            self.run_pass(self.fresh_root(), probe=True)["setup_s"]
            for _ in range(SETUP_PROBES)
        ]
        return statistics.median(probes)

    def timed_passes(self, cache_root, seconds: float):
        """Repeat the pass until *seconds* of harness wall is measured,
        or until another pass would not fit in the run's time budget.

        Returns the passes and the host-speed probe times, one probe
        before the first pass and one after each pass.
        """
        passes: list[dict] = []
        probes = [self.host_probe()]
        while True:
            root = cache_root or self.fresh_root()
            passes.append(self.run_pass(root))
            probes.append(self.host_probe())
            walls = [p["wall_s"] for p in passes]
            if sum(walls) >= seconds:
                return passes, probes
            if time.monotonic() + 2 * max(walls) > self.deadline:
                return passes, probes

    def committed_expected(self) -> Path:
        """Where the kept digests for this suite and seed live.  The stress
        suite runs with the seeds it pins, so one file serves every seed."""
        if self.suite == "stress":
            return HERE / "expected" / "stress.json"
        return HERE / "expected" / f"{self.suite}-seed-{self.seed}.json"

    def expected_digests(self, fingerprint: str, passes: list[dict]) -> dict:
        """Reference-engine SimStats digests for this suite and seed.

        Kept in ``expected/`` for the default seed; for any other seed
        computed untimed by a reference-engine pass and kept under the
        work directory, keyed by the simulator's code fingerprint.  The
        reference workload's own first pass serves as the computation.
        """
        committed = self.committed_expected()
        if committed.exists():
            return json.loads(committed.read_text())
        cached = (self.work / "expected" / fingerprint
                  / f"{self.suite}-seed-{self.seed}.json")
        if cached.exists():
            return json.loads(cached.read_text())
        if self.engine == "reference":
            reference = passes[0]
        else:
            reference = self.run_pass(self.fresh_root(), engine="reference")
        if reference["problems"]:
            raise BenchError(
                "reference pass failed: " + "; ".join(reference["problems"])
            )
        cached.parent.mkdir(parents=True, exist_ok=True)
        tmp = cached.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(reference["digests"], sort_keys=True))
        os.replace(tmp, cached)
        return reference["digests"]

    def check(self, passes: list[dict]) -> tuple[int, int, list[str]]:
        """(attempted, failed, problems) over every pass's points."""
        expected = self.expected_digests(passes[0]["fingerprint"], passes)
        attempted = failed = 0
        problems: list[str] = []
        for record in passes:
            bad = list(record["problems"])
            for label, digest in expected.items():
                if record["digests"].get(label) != digest:
                    bad.append(f"{label}: SimStats differ from the "
                               "reference engine's")
            if len(record["digests"]) != len(expected):
                bad.append(f"{len(record['digests'])} points, expected "
                           f"{len(expected)}")
            attempted += record["jobs"]
            failed += min(len(bad), record["jobs"])
            problems += bad
        return attempted, failed, problems


def _median(passes, name) -> float:
    return statistics.median(p[name] for p in passes)


def measure(bench: Bench, seconds: float, trace: bool):
    """Run one benchmark run; returns (metrics, units, passes, notes).

    *notes* are the unscaled times and the probe median, for the report.
    """
    setup = bench.setup_s()
    cache_root = None
    passes = []
    if bench.warm:
        cache_root = bench.fresh_root()
        fill = bench.run_pass(cache_root)
        passes.append(fill)
        setup += fill["wall_s"]
    if not trace:
        timed, probes = bench.timed_passes(cache_root, seconds)
        notes = {
            "unscaled wall_s": _median(timed, "wall_s"),
            "unscaled cpu_s": _median(timed, "cpu_s"),
            "unscaled setup_s": setup,
            "host probe_s": statistics.median(probes),
        }
        # Time metrics read as seconds at the probe's reference speed:
        # each pass is scaled by the probes just before and after it.
        scales = [
            2 * hostspeed.REFERENCE_S / (before + after)
            for before, after in zip(probes, probes[1:])
        ]
        metrics = {
            "wall_s": statistics.median(
                p["wall_s"] * k for p, k in zip(timed, scales)
            ),
            "cpu_s": statistics.median(
                p["cpu_s"] * k for p, k in zip(timed, scales)
            ),
            "setup_s": setup * hostspeed.REFERENCE_S / notes["host probe_s"],
            "peak_rss_mb": _median(timed, "peak_rss_mb"),
        }
        return metrics, END_TO_END_UNITS, passes + timed, notes
    probes = [bench.host_probe()]
    untraced = bench.run_pass(cache_root or bench.fresh_root())
    probes.append(bench.host_probe())
    traced = bench.run_pass(cache_root or bench.fresh_root(), trace=True)
    probes.append(bench.host_probe())
    if traced["keys"] != untraced["keys"]:
        traced["problems"].append(
            "traced pass hit different job keys than the untraced pass"
        )
    metrics = dict(traced["layers"])
    metrics["trace.untraced_s"] = untraced["wall_s"]
    metrics["trace.overhead_frac"] = (
        (traced["wall_s"] - untraced["wall_s"]) / untraced["wall_s"]
    )
    metrics["host.probe_s"] = statistics.median(probes)
    return metrics, PER_LAYER_UNITS, passes + [untraced, traced], {}


def record_expected(root: Path, work: Path) -> None:
    """Write the kept expected digests from reference-engine passes.

    Only for a deliberate, documented change to simulated behaviour: a
    perf-only change must reproduce the recorded digests.
    """
    for workload in ("fig5a-ref", "scenario-stress"):
        bench = Bench(root, work, workload, DEFAULT_SEED)
        try:
            record = bench.run_pass(bench.fresh_root(), engine="reference")
        finally:
            shutil.rmtree(bench.run_dir, ignore_errors=True)
        if record["problems"]:
            raise BenchError("; ".join(record["problems"]))
        path = bench.committed_expected()
        path.parent.mkdir(exist_ok=True)
        path.write_text(
            json.dumps(record["digests"], indent=1, sort_keys=True) + "\n"
        )
        print(f"wrote {path}")


def _terminate(signum, frame):
    # Unwind through run_pass's clean-up, which kills the pass's
    # process group, instead of dying with passes still running.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-expected", action="store_true",
                        help="rewrite the default seed's expected digests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    missing = [
        path for path in ("src/repro/__init__.py", "scenarios/stress.toml")
        if not (root / path).is_file()
    ]
    if missing:
        print(f"error: run from the root of a checkout; missing {missing}",
              file=sys.stderr)
        return 2
    work = root / ".perfbench-work"
    if args.record_expected:
        record_expected(root, work)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    # Passes read bytecode caches even when the environment forbids
    # writing them; compile once, untimed, so no pass compiles sources.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src", str(HERE)],
        cwd=root, check=True, stdout=subprocess.DEVNULL, timeout=120,
    )
    bench = Bench(root, work, args.workload, args.seed)
    try:
        metrics, units, passes, notes = measure(
            bench, args.seconds, bool(args.trace)
        )
        attempted, failed, problems = bench.check(passes)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.run_dir, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"passes {len(passes)}  trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name:<32} {value:>14.6g} {units[name]}")
    for name, value in notes.items():
        print(f"  ({name:<30} {value:>14.6g} s)")
    print(f"  {'failed_frac':<32} {failed / attempted:>14.6g} frac "
          f"({failed} of {attempted} points)")
    for problem in problems:
        print(f"  FAILED {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
