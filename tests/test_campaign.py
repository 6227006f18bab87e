"""Campaign runner: caching, retries, per-job seed determinism."""

import dataclasses
import time

import pytest

from repro.core.config import MMTConfig
from repro.harness.campaign import (
    ResultCache,
    code_fingerprint,
    derive_seed,
    job_key,
    run_campaign,
)
from repro.harness.experiment import CampaignJob, clear_cache, run_points
from repro.harness.results import (
    campaign_failure_rows,
    dump_campaign,
    summarize_campaign,
)


@dataclasses.dataclass(frozen=True)
class AddJob:
    a: int
    b: int

    def label(self):
        return f"add({self.a},{self.b})"


def add_runner(job, seed):
    return {"sum": job.a + job.b, "seed": seed}


def slow_runner(job, seed):
    time.sleep(60.0)
    return None  # pragma: no cover - always killed first


def flaky_or_slow_runner(job, seed):
    if getattr(job, "a", 0) < 0:
        time.sleep(60.0)
    return {"sum": job.a + job.b, "seed": seed}


def crash_runner(job, seed):
    raise RuntimeError(f"boom on {job.a}")


@pytest.fixture
def cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CODE_FINGERPRINT", "testfp")
    import repro.harness.campaign as campaign_mod

    monkeypatch.setattr(campaign_mod, "_FINGERPRINT", None)
    yield ResultCache(tmp_path / "cache")
    monkeypatch.setattr(campaign_mod, "_FINGERPRINT", None)


# ------------------------------------------------------------------ keying
def test_job_key_is_stable_and_config_sensitive():
    a = CampaignJob("ammp", MMTConfig.base(), 2)
    b = CampaignJob("ammp", MMTConfig.base(), 2)
    c = CampaignJob("ammp", MMTConfig.mmt_fxr(), 2)
    assert job_key(a) == job_key(b)
    assert job_key(a) != job_key(c)
    assert job_key(a) != job_key(a, add_runner)  # runner identity mixed in


def test_derive_seed_pure_function():
    key = job_key(AddJob(1, 2))
    assert derive_seed(0, key) == derive_seed(0, key)
    assert derive_seed(0, key) != derive_seed(1, key)


# ------------------------------------------------------------------- cache
def test_second_run_hits_cache_for_identical_jobs(cache):
    jobs = [AddJob(i, i + 1) for i in range(4)]
    first = run_campaign(jobs, add_runner, workers=2, cache=cache)
    assert first.cache_hits == 0 and first.cache_misses == 4
    assert [o.payload["sum"] for o in first.outcomes] == [1, 3, 5, 7]

    second = run_campaign(jobs, add_runner, workers=2, cache=cache)
    assert second.cache_hits == 4 and second.cache_misses == 0
    assert all(o.from_cache for o in second.outcomes)
    assert [o.payload["sum"] for o in second.outcomes] == [1, 3, 5, 7]


def test_changed_job_misses_cache(cache):
    run_campaign([AddJob(1, 2)], add_runner, workers=1, cache=cache)
    changed = run_campaign([AddJob(1, 3)], add_runner, workers=1, cache=cache)
    assert changed.cache_hits == 0 and changed.cache_misses == 1


def test_use_cache_false_never_touches_disk(cache):
    result = run_campaign([AddJob(5, 5)], add_runner, workers=1,
                          cache=cache, use_cache=False)
    assert result.cache_hits == result.cache_misses == 0
    assert job_key(AddJob(5, 5), add_runner) not in cache


def test_cache_partitioned_by_code_fingerprint(cache, monkeypatch):
    import repro.harness.campaign as campaign_mod

    run_campaign([AddJob(1, 1)], add_runner, workers=1, cache=cache)
    monkeypatch.setenv("REPRO_CODE_FINGERPRINT", "otherfp")
    monkeypatch.setattr(campaign_mod, "_FINGERPRINT", None)
    rerun = run_campaign([AddJob(1, 1)], add_runner, workers=1, cache=cache)
    assert rerun.cache_hits == 0 and rerun.cache_misses == 1


def test_concurrent_stores_of_same_key_never_collide(cache):
    import threading

    key = job_key(AddJob(9, 9), add_runner)
    errors = []

    def writer():
        try:
            for _ in range(25):
                cache.store(key, {"sum": 18})
        except Exception as exc:  # pragma: no cover - the regression
            errors.append(exc)

    threads = [threading.Thread(target=writer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert cache.load(key) == {"sum": 18}
    assert not list(cache.path_for(key).parent.glob("*.tmp"))


def test_corrupt_cache_entry_is_a_miss(cache):
    key = job_key(AddJob(2, 2), add_runner)
    path = cache.store(key, {"sum": 4})
    path.write_bytes(b"not a pickle")
    assert cache.load(key) is None
    assert key not in cache  # corrupt entry removed


# ------------------------------------------------------- timeout and retry
def test_hanging_job_times_out_and_is_reported_not_fatal(cache):
    jobs = [AddJob(1, 1), AddJob(-1, 0), AddJob(2, 2)]
    result = run_campaign(jobs, flaky_or_slow_runner, workers=3,
                          timeout=0.5, retries=1, cache=cache)
    ok = [o for o in result.outcomes if o.ok]
    hung = [o for o in result.outcomes if o.status == "timeout"]
    assert len(ok) == 2 and len(hung) == 1
    assert hung[0].attempts == 2  # original + one retry
    assert result.retries == 1
    assert "timed out" in hung[0].error
    assert sorted(o.payload["sum"] for o in ok) == [2, 4]


def test_crashing_job_reports_error(cache):
    result = run_campaign([AddJob(7, 0)], crash_runner, workers=1,
                          retries=0, cache=cache)
    outcome = result.outcomes[0]
    assert outcome.status == "failed"
    assert "boom on 7" in outcome.error
    assert not result.completed and len(result.failures) == 1


def test_zero_jobs_is_a_noop(cache):
    result = run_campaign([], add_runner, cache=cache)
    assert result.jobs == 0 and result.summary()["jobs"] == 0


# ------------------------------------------------------- seed determinism
def test_seeds_identical_across_worker_counts(cache):
    jobs = [AddJob(i, 0) for i in range(6)]
    serial = run_campaign(jobs, add_runner, workers=1, use_cache=False,
                          campaign_seed=42)
    fanned = run_campaign(jobs, add_runner, workers=4, use_cache=False,
                          campaign_seed=42)
    assert [o.seed for o in serial.outcomes] == [o.seed for o in fanned.outcomes]
    # ... and the workers actually received those seeds.
    assert [o.payload["seed"] for o in serial.outcomes] == \
        [o.payload["seed"] for o in fanned.outcomes]
    assert len({o.seed for o in serial.outcomes}) == len(jobs)


def test_cached_outcome_keeps_seed(cache):
    jobs = [AddJob(3, 4)]
    first = run_campaign(jobs, add_runner, workers=1, cache=cache,
                         campaign_seed=7)
    second = run_campaign(jobs, add_runner, workers=1, cache=cache,
                          campaign_seed=7)
    assert second.outcomes[0].from_cache
    assert second.outcomes[0].seed == first.outcomes[0].seed


# ------------------------------------------------------------- aggregation
def test_summarize_and_dump_campaign(cache, tmp_path):
    jobs = [AddJob(1, 1), AddJob(-1, 0)]
    result = run_campaign(jobs, flaky_or_slow_runner, workers=2,
                          timeout=0.4, retries=0, cache=cache)
    summary = summarize_campaign(result)
    assert summary["jobs"] == 2
    assert summary["ok"] == 1
    assert summary["timeout"] == 1
    assert summary["cache_misses"] == 2
    assert summary["job_wall_max"] >= summary["job_wall_mean"] >= 0

    rows = campaign_failure_rows(result)
    assert len(rows) == 1 and rows[0]["status"] == "timeout"

    out = tmp_path / "campaign.json"
    dump_campaign(result, out)
    import json

    data = json.loads(out.read_text())
    assert data["summary"]["jobs"] == 2
    assert len(data["jobs"]) == 2
    statuses = {record["status"] for record in data["jobs"]}
    assert statuses == {"ok", "timeout"}


def test_progress_lines_streamed(cache):
    lines = []
    run_campaign([AddJob(1, 2), AddJob(3, 4)], add_runner, workers=2,
                 cache=cache, progress=lines.append)
    assert len(lines) == 2
    assert all("add(" in line for line in lines)


# ------------------------------------------------- simulation integration
def test_run_points_seeds_the_run_app_memo(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "simcache"))
    clear_cache()
    points = [
        CampaignJob("ammp", MMTConfig.base(), 2, scale=0.15),
        CampaignJob("ammp", MMTConfig.mmt_fxr(), 2, scale=0.15),
    ]
    result = run_points(points, workers=2)
    assert all(o.ok for o in result.outcomes)

    from repro.harness import experiment

    # run_app must now be served from the in-memory memo, not re-simulated.
    for point, outcome in zip(points, result.outcomes):
        assert point.memo_key() in experiment._CACHE
        memoed = experiment.run_app(point.app, point.config, point.threads,
                                    scale=point.scale)
        assert memoed is outcome.payload
    clear_cache()


def test_code_fingerprint_env_override(monkeypatch):
    import repro.harness.campaign as campaign_mod

    monkeypatch.setenv("REPRO_CODE_FINGERPRINT", "abc123")
    monkeypatch.setattr(campaign_mod, "_FINGERPRINT", None)
    assert code_fingerprint() == "abc123"
    monkeypatch.setattr(campaign_mod, "_FINGERPRINT", None)


# --------------------------------------------------- rss + failure dumps
def test_outcomes_record_worker_rss(cache):
    result = run_campaign([AddJob(1, 1)], add_runner, workers=1, cache=cache)
    outcome = result.outcomes[0]
    # RSS is normalised to bytes on every platform; a real worker process
    # is comfortably past 1 MiB.
    assert outcome.max_rss_bytes > 1024 * 1024
    assert (
        summarize_campaign(result)["job_rss_max_bytes"]
        >= outcome.max_rss_bytes
    )

    # A cache hit replays the RSS recorded when the entry was produced.
    second = run_campaign([AddJob(1, 1)], add_runner, workers=1, cache=cache)
    assert second.outcomes[0].from_cache
    assert second.outcomes[0].max_rss_bytes == outcome.max_rss_bytes


def test_livelocked_job_leaves_flight_dump(cache, tmp_path):
    from repro.harness.experiment import simulate_job_faulty
    from repro.obs import load_dump

    job = CampaignJob("ammp", MMTConfig.base(), 2, scale=0.1, tag="livelock")
    result = run_campaign([job], simulate_job_faulty, workers=1, retries=0,
                          cache=cache, failure_dump_dir=tmp_path / "flight")
    outcome = result.outcomes[0]
    assert outcome.status == "failed"
    assert "WatchdogError" in outcome.error
    assert outcome.dump_path and outcome.dump_path.endswith(".flight.json")
    document = load_dump(outcome.dump_path)
    assert document["committed_thread_insts"] == 0
    assert document["events"][-1]["kind"] == "watchdog"
    # The failure report row surfaces the dump path.
    rows = campaign_failure_rows(result)
    assert rows[0]["dump"] == outcome.dump_path


def test_livelocked_fast_engine_job_leaves_flight_dump(cache, tmp_path):
    """The watchdog + flight recorder fire from *inside* the fast loop:
    a fast-engine campaign job that livelocks leaves the same dump a
    reference job would, and the dump replays (satellite: oracle gate on
    the replay path)."""
    from repro.harness.experiment import replay_dump, simulate_job_faulty
    from repro.obs import load_dump

    job = CampaignJob("ammp", MMTConfig.base(), 2, scale=0.1,
                      tag="livelock", engine="fast")
    result = run_campaign([job], simulate_job_faulty, workers=1, retries=0,
                          cache=cache, failure_dump_dir=tmp_path / "flight")
    outcome = result.outcomes[0]
    assert outcome.status == "failed"
    assert "WatchdogError" in outcome.error
    assert outcome.dump_path and outcome.dump_path.endswith(".flight.json")
    document = load_dump(outcome.dump_path)
    assert document["committed_thread_insts"] == 0
    assert document["events"][-1]["kind"] == "watchdog"
    # The dump embeds the job spec, so the post-mortem replay runs the
    # same point (healthy: the injected fault is not part of the spec)
    # and passes the oracle + reconciliation gate.
    assert document["job"]["engine"] == "fast"
    replay = replay_dump(outcome.dump_path)
    assert replay.ok, replay.problems
    assert replay.spec["app"] == "ammp"
    assert replay.run.stats.committed_thread_insts > 0


def test_replay_rejects_spec_less_dump(tmp_path):
    """Dumps from before spec embedding raise instead of replaying the
    wrong point."""
    import json

    from repro.harness.experiment import replay_dump

    path = tmp_path / "old.flight.json"
    path.write_text(json.dumps({"events": [], "error": "boom"}))
    with pytest.raises(ValueError, match="no job spec"):
        replay_dump(path)


def test_successful_job_has_no_dump(cache, tmp_path):
    result = run_campaign([AddJob(4, 4)], add_runner, workers=1, cache=cache,
                          failure_dump_dir=tmp_path / "flight")
    outcome = result.outcomes[0]
    assert outcome.ok and outcome.dump_path is None
    assert not list((tmp_path / "flight").glob("*.flight.json"))


# --------------------------------------------------- oracle validation gate
def test_run_points_validates_against_oracle(tmp_path, monkeypatch):
    """Every successful simulation is cross-checked at aggregation time."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "simcache"))
    clear_cache()
    points = [
        CampaignJob("ammp", MMTConfig.mmt_fxr(), 2, scale=0.1),
        CampaignJob("canneal", MMTConfig.base(), 2, scale=0.1),
    ]
    result = run_points(points, workers=2)
    assert all(o.ok for o in result.outcomes)
    assert result.validation_failures == []
    assert summarize_campaign(result)["oracle_violations"] == 0
    clear_cache()


def test_validation_flags_a_corrupted_result(tmp_path, monkeypatch):
    """A payload contradicting a static bound becomes a structured
    campaign failure (this is what catches stale/corrupt cached results
    and simulator regressions)."""
    from repro.harness import experiment
    from repro.harness.results import campaign_violation_rows

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "simcache"))
    clear_cache()
    result = run_points(
        [CampaignJob("ammp", MMTConfig.mmt_fxr(), 2, scale=0.1)], workers=1
    )
    assert result.validation_failures == []
    # Corrupt the payload: pretend the LVIP checked a PC the static
    # analysis says hosts no load.
    payload = result.outcomes[0].payload
    payload.stats.lvip_site_checks = dict(payload.stats.lvip_site_checks)
    payload.stats.lvip_site_checks[999_999] = 1
    violations = experiment.validate_campaign_result(result)
    assert len(violations) == 1
    violation = violations[0]
    assert violation.workload == payload.build.program.name
    assert violation.config == "MMT-FXR"
    assert any("999999" in p for p in violation.problems)
    rows = campaign_violation_rows(result)
    assert rows and rows[0]["config"] == "MMT-FXR"
    assert summarize_campaign(result)["oracle_violations"] == 1
    clear_cache()


def test_validation_can_be_disabled(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "simcache"))
    clear_cache()
    result = run_points(
        [CampaignJob("ammp", MMTConfig.base(), 2, scale=0.1)],
        workers=1, validate=False,
    )
    assert result.validation_failures == []
    clear_cache()


def test_validation_skips_non_simulation_payloads(cache):
    """Custom runners' payloads pass through the gate untouched."""
    from repro.harness import experiment

    result = run_campaign([AddJob(2, 3)], add_runner, workers=1, cache=cache)
    violations = experiment.validate_campaign_result(result)
    assert violations == []


def test_oracle_memo_reuses_reports(tmp_path, monkeypatch):
    """One analysis per distinct (program, nctx, limit), not per job."""
    from repro.harness import experiment

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "simcache"))
    clear_cache()
    experiment.clear_oracle_memo()
    result = run_points(
        [
            CampaignJob("ammp", MMTConfig.base(), 2, scale=0.1),
            CampaignJob("ammp", MMTConfig.mmt_fxr(), 2, scale=0.1),
        ],
        workers=2,
    )
    assert result.validation_failures == []
    assert len(experiment._ORACLE_MEMO) == 1
    report = experiment.oracle_for_run(result.outcomes[0].payload)
    assert report is experiment.oracle_for_run(result.outcomes[1].payload)
    experiment.clear_oracle_memo()
    clear_cache()

# --------------------------------------- fast-engine jobs through the gate
def test_fast_engine_results_validated_including_cache_hits(
    tmp_path, monkeypatch, analyses
):
    """Fast-engine campaign results flow through the oracle gate exactly
    like reference ones — fresh *and* served from the on-disk cache (a
    stale cached result from a buggy fast-engine version is precisely
    what the aggregation-time cross-check exists to catch)."""
    from repro.harness import experiment

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "simcache"))
    clear_cache()
    points = [
        CampaignJob("ammp", MMTConfig.mmt_fxr(), 2, scale=0.1, engine="fast"),
        CampaignJob("lu", MMTConfig.base(), 2, scale=0.1, engine="fast"),
    ]
    first = run_points(points, workers=2)
    assert all(o.ok and not o.from_cache for o in first.outcomes)
    assert first.validation_failures == []
    assert len(analyses) == 2

    # A fresh memo: the second pass analyses nothing and reads every
    # report from the on-disk tier.
    analyses.clear()
    clear_cache()
    experiment.clear_oracle_memo()
    lines = []
    second = run_points(points, workers=2, progress=lines.append)
    assert all(o.ok and o.from_cache for o in second.outcomes)
    assert second.validation_failures == []
    assert analyses == []
    assert "[oracle] 0 analysed, 2 from cache" in lines

    # Corrupt one cached payload: the gate must flag it even though the
    # simulation never re-ran and the report is read from disk.
    payload = second.outcomes[0].payload
    payload.stats.lvip_site_checks = dict(payload.stats.lvip_site_checks)
    payload.stats.lvip_site_checks[999_999] = 1
    experiment.clear_oracle_memo()
    violations = experiment.validate_campaign_result(second)
    assert len(violations) == 1
    assert any("999999" in p for p in violations[0].problems)
    clear_cache()


def test_engines_never_share_cache_entries_or_memo_keys(tmp_path, monkeypatch):
    """The engine is part of both the on-disk cache key and the serial
    memo key, so a fast-engine bug can never poison reference results."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "simcache"))
    ref = CampaignJob("fft", MMTConfig.base(), 2, scale=0.1)
    fast = dataclasses.replace(ref, engine="fast")
    assert job_key(ref) != job_key(fast)
    assert ref.memo_key() != fast.memo_key()

    clear_cache()
    result = run_points([ref, fast], workers=2)
    assert all(o.ok for o in result.outcomes)
    assert result.validation_failures == []
    by_engine = {o.job.engine: o.payload for o in result.outcomes}
    # Cycle-exact across the campaign path too.
    assert (
        by_engine["fast"].stats.__dict__ == by_engine["reference"].stats.__dict__
    )
    clear_cache()


# ------------------------------------------ persistent oracle-report tier
@pytest.fixture
def analyses(monkeypatch):
    """Counts every static oracle analysis run in this process."""
    from repro.analysis import redundancy
    from repro.harness import experiment
    from repro.workloads import engine

    calls = []
    for module, name in ((redundancy, "analyze_build"),
                         (redundancy, "analyze_limit_build"),
                         (engine, "analyze_engine_build")):
        original = getattr(module, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    experiment.clear_oracle_memo()
    clear_cache()
    yield calls
    experiment.clear_oracle_memo()
    clear_cache()


@pytest.mark.parametrize("damage", ["truncated", "garbage", "wrong-key"])
def test_damaged_oracle_report_is_recomputed_and_rewritten(
    tmp_path, analyses, damage
):
    import pickle

    from repro.harness import experiment

    root = tmp_path / "simcache"
    result = run_points(
        [CampaignJob("ammp", MMTConfig.mmt_fxr(), 2, scale=0.1)],
        workers=1, cache=root,
    )
    payload = result.outcomes[0].payload
    (entry,) = (root / code_fingerprint() / "oracle").glob("*.pkl")
    good = entry.read_bytes()
    if damage == "truncated":
        entry.write_bytes(good[: len(good) // 2])
    elif damage == "garbage":
        entry.write_bytes(b"not a pickle at all")
    else:
        stored = pickle.loads(good)
        stored["key"] = ("0" * 64, 2, False)
        entry.write_bytes(pickle.dumps(stored))

    analyses.clear()
    experiment.clear_oracle_memo()
    report = experiment.oracle_for_run(payload, cache=root)
    assert analyses == ["analyze_build"]
    assert report.validate_against(payload.stats) == []
    rewritten = pickle.loads(entry.read_bytes())
    assert rewritten["key"] == (
        payload.build.program.digest(), payload.build.nctx, False
    )


def test_changed_fingerprint_recomputes_oracle_report(
    tmp_path, analyses, monkeypatch
):
    import repro.harness.campaign as campaign_mod
    from repro.harness import experiment

    root = tmp_path / "simcache"
    monkeypatch.setattr(campaign_mod, "_FINGERPRINT", None)
    monkeypatch.setenv("REPRO_CODE_FINGERPRINT", "analysis-v1")
    result = run_points(
        [CampaignJob("ammp", MMTConfig.base(), 2, scale=0.1)],
        workers=1, cache=root,
    )
    payload = result.outcomes[0].payload
    assert len(analyses) == 1

    experiment.clear_oracle_memo()
    experiment.oracle_for_run(payload, cache=root)
    assert len(analyses) == 1  # same tree: served from disk

    monkeypatch.setattr(campaign_mod, "_FINGERPRINT", None)
    monkeypatch.setenv("REPRO_CODE_FINGERPRINT", "analysis-v2")
    experiment.clear_oracle_memo()
    experiment.oracle_for_run(payload, cache=root)
    assert len(analyses) == 2
    assert len(list((root / "analysis-v2" / "oracle").glob("*.pkl"))) == 1


def test_no_cache_writes_no_oracle_reports(tmp_path, analyses):
    from repro.harness import experiment

    root = tmp_path / "simcache"
    result = run_points(
        [CampaignJob("ammp", MMTConfig.base(), 2, scale=0.1)],
        workers=1, cache=root, use_cache=False,
    )
    assert result.completed and result.validation_failures == []
    experiment.clear_oracle_memo()
    experiment.oracle_for_run(
        result.outcomes[0].payload, cache=root, use_cache=False
    )
    assert len(analyses) == 2
    assert not (root / code_fingerprint() / "oracle").exists()
