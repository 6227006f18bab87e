"""The static specialization oracle (:mod:`repro.analysis.specialize`).

Three layers of coverage:

* structural invariants of the manifest — superblocks partition the
  reachable blocks and are single-entry, per-PC verdicts are monotone
  under value-lattice widening, plain runs mirror the instruction
  stream — checked over the seeded workload corpus *and* over
  hypothesis-generated random programs;
* content addressing — digests are stable and name-independent, while
  campaign job keys stay plain field hashes that never build a workload
  (the code fingerprint partitions the cache instead);
* engine soundness — specialization on/off bit-exactness and the
  paranoid runtime contract live in ``test_fastpath_differential.py``;
  here we only pin the exception type and the engine-facing views.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import CFG
from repro.analysis.specialize import (
    PATH_BITS,
    RARE_PATHS,
    SpecializationViolation,
    analyze_specialization,
)
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.workloads.generator import build_workload
from repro.workloads.profiles import APP_ORDER, get_profile
from tests.test_properties import build_random_program, program_strategy

SCALE = 0.1

#: Deterministic corpus: every profile at the paper's SMT-pair shape,
#: plus 4-way and single-context samples.
CORPUS = [(app, 2, 100 + i) for i, app in enumerate(APP_ORDER)] + [
    ("ammp", 4, 7),
    ("mcf", 1, 8),
    ("fft", 4, 9),
]


@pytest.fixture(scope="module")
def corpus_programs():
    out = []
    for app, nctx, seed in CORPUS:
        build = build_workload(get_profile(app), nctx, scale=SCALE, seed=seed)
        out.append((f"{app}/{nctx}t-s{seed}", build.program, nctx))
    return out


def check_invariants(program: Program, nctx: int, label: str) -> None:
    """The structural manifest invariants, shared by corpus and fuzz."""
    strong = analyze_specialization(program, nctx, use_values=True)
    weak = analyze_specialization(program, nctx, use_values=False)
    cfg = CFG.from_program(program)
    reachable = cfg.reachable()

    # Superblocks partition the reachable blocks: each exactly once.
    seen: list[int] = []
    for sb in strong.superblocks:
        seen.extend(sb.blocks)
    assert sorted(seen) == sorted(reachable), f"{label}: not a partition"
    assert len(seen) == len(set(seen)), f"{label}: block in two superblocks"

    # Single entry: inside a chain, control can only arrive from the
    # previous chained block; the entry block is the one exception.
    for sb in strong.superblocks:
        for prev, bid in zip(sb.blocks, sb.blocks[1:]):
            preds = {p for p in cfg.blocks[bid].preds if p in reachable}
            assert preds == {prev}, (
                f"{label}: block {bid} of superblock {sb.sid} is "
                f"enterable from {sorted(preds)}, not just {prev}"
            )

    # Verdict monotonicity under widening: the refined (value-lattice)
    # tier may only add impossibility facts, never retract one.
    assert len(weak.verdicts) == len(strong.verdicts) == len(program)
    for wv, sv in zip(weak.verdicts, strong.verdicts):
        assert wv.reachable == sv.reachable
        assert wv.plain_run == sv.plain_run
        assert wv.impossible <= sv.impossible, (
            f"{label}: pc {wv.pc} lost "
            f"{sorted(wv.impossible - sv.impossible)} under widening"
        )

    # Plain runs mirror the instruction stream: a positive run counts
    # down by one per PC, and ends exactly at the next guarded PC.
    runs = strong.plain_runs()
    for pc, inst in enumerate(program.instructions):
        plain = (not inst.is_control and inst.op is not Opcode.HINT
                 and inst.op is not Opcode.HALT)
        if not plain:
            assert runs[pc] == 0, f"{label}: guarded pc {pc} has a run"
        else:
            assert runs[pc] >= 1
            nxt = runs[pc + 1] if pc + 1 < len(runs) else 0
            assert runs[pc] == nxt + 1, f"{label}: run broken at pc {pc}"

    # Unreachable PCs never execute: every rare path is impossible.
    for v in strong.verdicts:
        if not v.reachable:
            assert v.impossible == frozenset(RARE_PATHS)

    # Engine-facing views agree with the verdict records.
    masks = strong.impossible_masks()
    assert len(masks) == len(runs) == strong.num_pcs
    for v in strong.verdicts:
        assert masks[v.pc] == sum(PATH_BITS[p] for p in v.impossible)
        assert strong.impossible_at(v.pc) == v.impossible


def test_corpus_invariants(corpus_programs):
    for label, program, nctx in corpus_programs:
        check_invariants(program, nctx, label)


@given(case=program_strategy)
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_random_program_invariants(case):
    ops, trips, use_tid, branch = case
    program = build_random_program(ops, trips, use_tid, branch)
    for nctx in (1, 2):
        check_invariants(program, nctx, f"prop-{nctx}t")


# ------------------------------------------------------ content addressing
def test_digest_stable_and_name_independent():
    build = build_workload(get_profile("ammp"), 2, scale=SCALE, seed=3)
    program = build.program
    a = analyze_specialization(program, 2)
    b = analyze_specialization(program, 2)
    assert a.digest() == b.digest()

    renamed = Program(
        program.instructions, labels=program.labels, data=program.data,
        symbols=program.symbols, entry=program.entry, name="other-name",
    )
    c = analyze_specialization(renamed, 2)
    assert c.digest() == a.digest(), "digest must ignore the program name"
    assert c.to_document()["program_name"] == "other-name"

    # A different data image is a different program, hence a different
    # manifest identity (the trap refinement reads initial memory).
    patched = program.with_data({0: 12345})
    d = analyze_specialization(patched, 2)
    assert patched.digest() != program.digest()
    assert d.digest() != a.digest()


def test_document_round_trips_summary_counts():
    build = build_workload(get_profile("mcf"), 2, scale=SCALE, seed=5)
    manifest = analyze_specialization(build.program, 2)
    document = manifest.to_document()
    assert document["digest"] == manifest.digest()
    assert len(document["verdicts"]) == manifest.num_pcs
    summary = document["summary"]
    reachable = [v for v in manifest.verdicts if v.reachable]
    assert summary["reachable_pcs"] == len(reachable)
    assert summary["plain_pcs"] == sum(1 for v in reachable if v.plain_run)


# ----------------------------------------------------- campaign cache keys
def test_fast_job_keys_build_nothing_and_artefacts_follow_fingerprint(
    tmp_path, monkeypatch
):
    """Job keys are plain field hashes: keying a specialized fast job
    builds no workload and analyses nothing, the ``specialize`` field
    still separates on/off keys, and every cached artefact a campaign
    writes (results, lint verdicts, oracle reports) sits under the code
    fingerprint, which is what invalidates them all when the analysis
    changes."""
    from repro.core.config import MMTConfig
    from repro.harness import campaign, experiment
    from repro.pipeline import fast

    fast_on = experiment.CampaignJob(
        "ammp", MMTConfig.mmt_fxr(), 2, scale=SCALE, engine="fast")
    fast_off = experiment.CampaignJob(
        "ammp", MMTConfig.mmt_fxr(), 2, scale=SCALE, engine="fast",
        specialize=False)

    def forbidden(*args, **kwargs):
        raise AssertionError("job keying must not build or analyse")

    with monkeypatch.context() as patch:
        patch.setattr(experiment, "build_point", forbidden)
        patch.setattr(fast, "manifest_for", forbidden)
        patch.setattr(fast, "analyze_specialization", forbidden)
        key_on = campaign.job_key(fast_on, "runner")
        key_off = campaign.job_key(fast_off, "runner")
        assert fast_on.key_data()["specialize"] is True
    assert key_on != key_off
    assert fast_on.memo_key() != fast_off.memo_key()

    experiment.clear_cache()
    experiment.clear_oracle_memo()
    result = experiment.run_points([fast_on], workers=1, cache=tmp_path)
    assert result.completed and result.validation_failures == []
    partition = tmp_path / campaign.code_fingerprint()
    written = [
        path for path in tmp_path.rglob("*")
        if path.is_file() and path.parent.name != "runlog"
    ]
    assert {path.parent.name for path in written} >= {"lint", "oracle"}
    assert all(partition in path.parents for path in written)
    experiment.clear_cache()
    experiment.clear_oracle_memo()


def test_specialize_defaults_round_trip():
    from repro.harness import experiment

    assert experiment.default_specialize() is True
    previous = experiment.set_default_specialize(False)
    try:
        assert previous is True
        assert experiment.default_specialize() is False
    finally:
        experiment.set_default_specialize(previous)


def test_violation_is_assertion_error():
    assert issubclass(SpecializationViolation, AssertionError)
