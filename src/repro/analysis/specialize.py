"""Static specialization oracle: per-PC rare-path reachability + superblocks.

The fast engine (:mod:`repro.pipeline.fast`) runs every instruction through
generic per-record guard checks — *is this a HALT? a hint? a control
transfer?* — and delegates six rare paths to the reference implementation
(control transfer, sync split, LVIP verify, store commit, hints, traps).
For most PCs of most programs those guards can never fire: an ``ADD`` is
never a control transfer, a ``NOP`` can never trap.  This module proves
that *statically*, ahead of the run:

* **Per-PC rare-path verdicts.**  For every PC the pass decides which of
  the six delegated paths is *statically impossible* there.  Five verdicts
  are syntactic (an instruction's opcode decides whether the control /
  hint / sync-split / LVIP-verify / store-commit paths can ever be taken
  at that PC).  The **trap** verdict is two-tier: a syntactic tier keyed
  on the fast executor's dispatch table (closures with no raising path:
  ``NOP``/``HINT``/``HALT``/``TID``/``NCTX``, resolved jumps and
  branches, compile-time-converted ``LI``/``FLI``), and an optional
  value-lattice tier (``use_values=True``) that additionally discharges
  ``DIV``/``REM`` sites whose divisor interval provably excludes zero and
  whose operands carry finite bounds — interval reasoning is
  enforced-tier sound in :mod:`repro.analysis.values` (floats carry
  unbounded intervals, so a bounded interval implies a finite integer).

  Verdicts are **monotone in lattice precision**: the weakened lattice
  (``use_values=False``) produces an ``impossible`` set that is a subset
  of the refined one at every PC, so no PC the weak tier proves
  impossible ever flips to possible under refinement, and weakening can
  only conservatively downgrade ``impossible`` to ``possible`` — never
  manufacture new impossibility claims.

* **Plain-run lengths.**  A PC is *plain* when the fast fetch loop's
  per-record guards are statically dead there (not a control transfer,
  not a ``HINT``, not a ``HALT``).  Plain instructions always fall
  through (``npc = pc + 1``), so ``plain_run[pc]`` consecutive buffered
  functional records starting at ``pc`` are guaranteed guard-free and can
  be replayed as one batch.

* **Hot superblocks.**  Reachable basic blocks are chained into
  single-entry straight-line regions (a block joins its predecessor's
  chain only when the link is single-successor/single-predecessor and the
  block is not a natural-loop header), annotated with loop depth, opcode
  mix, and guard-free instruction runs.  Superblocks partition the
  reachable blocks and each is enterable only at its head.

The result is a content-addressed :class:`SpecializationManifest`
(canonical JSON; digest keyed like :meth:`repro.isa.program.Program.digest`)
that :class:`~repro.pipeline.fast.FastSMTCore` consumes to precompute
per-PC dispatch entries — the reference-delegation boundary stays the
correctness contract, and a paranoid mode (``REPRO_SPECIALIZE_PARANOID``)
raises :class:`SpecializationViolation` if a statically-impossible path
ever fires at runtime.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass

from repro.analysis.cfg import CFG
from repro.analysis.dom import loop_depths, natural_loops
from repro.analysis.values import (
    ValueAnalysis,
    ValueAnalysisDivergence,
    analyze_values_cfg,
    interval_of,
)
from repro.func.fastexec import decode_program
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import Program

__all__ = [
    "RARE_PATHS",
    "PATH_BITS",
    "SPECIALIZE_SCHEMA_VERSION",
    "PCVerdict",
    "Superblock",
    "SpecializationManifest",
    "SpecializationViolation",
    "analyze_specialization",
]

#: Manifest document / digest schema version.
SPECIALIZE_SCHEMA_VERSION = 1

#: The fast engine's reference-delegated rare paths, in canonical order.
RARE_PATHS: tuple[str, ...] = (
    "control",
    "hint",
    "sync",
    "lvip_verify",
    "store_commit",
    "trap",
)

#: Bit assigned to each rare path in the per-PC impossibility masks.
PATH_BITS: dict[str, int] = {p: 1 << i for i, p in enumerate(RARE_PATHS)}


class SpecializationViolation(AssertionError):
    """A statically-impossible rare path fired at runtime (paranoid mode)."""


#: Opcodes whose *opcode* (not mask shape) triggers the rename-stage sync
#: split in the fast engine.
_SYNC_OPS = frozenset({Opcode.SEND, Opcode.TRECV, Opcode.TID})

#: Opcodes whose compiled fast-executor closure has no raising path.
#: Branches and jumps count only when they actually compiled (a ``None``
#: dispatch entry falls back to the reference step, which may raise).
#: Numeric comparisons between register scalars cannot raise, and
#: ``LI``/``FLI`` convert their immediate at compile time.
_TRAP_FREE_OPS = frozenset(
    {
        Opcode.NOP,
        Opcode.HINT,
        Opcode.HALT,
        Opcode.TID,
        Opcode.NCTX,
        Opcode.J,
        Opcode.JAL,
        Opcode.JR,
        Opcode.BEQ,
        Opcode.BNE,
        Opcode.BLT,
        Opcode.BGE,
        Opcode.LI,
        Opcode.FLI,
    }
)

_DIV_OPS = frozenset({Opcode.DIV, Opcode.REM})


@dataclass(frozen=True)
class PCVerdict:
    """Rare-path verdicts for one PC.

    ``impossible`` names the delegated paths that can *never* fire at
    this PC; ``plain_run`` is the number of consecutive guard-free
    instructions starting here (0 when this PC itself needs a fetch-loop
    guard).  Unreachable PCs have every path impossible — they never
    execute.
    """

    pc: int
    op: str
    reachable: bool
    impossible: frozenset[str]
    plain_run: int

    @property
    def mask(self) -> int:
        """Bitmask of the impossible paths (see :data:`PATH_BITS`)."""
        return sum(PATH_BITS[p] for p in self.impossible)


@dataclass(frozen=True)
class Superblock:
    """A single-entry straight-line chain of reachable basic blocks."""

    sid: int
    entry_pc: int
    blocks: tuple[int, ...]
    #: Half-open ``[start, end)`` PC range of each chained block, in
    #: chain order (ranges need not be contiguous across jump links).
    ranges: tuple[tuple[int, int], ...]
    loop_header: bool
    loop_depth: int
    #: ``(opcode name, count)`` pairs, sorted by name.
    opcode_mix: tuple[tuple[str, int], ...]
    #: Maximal ``(start_pc, length)`` runs of plain (guard-free) PCs.
    guard_free_runs: tuple[tuple[int, int], ...]

    @property
    def length(self) -> int:
        """Total instruction count across the chained blocks."""
        return sum(end - start for start, end in self.ranges)


@dataclass(frozen=True)
class SpecializationManifest:
    """Content-addressed result of :func:`analyze_specialization`."""

    program_digest: str
    program_name: str
    num_pcs: int
    nctx: int
    use_values: bool
    verdicts: tuple[PCVerdict, ...]
    superblocks: tuple[Superblock, ...]

    # ------------------------------------------------------ engine facing
    def plain_runs(self) -> list[int]:
        """Per-PC guard-free run lengths (0 where a guard is needed)."""
        return [v.plain_run for v in self.verdicts]

    def impossible_masks(self) -> list[int]:
        """Per-PC bitmask of statically-impossible rare paths."""
        return [v.mask for v in self.verdicts]

    def impossible_at(self, pc: int) -> frozenset[str]:
        """Rare paths that can never fire at *pc*."""
        return self.verdicts[pc].impossible

    # -------------------------------------------------------- documents
    def summary(self) -> dict[str, object]:
        """Aggregate counts for tables and JSON output."""
        reachable = [v for v in self.verdicts if v.reachable]
        per_path = {
            p: sum(1 for v in reachable if p in v.impossible)
            for p in RARE_PATHS
        }
        longest_run = max(
            (run for sb in self.superblocks for _, run in sb.guard_free_runs),
            default=0,
        )
        return {
            "num_pcs": self.num_pcs,
            "reachable_pcs": len(reachable),
            "plain_pcs": sum(1 for v in reachable if v.plain_run > 0),
            "impossible_counts": per_path,
            "num_superblocks": len(self.superblocks),
            "max_superblock_length": max(
                (sb.length for sb in self.superblocks), default=0
            ),
            "longest_guard_free_run": longest_run,
        }

    def _core_document(self) -> dict[str, object]:
        """The digest-covered content (excludes the program *name*)."""
        return {
            "schema": SPECIALIZE_SCHEMA_VERSION,
            "program_digest": self.program_digest,
            "num_pcs": self.num_pcs,
            "nctx": self.nctx,
            "use_values": self.use_values,
            "rare_paths": list(RARE_PATHS),
            "verdicts": [
                {
                    "pc": v.pc,
                    "op": v.op,
                    "reachable": v.reachable,
                    "impossible": sorted(v.impossible),
                    "plain_run": v.plain_run,
                }
                for v in self.verdicts
            ],
            "superblocks": [
                {
                    "id": sb.sid,
                    "entry_pc": sb.entry_pc,
                    "blocks": list(sb.blocks),
                    "ranges": [list(r) for r in sb.ranges],
                    "length": sb.length,
                    "loop_header": sb.loop_header,
                    "loop_depth": sb.loop_depth,
                    "opcode_mix": {name: n for name, n in sb.opcode_mix},
                    "guard_free_runs": [
                        list(r) for r in sb.guard_free_runs
                    ],
                }
                for sb in self.superblocks
            ],
        }

    def digest(self) -> str:
        """Content hash of the manifest (canonical JSON, name-independent).

        Keyed like :meth:`Program.digest`: two manifests with the same
        digest make identical claims about behaviourally-identical
        programs, so the digest identifies what a manifest claims.
        """
        blob = json.dumps(
            self._core_document(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(blob.encode()).hexdigest()

    def to_document(self) -> dict[str, object]:
        """Full canonical-JSON document (content plus name and summary)."""
        document = self._core_document()
        document["kind"] = "specialization-manifest"
        document["program_name"] = self.program_name
        document["summary"] = self.summary()
        document["digest"] = self.digest()
        return document


def _is_plain(inst: Instruction) -> bool:
    """True when the fast fetch loop's per-record guards cannot fire."""
    op = inst.op
    return not inst.is_control and op is not Opcode.HINT and op is not Opcode.HALT


def _refined_trap_impossible(
    va: ValueAnalysis, pc: int, inst: Instruction
) -> bool:
    """Interval proof that a ``DIV``/``REM`` at *pc* can never trap.

    Requires the divisor interval to exclude zero and both operands to
    carry finite bounds: floats carry unbounded intervals in the value
    lattice, so bounded operands are finite integers, and integer
    division by a provably-nonzero integer has no raising path.
    """
    rs1, rs2 = inst.rs1, inst.rs2
    if rs1 is None or rs2 is None:
        return False
    if va.cfg.block_of[pc] not in va.reachable:
        return False
    regs = va.state_at(pc)
    lo1, hi1 = interval_of(regs[rs1])
    if lo1 is None or hi1 is None:
        return False
    lo2, hi2 = interval_of(regs[rs2])
    return (lo2 is not None and lo2 > 0) or (hi2 is not None and hi2 < 0)


def _chain_blocks(
    cfg: CFG, reachable: set[int], headers: frozenset[int]
) -> list[list[int]]:
    """Partition the reachable blocks into single-entry chains.

    A block extends its predecessor's chain only when the link is the
    predecessor's sole (deduplicated) reachable successor, the block's
    sole reachable predecessor, and the block is not a natural-loop
    header — so every chain is enterable only at its first block, and
    every reachable block lands in exactly one chain.
    """
    assigned: set[int] = set()
    chains: list[list[int]] = []
    for bid in sorted(reachable):
        if bid in assigned:
            continue
        chain = [bid]
        assigned.add(bid)
        cur = bid
        while True:
            succs = {s for s in cfg.blocks[cur].succs if s in reachable}
            if len(succs) != 1:
                break
            (nxt,) = succs
            if nxt in assigned or nxt in headers:
                break
            preds = {p for p in cfg.blocks[nxt].preds if p in reachable}
            if preds != {cur}:
                break
            chain.append(nxt)
            assigned.add(nxt)
            cur = nxt
        chains.append(chain)
    return chains


def _superblocks(
    cfg: CFG,
    reachable: set[int],
    instructions: list[Instruction],
    plain: list[bool],
) -> tuple[Superblock, ...]:
    headers = frozenset(h for h, _ in natural_loops(cfg))
    depths = loop_depths(cfg)
    out: list[Superblock] = []
    for sid, chain in enumerate(_chain_blocks(cfg, reachable, headers)):
        ranges = tuple(
            (cfg.blocks[b].start, cfg.blocks[b].end) for b in chain
        )
        mix = Counter(
            instructions[pc].op.name
            for start, end in ranges
            for pc in range(start, end)
        )
        runs: list[tuple[int, int]] = []
        for start, end in ranges:
            pc = start
            while pc < end:
                if plain[pc]:
                    run_start = pc
                    while pc < end and plain[pc]:
                        pc += 1
                    runs.append((run_start, pc - run_start))
                else:
                    pc += 1
        entry = chain[0]
        out.append(
            Superblock(
                sid=sid,
                entry_pc=cfg.blocks[entry].start,
                blocks=tuple(chain),
                ranges=ranges,
                loop_header=entry in headers,
                loop_depth=depths[entry],
                opcode_mix=tuple(sorted(mix.items())),
                guard_free_runs=tuple(runs),
            )
        )
    return tuple(out)


def analyze_specialization(
    program: Program,
    nctx: int,
    *,
    use_values: bool = True,
) -> SpecializationManifest:
    """Run the specialization pass over *program* for *nctx* contexts.

    ``use_values=False`` restricts the trap verdict to its syntactic tier
    (no value-lattice facts); every other verdict is lattice-independent.
    The refined tier's ``impossible`` sets are supersets of the weak
    tier's at every PC.  A diverging value fixpoint quietly degrades to
    the syntactic tier — the manifest stays sound, just less precise.
    """
    instructions = program.instructions
    n = len(instructions)
    if n == 0:
        return SpecializationManifest(
            program_digest=program.digest(),
            program_name=program.name,
            num_pcs=0,
            nctx=nctx,
            use_values=use_values,
            verdicts=(),
            superblocks=(),
        )

    cfg = CFG.from_program(program)
    reachable = cfg.reachable()
    ops = decode_program(program)  # type: ignore[no-untyped-call]
    compiled = [fn is not None for fn in ops]
    plain = [_is_plain(inst) for inst in instructions]

    va: ValueAnalysis | None = None
    if use_values and any(inst.op in _DIV_OPS for inst in instructions):
        try:
            va = analyze_values_cfg(cfg, nctx)
        except ValueAnalysisDivergence:
            va = None

    plain_run = [0] * (n + 1)
    for pc in range(n - 1, -1, -1):
        if plain[pc]:
            plain_run[pc] = plain_run[pc + 1] + 1

    verdicts: list[PCVerdict] = []
    for pc, inst in enumerate(instructions):
        pc_reachable = cfg.block_of[pc] in reachable
        impossible: set[str] = set()
        if not pc_reachable:
            impossible.update(RARE_PATHS)
        else:
            op = inst.op
            if not inst.is_control:
                impossible.add("control")
            if op is not Opcode.HINT:
                impossible.add("hint")
            if op not in _SYNC_OPS:
                impossible.add("sync")
            if not inst.is_load:
                impossible.add("lvip_verify")
            if not inst.is_store:
                impossible.add("store_commit")
            if compiled[pc] and op in _TRAP_FREE_OPS:
                impossible.add("trap")
            elif (
                va is not None
                and op in _DIV_OPS
                and _refined_trap_impossible(va, pc, inst)
            ):
                impossible.add("trap")
        verdicts.append(
            PCVerdict(
                pc=pc,
                op=inst.op.name,
                reachable=pc_reachable,
                impossible=frozenset(impossible),
                plain_run=plain_run[pc],
            )
        )

    return SpecializationManifest(
        program_digest=program.digest(),
        program_name=program.name,
        num_pcs=n,
        nctx=nctx,
        use_values=use_values,
        verdicts=tuple(verdicts),
        superblocks=_superblocks(cfg, reachable, instructions, plain),
    )
