"""Host-speed probe: a fixed pure-Python workload, timed in a fresh interpreter.

The host this benchmark runs on is shared, and its speed drifts by a
factor of up to two over minutes, the same for every workload (see
README.md, "Host-speed normalisation").  ``run.py`` runs this probe,
two copies at once, before the first timed pass and after each pass, and
scales each pass's times by ``REFERENCE_S`` over the mean probe time
around it, so that the time metrics read as seconds on a host where the
probe takes ``REFERENCE_S``.

The probe imports nothing from the simulator, so a change to the program
cannot move it.  Its work has the shape of the program's: an interpreted
register machine, like the engines' per-cycle loops, and object graphs
that are pickled, unpickled, hashed and sorted, like the result cache and
job keying.

Run as a script, it prints the probe's time in seconds.
"""

from __future__ import annotations

import hashlib
import pickle
import random
import time

#: About the median probe time, two copies at once, on the host the
#: baseline was recorded on; the time metrics read in seconds at this
#: host speed.
REFERENCE_S = 0.45


def _machine(rng: random.Random, steps: int) -> int:
    prog = [
        (rng.randrange(4), rng.randrange(8), rng.randrange(8),
         rng.randrange(1, 7))
        for _ in range(64)
    ]
    regs = [1] * 8
    pc = 0
    for _ in range(steps):
        op, dst, src, imm = prog[pc]
        if op == 0:
            regs[dst] = (regs[src] + imm) & 0xFFFF
        elif op == 1:
            regs[dst] = (regs[src] * imm) & 0xFFFF
        elif op == 2:
            regs[dst] ^= regs[src]
        else:
            pc = (pc + regs[src]) % 64
            continue
        pc = (pc + 1) % 64
    return sum(regs)


def _records(rng: random.Random, count: int) -> int:
    records = [
        {
            "app": f"app{i % 16}",
            "pc": i,
            "ops": [rng.randrange(100) for _ in range(12)],
            "config": (i % 5, "MMT"),
        }
        for i in range(count)
    ]
    loaded = pickle.loads(pickle.dumps(records))
    keys = sorted(
        hashlib.sha256(repr(record).encode()).hexdigest()
        for record in loaded
    )
    return len(keys)


def probe() -> float:
    """Seconds the fixed workload takes in this interpreter."""
    rng = random.Random(1)
    start = time.perf_counter()
    _machine(rng, 2_000_000)
    _records(rng, 16_000)
    return time.perf_counter() - start


if __name__ == "__main__":
    print(repr(probe()))
