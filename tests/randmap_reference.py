"""The goodness checks' numbered case walk, kept as the differential
reference for randmap's engine: every case number in order, or the Monte
Carlo draws, in batches of 1,024, each batch split among the parts by
searchsorted and decoded into digits with a divmod per radix.

run_check takes the arguments of randmap._run_check, so a test can swap it
in and compare the certificates the two walks give for the same parts.
"""

import itertools
import math

import numpy as np

from gapclique.errors import BudgetExceeded, ContractViolation, PropertyViolation
from gapclique import randmap
from gapclique.randmap import GoodMapCertificate

BATCH = 1024


def digits(t, radices):
    """Mixed-radix digits of the case numbers t, most significant first."""
    out = []
    for r in reversed(radices):
        out.append(np.asarray(t % r, dtype=np.int64))
        t = t // r
    return out[::-1]


def run_check(name, what, parts, case_bytes, g, inst, mode, samples, rng):
    sizes = [math.prod(radices) for radices, _, _ in parts]
    ends = list(itertools.accumulate(sizes))
    total = ends[-1]
    if mode == "exhaustive":
        if total > randmap.CHECK_BUDGET:
            raise BudgetExceeded(f"{what} enumeration", required=total, budget=randmap.CHECK_BUDGET)
        batches = (np.arange(s, min(s + BATCH, total)) for s in range(0, total, BATCH))
    elif mode == "monte_carlo":
        if rng is None or samples < 1:
            raise ContractViolation("monte_carlo mode needs rng and samples >= 1")
        dtype = np.int64 if total < 2**63 else object
        batches = (
            np.array([rng.randrange(total) for _ in range(min(BATCH, samples - s))], dtype=dtype)
            for s in range(0, samples, BATCH)
        )
    else:
        raise ContractViolation(f"unknown mode {mode!r}")
    checked = 0
    for idx in batches:
        part_of = np.searchsorted(ends, idx, side="right")
        counted, failed = np.zeros((2, len(idx)), dtype=bool)
        for p, (radices, evaluate, _) in enumerate(parts):
            sel = part_of == p
            if sel.any():
                counts, passes, _ = evaluate(digits(idx[sel] - (ends[p] - sizes[p]), radices))
                counted[sel], failed[sel] = counts, counts & ~passes
        if failed.any():
            j = int(np.argmax(failed))
            p = part_of[j]
            radices, evaluate, describe = parts[p]
            d = digits(idx[j : j + 1] - (ends[p] - sizes[p]), radices)
            counterexample = describe([int(x[0]) for x in d], evaluate(d)[2][0])
            checked += int(np.count_nonzero(counted[: j + 1]))
            return GoodMapCertificate(
                name, mode, False, checked, counterexample, inst.fingerprint(), g.seed
            )
        checked += int(np.count_nonzero(counted))
    if mode == "monte_carlo" and checked == 0:
        raise PropertyViolation(
            f"{what} check inconclusive: none of {samples} Monte Carlo samples is a countable case"
        )
    return GoodMapCertificate(name, mode, True, checked, None, inst.fingerprint(), g.seed)
