"""Labeled random streams derived from a single 64-bit seed.

Every stage of the pipeline draws from its own named stream ("matrices",
"instance", "gamma-fill", "greedy", ...) so stages can be replayed
independently and reordering one stage never perturbs another.
"""

import hashlib
import math
import random

import numpy as np

from .errors import ContractViolation

_BLOCK_ENTRIES = 96  # loop tries that cost about as much as one round of the block path


def stream(seed: int, label: str) -> random.Random:
    """Return a deterministic RNG for (seed, label).

    The stream seed is a SHA-256 digest of the pair, so each label gives a
    statistically independent stream and the mapping is stable across
    platforms and Python versions.

    Cost per try of experiments.certified_map at (3,1,2), a 12-entry map,
    on a 2-vCPU x86 VM: the digest 0.7-2.4 us, seeding the Mersenne Twister
    6-10 us, the 12 draws 1.8 us through `draws` (3.0-3.5 us as a randrange
    loop on the same machine), and the wellspread screen 2-3 us.  Seeding
    is the floor for any stream that reproduces these states.
    """
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:16], "big"))


def draws(rng: random.Random, bound: int, count: int) -> np.ndarray:
    """The values of [rng.randrange(bound) for _ in range(count)], leaving
    rng in the same state, as an int64 array (of Python ints past 2^63).  A
    draw repeats getrandbits(bound.bit_length()) until it falls below
    bound, as randrange does.  Below 2^32 such a draw keeps the top bits of
    one 32-bit word, so the words can be read in rounds, each a block as
    long as the draws still missing.  A word is kept with probability
    p = bound / 2^bits (at least 1/2), so the loop makes about count / p
    tries and the blocks take about 1 + log(count) / log(1 / (1 - p))
    rounds; the blocks are read when their rounds cost fewer tries."""
    if bound < 1:
        raise ContractViolation(f"draws need a bound >= 1, got {bound!r:.60}")
    bits, draw = bound.bit_length(), rng.getrandbits
    keep = bound / 2**bits
    # below _BLOCK_ENTRIES draws the blocks never pay, and that test is cheaper
    if bits > 32 or count < _BLOCK_ENTRIES or count / keep < _BLOCK_ENTRIES * (
            1 + math.log(count) / -math.log1p(-keep)):
        out = []
        for _ in range(count):
            r = draw(bits)
            while r >= bound:
                r = draw(bits)
            out.append(r)
        return np.array(out, dtype=np.int64 if bits < 64 else object)
    out = np.zeros(0, dtype=np.int64)
    while len(out) < count:
        missing = count - len(out)
        words = np.frombuffer(draw(32 * missing).to_bytes(4 * missing, "little"), "<u4") >> (32 - bits)
        out = np.concatenate([out, words[words < bound]])
    return out
