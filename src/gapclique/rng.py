"""Labeled random streams derived from a single 64-bit seed.

Every stage of the pipeline draws from its own named stream ("matrices",
"instance", "gamma-fill", "greedy", ...) so stages can be replayed
independently and reordering one stage never perturbs another.
"""

import hashlib
import random


def stream(seed: int, label: str) -> random.Random:
    """Return a deterministic RNG for (seed, label).

    The stream seed is a SHA-256 digest of the pair, so each label gives a
    statistically independent stream and the mapping is stable across
    platforms and Python versions.

    Cost per try of experiments.certified_map at (3,1,2), a 12-entry map,
    on a 2-vCPU x86 VM: the digest 1.4-2.4 us, seeding the Mersenne Twister
    7-10 us, the 12 draws 7-11 us, and the wellspread screen 2-3 us.
    Seeding is the floor for any stream that reproduces these states, so
    only the draws can get cheaper.
    """
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:16], "big"))
