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
    """
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:16], "big"))
