"""Prime moduli: a deterministic primality test and the next prime.

Field data elsewhere are int64 numpy arrays of residues in [0, q) (checked by
vecsum.residue_array); int tuples remain in files, vertices, coefficients and reports.
"""

from __future__ import annotations

# Miller-Rabin with this fixed witness set is a proven deterministic test for
# every n below 3.3e24 (covers any desk-scale modulus and the scheduled primes
# up to k = 6).  Larger n additionally get witnesses derived from n itself.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_PROVEN_BOUND = 3_317_044_064_679_887_385_961_981
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_prime(n: int) -> bool:
    """Deterministic primality test (Miller-Rabin, fixed witness set)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    witnesses = list(_MR_WITNESSES)
    if n >= _MR_PROVEN_BOUND:
        # beyond the proven range, pile on deterministic extra witnesses
        witnesses += [pow(w, 2, n) + 2 for w in range(41, 41 + 24)]
    for a in witnesses:
        a %= n
        if a in (0, 1, n - 1):
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n."""
    c = n + 1
    if c <= 2:
        return 2
    if c % 2 == 0:
        c += 1
    while not is_prime(c):
        c += 2
    return c
