"""Vector-sum instances: k collections of vectors over a prime field, with
the question whether one vector per collection sums to zero.

Generators produce either planted YES instances or brute-force-certified NO
instances; certification is never probabilistic because downstream soundness
experiments need ground truth.

A vector is a plain tuple of residues in [0, q).  Instances, maps and linear
functions refuse anything else (residue_array): they are also read from files.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import BudgetExceeded, ContractViolation, PropertyViolation
from .rng import draws

TUPLE_BUDGET = 2_000_000  # tuples brute force enumerates at most


def check_int(name: str, value, low: int = 1) -> int:
    """value itself; refuses anything but an int >= low."""
    if type(value) is not int or value < low:
        raise ContractViolation(f"{name} must be an integer >= {low}, got {value!r:.60}")
    return value


def check_modulus(q) -> int:
    """q itself; refuses anything but an int in [2, 2^63], whose residues fit int64."""
    if check_int("modulus q", q, 2) > 2**63:
        raise ContractViolation(f"modulus {q} is past 2^63: its residues do not fit int64")
    return q


def residue_array(q: int, entries, shape: tuple[int, ...]) -> np.ndarray:
    """entries as a read-only int64 array of the given shape: an int64 array
    of exactly that shape, or lists or tuples nested to exactly that shape
    whose entries are ints (no bools, floats or strings), every entry in
    [0, q).  Refuses anything else, and a modulus check_modulus refuses."""
    check_modulus(q)
    a = None
    if isinstance(entries, np.ndarray):
        # one range test: a negative entry read as uint64 is at least 2^63 >= q
        if entries.dtype == np.int64 and entries.shape == shape and not (
                entries.size and int(entries.view(np.uint64).max()) >= q):
            a = entries.copy()
    else:
        flat = [entries]
        for n in shape:
            if not all(isinstance(x, (list, tuple)) and len(x) == n for x in flat):
                break
            flat = list(itertools.chain.from_iterable(flat))
        else:
            # ints in [0, q) fit int64, since q <= 2^63
            if set(map(type, flat)) <= {int} and (not flat or 0 <= min(flat) and max(flat) < q):
                a = np.array(flat, dtype=np.int64).reshape(shape)
    if a is None:
        raise ContractViolation(f"need residues in [0, {q}) of shape {shape}, got {entries!r:.60}")
    a.setflags(write=False)
    return a


def vector_sum(q: int, vectors) -> tuple[int, ...]:
    """Coordinate-wise sum mod q of one or more residue tuples."""
    vectors = iter(vectors)
    total = next(vectors)
    for v in vectors:
        total = [a + b for a, b in zip(total, v)]
    return tuple([a % q for a in total])


@dataclass(frozen=True)
class VecSumInstance:
    """k collections of m-dimensional vectors over F_q, with an optional
    planted witness (one index per collection) and provenance metadata.
    `vectors` holds every vector as a row, collections concatenated, as the
    read-only int64 array residue_array checked them in."""

    q: int
    k: int
    m: int
    collections: tuple[tuple[tuple[int, ...], ...], ...]
    planted: Optional[tuple[int, ...]] = None
    seed: Optional[int] = None
    generator: Optional[str] = None
    certificate: Optional[dict] = field(default=None, compare=False)

    def __post_init__(self):
        check_int("k", self.k)
        check_int("dimension m", self.m)
        cols = self.collections
        if not isinstance(cols, (list, tuple)) or len(cols) != self.k:
            raise ContractViolation(f"expected {self.k} collections")
        if not all(isinstance(us, (list, tuple)) and us for us in cols):
            raise ContractViolation("collections must be non-empty lists of vectors")
        rows = [u for us in cols for u in us]  # one residue check for all, modulus included
        object.__setattr__(self, "vectors", residue_array(self.q, rows, (len(rows), self.m)))
        cols = tuple(tuple(map(tuple, us)) for us in cols)
        object.__setattr__(self, "collections", cols)
        planted = self.planted
        if planted is not None:
            if (
                not isinstance(planted, (list, tuple))
                or len(planted) != self.k
                or not all(type(i) is int and 0 <= i < len(us) for i, us in zip(planted, cols))
            ):
                raise ContractViolation("planted witness needs one index per collection")
            object.__setattr__(self, "planted", tuple(planted))
            if any(vector_sum(self.q, (us[i] for i, us in zip(planted, cols)))):
                raise ContractViolation("planted witness does not sum to zero")

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(us) for us in self.collections)

    def tuple_count(self) -> int:
        return math.prod(self.sizes)

    def to_json(self) -> dict:
        return {
            "version": 1,
            "q": self.q,
            "k": self.k,
            "m": self.m,
            "collections": [[list(u) for u in us] for us in self.collections],
            "planted": list(self.planted) if self.planted is not None else None,
            "seed": self.seed,
            "generator": self.generator,
            "certificate": self.certificate,
        }

    @classmethod
    def from_json(cls, doc) -> "VecSumInstance":
        if not isinstance(doc, dict):
            raise ContractViolation("an instance document must be a JSON object")
        if doc.get("version") != 1:
            raise ContractViolation(f"unsupported instance version {doc.get('version')!r:.60}")
        return cls(
            q=doc.get("q"),
            k=doc.get("k"),
            m=doc.get("m"),
            collections=doc.get("collections"),
            planted=doc.get("planted"),
            seed=doc.get("seed"),
            generator=doc.get("generator"),
            certificate=doc.get("certificate"),
        )

    @classmethod
    def load(cls, path) -> "VecSumInstance":
        with open(path) as fh:
            return cls.from_json(json.load(fh))

    def fingerprint(self) -> str:
        return self._fingerprint

    @cached_property
    def _fingerprint(self) -> str:
        # the instance is immutable, so one hash serves every map checked on it
        doc = self.to_json()
        doc.pop("certificate", None)
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass(frozen=True)
class Witness:
    """A sum-zero tuple: one vector index per collection."""

    indices: tuple[int, ...]


def _uniform(rng: random.Random, q: int, m: int, count: int) -> list[tuple[int, ...]]:
    """count uniform vectors of F_q^m, drawn entry by entry in one call."""
    flat = draws(rng, q, count * m).tolist()
    return [tuple(flat[i * m : (i + 1) * m]) for i in range(count)]


def generate_planted(
    rng: random.Random, q: int, k: int, m: int, n_per_collection: int
) -> VecSumInstance:
    """Planted YES instance: the first k-1 collections are fully uniform; one
    tuple is completed by the negated partial sum and inserted at a random
    position of the last collection."""
    if n_per_collection < 1:
        raise ContractViolation("need at least one vector per collection")
    cols: list[list[tuple[int, ...]]] = []
    witness_prefix: list[int] = []
    for _ in range(k - 1):
        us = _uniform(rng, q, m, n_per_collection)
        idx = rng.randrange(n_per_collection)
        witness_prefix.append(idx)
        cols.append(us)
    partial = vector_sum(q, [(0,) * m] + [us[i] for us, i in zip(cols, witness_prefix)])
    last = _uniform(rng, q, m, n_per_collection - 1)
    pos = rng.randrange(n_per_collection)
    last.insert(pos, tuple(-e % q for e in partial))
    cols.append(last)
    return VecSumInstance(
        q=q,
        k=k,
        m=m,
        collections=tuple(tuple(us) for us in cols),
        planted=tuple(witness_prefix + [pos]),
        generator="planted",
    )


def brute_force_decide(inst: VecSumInstance) -> Optional[Witness]:
    """Full enumeration; returns the lexicographically first witness tuple or
    None after checking every tuple."""
    total = inst.tuple_count()
    if total > TUPLE_BUDGET:
        raise BudgetExceeded("tuple enumeration", required=total, budget=TUPLE_BUDGET)
    cols = inst.collections
    for indices in itertools.product(*(range(len(us)) for us in cols)):
        if not any(vector_sum(inst.q, (us[i] for us, i in zip(cols, indices)))):
            return Witness(indices=indices)
    return None


def generate_unsat(
    rng: random.Random,
    q: int,
    k: int,
    m: int,
    n_per_collection: int,
    max_retries: int = 200,
) -> VecSumInstance:
    """Uniform collections, rejection-sampled until brute force certifies NO.

    The returned instance carries a certificate recording the exhaustive
    check.  Raises PropertyViolation when retries run out, which is the
    expected outcome when q^m is small relative to the tuple count.
    """
    total = n_per_collection**k
    if total > TUPLE_BUDGET:
        raise BudgetExceeded("tuple enumeration", required=total, budget=TUPLE_BUDGET)
    for attempt in range(max_retries):
        vectors, n = _uniform(rng, q, m, k * n_per_collection), n_per_collection
        cols = tuple(tuple(vectors[i * n : (i + 1) * n]) for i in range(k))
        inst = VecSumInstance(q=q, k=k, m=m, collections=cols, generator="unsat")
        if brute_force_decide(inst) is None:
            certificate = {"certified_no": True, "tuples_checked": total, "attempts": attempt + 1}
            return replace(inst, certificate=certificate)
    raise PropertyViolation(
        f"could not sample a NO instance in {max_retries} attempts "
        f"(q^m={q**m} vs {total} tuples)"
    )


def paper_dimension(k: int, n: int) -> int:
    """Schedule-faithful ambient dimension: ceil(k^2 * log2 n)."""
    return max(1, math.ceil(k * k * (math.log2(n) if n > 1 else 1)))
