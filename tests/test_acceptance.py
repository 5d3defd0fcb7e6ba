"""Acceptance criteria, run end to end at their stated tolerances.

Each criterion is asserted through the seeded experiment suites (master
seed 0) and reported as one PASS/FAIL line, so `pytest -s
tests/test_acceptance.py` doubles as the acceptance report.

 1. completeness: 20 planted instances per parameter point give verified
    cliques of exactly the target size, and one planted clique each of
    390,625 vertices at (5,2,2), of 5,764,801 at (7,2,1) and of 214,358,881
    at (11,2,1) verifies
 2. Fourier identities: enumeration vs formula within 1e-9 on 50 tables
 3. list-decoder output equals the brute-force agreement filter, 120 tables
 4. vertex-count formula matches brute enumeration at 6 parameter points
 5. soundness: certified NO instances give exact max clique below target
 6. extractor round trip: sum-zero witness with zero residuals, 20 runs
 7. goodness failure rates with Wilson intervals plus the block-count trend
 8. linearity-test baselines: exact 1 for linear, 1/q average for random
 9. parameter schedule: first scheduled prime and the big-integer bound
"""

import hashlib
import json
import time

import pytest

from gapclique.experiments import (
    run_suite,
    COMPLETENESS_RUNS,
    EXTRACTION_MIX,
    SOUNDNESS_RUNS,
)

SEED = 0

CRITERIA = {
    1: "completeness reproduction (planted cliques verified pairwise)",
    2: "exact Fourier identities (|LHS-RHS| <= 1e-9)",
    3: "list-decoder oracle equivalence (zero mismatches)",
    4: "vertex-count formula vs brute enumeration",
    5: "soundness at desk scale (exact max clique below target)",
    6: "extractor round trip (zero residuals, sum-zero witness)",
    7: "good-map failure rates (Wilson intervals + trend)",
    8: "linearity-test baselines",
    9: "parameter schedule (primality scan + big-integer bound)",
}

RUNTIME_LIMITS = {"completeness": 60.0, "lintest": 30.0, "soundness": 600.0}

# the first 16 hex digits of the SHA-256 of each suite's rows, serialized as
# the experiment command writes them; a change that adds or alters rows
# edits its pin
SUITE_PINS = {
    "completeness": "8d18df3dabc5b3ee",
    "lintest": "c3f9465903a86f02",
    "soundness": "a8469f52d10b01a6",
    "props": "c3693c1f9df9df8b",
}


@pytest.fixture(scope="module")
def suite_rows():
    rows = {}
    durations = {}
    for suite in SUITE_PINS:
        t0 = time.monotonic()
        rows[suite] = run_suite(suite, seed=SEED)
        durations[suite] = time.monotonic() - t0
    return rows, durations


@pytest.fixture(scope="module")
def all_rows(suite_rows):
    rows, durations = suite_rows
    return [row for suite in rows.values() for row in suite], durations


def rows_for(all_rows, criterion):
    return [r for r in all_rows[0] if r["criterion"] == criterion]


@pytest.mark.parametrize("criterion", sorted(CRITERIA))
def test_criterion(all_rows, criterion):
    rows = rows_for(all_rows, criterion)
    assert rows, f"criterion {criterion} produced no rows"
    failed = [r for r in rows if r["status"] == "fail"]
    verdict = "FAIL" if failed else "PASS"
    print(f"\nCRITERION {criterion} [{verdict}]: {CRITERIA[criterion]}")
    for r in rows:
        print(f"    [{r['status']:6s}] {r['name']} -> {str(r['measured'])[:100]}")
    assert not failed, f"criterion {criterion} failed rows: {[r['name'] for r in failed]}"


def test_row_coverage_matches_stated_counts(all_rows):
    rows, _ = all_rows
    c1 = [r for r in rows if r["criterion"] == 1]
    runs = f"{COMPLETENESS_RUNS}/{COMPLETENESS_RUNS}"
    assert len(c1) == 7 and all(r["expected"] == runs for r in c1[:4])
    assert "(q,k,l)=(5,2,2)" in c1[4]["name"] and c1[4]["expected"] == "1/1"
    assert "(q,k,l)=(7,2,1)" in c1[5]["name"] and c1[5]["expected"] == "1/1"
    assert "(q,k,l)=(11,2,1)" in c1[6]["name"] and c1[6]["expected"] == "1/1"
    c4 = [r for r in rows if r["criterion"] == 4]
    assert len(c4) == 6
    c6 = [r for r in rows if r["criterion"] == 6]
    total = sum(count for _, count in EXTRACTION_MIX)
    assert total == 20 and c6[0]["expected"] == "20/20"
    c5 = [r for r in rows if r["criterion"] == 5 and r["status"] != "report"]
    assert SOUNDNESS_RUNS == 10 and len(c5) == 1


def test_runtime_budgets(all_rows):
    _, durations = all_rows
    for suite, limit in RUNTIME_LIMITS.items():
        assert durations[suite] <= limit, f"{suite} took {durations[suite]:.1f}s > {limit}s"


@pytest.mark.parametrize("suite", sorted(SUITE_PINS))
def test_suite_rows_pinned(suite_rows, suite):
    text = "".join(json.dumps(row, sort_keys=True, default=str) + "\n" for row in suite_rows[0][suite])
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == SUITE_PINS[suite]
