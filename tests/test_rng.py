"""The residue drawer against the randrange loop it replaces."""

import random

import numpy as np
import pytest

from gapclique import rng as rngmod
from gapclique.errors import BudgetExceeded, ContractViolation


# 2 and 5 reject often; 65537 and 2^32 - 5 use the top 17 and all 32 bits of
# a word; 2^32 + 15 and 2^64 + 13 take two and three words a draw; 95 and 96
# lie on either side of the switch to blocks of words
@pytest.mark.parametrize("bound", [1, 2, 3, 5, 65537, 2**32 - 5, 2**32 + 15, 2**64 + 13])
@pytest.mark.parametrize("count", [0, 1, 95, 96, 4096])
def test_draws_are_randrange_draws(bound, count):
    ours, ref = rngmod.stream(bound, f"draws/{count}"), rngmod.stream(bound, f"draws/{count}")
    want = [ref.randrange(bound) for _ in range(count)]
    got = rngmod.draws(ours, bound, count)
    assert got.shape == (count,) and got.dtype == (np.int64 if bound < 2**63 else object)
    assert got.tolist() == want and all(type(x) is int for x in got.tolist())
    assert ours.getstate() == ref.getstate()


def test_draws_continue_the_stream():
    # consecutive calls of either size read on where the last one stopped
    ours, ref = random.Random(3), random.Random(3)
    for bound, count in [(7, 5), (7, 300), (2**40, 3), (5, 96), (3, 1)]:
        assert rngmod.draws(ours, bound, count).tolist() == [ref.randrange(bound) for _ in range(count)]
    assert ours.getstate() == ref.getstate()


@pytest.mark.parametrize("bound", [0, -1, -(2**40)])
@pytest.mark.parametrize("count", [0, 1, 200])
def test_bound_below_one_is_refused(bound, count):
    # randrange(0) raises, where a rejection loop at bound 0 would never end
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ContractViolation):
        rngmod.draws(rng, bound, count)
    assert rng.getstate() == state


@pytest.mark.parametrize("bound", [3, 2**40])
def test_draws_past_the_budget_refused(bound):
    # a block of 2^26 words is 2^31 bits, more than getrandbits takes
    assert rngmod.DRAW_BUDGET < 2**26
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(BudgetExceeded) as exc:
        rngmod.draws(rng, bound, rngmod.DRAW_BUDGET + 1)
    assert (exc.value.what, exc.value.required, exc.value.budget) == (
        "random draws", rngmod.DRAW_BUDGET + 1, rngmod.DRAW_BUDGET)
    assert rng.getstate() == state
