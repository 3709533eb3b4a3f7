"""Phase 1's draw of S against its oracle, ``random.Random.sample``.

``core.sampling.sorted_sample`` reproduces the set branch of CPython's
``random.Random.sample`` with one ``getrandbits`` call.  The picks *and*
the rng state it leaves must be the stdlib's, bit for bit: S-bar's seed
and RANGE ENFORCER's removal picks are later draws from the same rng.
An interpreter whose ``random.sample`` draws differently fails here
instead of silently moving releases.
"""

import random

import pytest

from repro.core import sampling
from repro.core.sampling import _stdlib_setsize, sorted_sample

SEEDS = (0, 1, 7, 2**40 + 3)
#: every protected-table size the end-to-end benchmark releases from
#: above 4 117: orders (join_cold's tpch4), points (ml_cold), lineitem
#: (scan_cold) and lineitem's incr_window window, 20 000 to 20 100.
BENCHMARK_SIZES = (5_000, 8_000, 10_000, 20_000, 20_100)


def _grid():
    for k in (1, 5, 6, 1000):
        setsize = _stdlib_setsize(k)
        for population in (k, setsize, setsize + 1, 3 * setsize + 17,
                           10**6, 2**32 - 1, 2**32):
            if population >= k:
                yield population, k


def _refuse(*args, **kwargs):
    raise AssertionError("random.Random.sample ran")


@pytest.mark.parametrize("population, k", list(_grid()))
@pytest.mark.parametrize("seed", SEEDS)
def test_picks_and_state_are_the_stdlibs(seed, population, k):
    mine, oracle = random.Random(seed), random.Random(seed)
    picks = sorted_sample(mine, population, k)
    assert picks.tolist() == sorted(oracle.sample(range(population), k))
    assert mine.getstate() == oracle.getstate()


def test_setsize_is_the_stdlibs_threshold():
    assert [_stdlib_setsize(k) for k in (1, 5, 6, 100, 1000)] == [
        21, 21, 85, 1045, 4117,
    ]


class _Subclass(random.Random):
    pass


class _OwnRandom(random.Random):
    """Draws ``_randbelow`` from ``random()``, not ``getrandbits``."""

    def random(self):
        return super().random() / 2


@pytest.mark.parametrize("cls", [_Subclass, _OwnRandom])
@pytest.mark.parametrize("population, k", [(30, 5), (20_000, 1000)])
def test_a_subclass_draws_through_its_own_sample(cls, population, k):
    mine, oracle = cls(3), cls(3)
    picks = sorted_sample(mine, population, k)
    assert picks.tolist() == sorted(oracle.sample(range(population), k))
    assert mine.getstate() == oracle.getstate()


@pytest.mark.parametrize("population", BENCHMARK_SIZES)
def test_benchmark_sizes_take_the_batched_branch(population, monkeypatch):
    assert population > _stdlib_setsize(1000)
    expected = sorted(random.Random(3).sample(range(population), 1000))
    monkeypatch.setattr(random.Random, "sample", _refuse)
    assert sorted_sample(random.Random(3), population, 1000).tolist() \
        == expected


def test_pool_branch_runs_the_stdlib(monkeypatch):
    monkeypatch.setattr(random.Random, "sample", _refuse)
    with pytest.raises(AssertionError, match="random.Random.sample ran"):
        sorted_sample(random.Random(3), _stdlib_setsize(1000), 1000)


@pytest.mark.parametrize("chunk", [1, 7, 1000])
def test_a_shortfall_draws_another_chunk(chunk, monkeypatch):
    # Half the candidates are rejected just above a power of two.
    population = (1 << 14) + 1
    monkeypatch.setattr(sampling, "_chunk_words", lambda *_: chunk)
    for seed in range(5):
        mine, oracle = random.Random(seed), random.Random(seed)
        assert sorted_sample(mine, population, 1000).tolist() == sorted(
            oracle.sample(range(population), 1000)
        )
        assert mine.getstate() == oracle.getstate()
