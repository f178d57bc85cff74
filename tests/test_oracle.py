"""Exact counting oracles: frozen anchors, dual-route agreement, sampling."""

import math
import random
from bisect import bisect_left
from fractions import Fraction

import pytest

from biscount import (
    CapacityError,
    ExactSampler,
    InvalidInputError,
    exact_count_bipartite,
    exact_count_general,
    exact_distribution,
    exact_hardcore,
    is_expanding,
)
from biscount import oracle
from biscount.graphs import SideSet, neighborhood_bits, two_linked_component_bits
from biscount.instances import complete_bipartite, even_cycle, hypercube, random_shift
from biscount.oracle import (
    DRAW_BITS,
    DRAW_DEN,
    count_independent_in,
    iter_independent_sets,
    quantize,
)

from util import P1, brute_i_general, cycle_transfer, random_instances, tv


def test_frozen_counts():
    assert exact_count_bipartite(even_cycle(8)).value == 47
    assert exact_count_bipartite(complete_bipartite(2)).value == 7
    assert exact_count_bipartite(hypercube(3)).value == 35
    assert exact_count_bipartite(hypercube(4)).value == 743


def test_frozen_hardcore_values():
    assert exact_hardcore(complete_bipartite(2), Fraction(1, 2)).value == Fraction(7, 2)
    assert exact_hardcore(even_cycle(8), Fraction(2)).value == 257
    # lambda = 1 reduces to plain counting
    assert exact_hardcore(even_cycle(8), Fraction(1)).value == 47


def test_bipartite_sweep_agrees_with_general_branching():
    for G in random_instances(30, seed=101, max_side=12):
        a = exact_count_bipartite(G).value
        b = exact_count_general(G.to_general()).value
        assert a == b


def test_transfer_matrix_agreement_on_cycles():
    for m in range(4, 21, 2):
        G = even_cycle(m)
        for lam in (Fraction(1, 2), Fraction(1), Fraction(2)):
            assert exact_hardcore(G, lam).value == cycle_transfer(m, lam)


def test_general_count_matches_brute():
    for G in random_instances(8, seed=7, max_side=7):
        H = G.to_general()
        assert exact_count_general(H).value == brute_i_general(H)


def test_count_independent_in_restricts_to_region():
    G = even_cycle(8).to_general()
    full = (1 << G.n) - 1
    assert count_independent_in(G, full) == 47
    assert count_independent_in(G, 0) == 1
    rng = random.Random(3)
    for _ in range(10):
        region = rng.randrange(1 << G.n)
        want = sum(
            1
            for mask in range(1 << G.n)
            if mask & ~region == 0 and G.is_independent(mask)
        )
        assert count_independent_in(G, region) == want


def test_iter_independent_sets_complete_and_valid():
    G = even_cycle(8)
    pairs = list(iter_independent_sets(G))
    assert len(pairs) == 47
    assert len(set(pairs)) == 47
    for xb, yb in pairs:
        for x in range(G.n_x):
            if xb >> x & 1:
                assert G.rows("X")[x] & yb == 0


def test_size_caps_raise(monkeypatch):
    monkeypatch.setattr(oracle, "SWEEP_CAP", 4)
    with pytest.raises(CapacityError, match="^bipartite sweep capped at nX=4, got 6$"):
        exact_count_bipartite(even_cycle(12))
    monkeypatch.setattr(oracle, "GENERAL_CAP", 8)
    with pytest.raises(CapacityError, match="^general counter capped at 8 vertices, got 12$"):
        exact_count_general(even_cycle(12).to_general())


def test_exact_distribution_normalizes_and_weights():
    G = even_cycle(8)
    for lam in (Fraction(1), Fraction(1, 2)):
        dist = exact_distribution(G, lam)
        assert sum(dist.values()) == 1
        base = dist[(0, 0)]
        for (xb, yb), p in dist.items():
            assert p == base * lam ** (xb.bit_count() + yb.bit_count())


def test_exact_distribution_expanding_component_census(c8, p1):
    # P(every 2-linked X-component of the drawn set is expanding) at
    # lambda = 1; the polymer census arrives at 42/47 by a different route
    dist = exact_distribution(c8, Fraction(1))
    good = Fraction(0)
    for (xb, _), p in dist.items():
        comps = two_linked_component_bits(c8, "X", xb)
        if all(is_expanding(c8, SideSet("X", c), p1) for c in comps):
            good += p
    assert good == Fraction(42, 47)


def test_exact_sampler_reproducible_and_valid(c8):
    a = ExactSampler(c8, Fraction(1), seed=42)
    b = ExactSampler(c8, Fraction(1), seed=42)
    draws_a = [a.sample() for _ in range(50)]
    draws_b = [b.sample() for _ in range(50)]
    assert draws_a == draws_b
    legal = set(iter_independent_sets(c8))
    assert set(draws_a) <= legal


@pytest.mark.parametrize("lam", [Fraction(1), Fraction(1, 2)])
def test_exact_sampler_thresholds_realize_the_distribution(c8, lam):
    # a uniform 96-bit u draws set i iff t_{i-1} <= u < t_i, so set i has
    # probability (t_i - t_{i-1}) / 2^96
    dist = exact_distribution(c8, lam)
    s = ExactSampler(c8, lam)
    assert s.keys == list(dist)
    assert s.thresholds[-1] == DRAW_DEN
    prev = 0
    for key, t in zip(s.keys, s.thresholds):
        assert abs(Fraction(t - prev, DRAW_DEN) - dist[key]) < Fraction(1, DRAW_DEN)
        prev = t


@pytest.mark.parametrize(
    "G, lam",
    [
        (even_cycle(8), Fraction(1)),
        (even_cycle(8), Fraction(1, 2)),
        (random_shift(8, 3, seed=11), Fraction(2, 3)),
    ],
    ids=["c8-1", "c8-1/2", "shift8-2/3"],
)
def test_exact_sampler_thresholds_equal_the_fraction_route(G, lam):
    # the integer route over the common denominator q^(nX+nY) quantizes the
    # same cumulative probabilities as summing the exact table in Fractions
    dist = exact_distribution(G, lam)
    want = []
    acc = Fraction(0)
    for prob in dist.values():
        acc += prob
        want.append(quantize(acc))
    s = ExactSampler(G, lam)
    assert s.keys == list(dist)
    assert s.thresholds == want


@pytest.mark.parametrize("n", [1, 2, 47, 37_730])
def test_uniform_draw_index_equals_the_threshold_bisect(n):
    # at lambda = 1 the thresholds are t_i = floor((i + 1) 2^96 / N) and a
    # draw r takes the first i with t_i > r; the sampler reads that i as
    # ((r + 1) N - 1) >> 96, checked here at every boundary r = t_i - 1, t_i
    thresholds = [(c << DRAW_BITS) // n for c in range(1, n + 1)]
    rs = [r for t in thresholds for r in (t - 1, t) if r < DRAW_DEN]
    draws = iter(rs)
    s = ExactSampler.__new__(ExactSampler)
    s.keys, s._uniform = list(range(n)), True
    s._getrandbits = lambda bits: next(draws)
    assert [s.sample() for _ in rs] == [bisect_left(thresholds, r + 1) for r in rs]


def test_uniform_sampler_builds_no_thresholds_until_read(c8):
    # at lambda = 1 a draw needs no table; read, the table is the one the
    # threshold bisect above uses, and the draws are the bisect's
    s = ExactSampler(c8, Fraction(1), seed=5)
    draws = [s.sample() for _ in range(200)]
    assert "thresholds" not in vars(s)
    assert s.thresholds == [(c << DRAW_BITS) // 47 for c in range(1, 48)]
    rng = random.Random(5)
    assert draws == [
        s.keys[bisect_left(s.thresholds, rng.getrandbits(DRAW_BITS) + 1)] for _ in range(200)
    ]


def test_exact_sampler_checks_fugacity_and_table_cap(c8, monkeypatch):
    with pytest.raises(InvalidInputError):
        ExactSampler(c8, Fraction(0))
    monkeypatch.setattr(oracle, "TABLE_CAP", 46)
    with pytest.raises(CapacityError, match="^distribution table capped at 46 sets, need 47$"):
        ExactSampler(even_cycle(8), Fraction(1))
    monkeypatch.setattr(oracle, "TABLE_CAP", 47)
    assert len(ExactSampler(even_cycle(8), Fraction(1)).keys) == 47


def test_table_cap_refused_from_side_sizes_before_the_sweep(monkeypatch):
    # every subset of one side is independent, so C8 has at least
    # 2^4 + 2^4 - 1 = 31 sets: past a cap of 30 without counting them
    def no_sweep(G, term):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(oracle, "_gray_sweep", no_sweep)
    monkeypatch.setattr(oracle, "TABLE_CAP", 30)
    want = "^distribution table capped at 30 sets, need at least 31$"
    for make in (ExactSampler, exact_distribution):
        with pytest.raises(CapacityError, match=want):
            make(even_cycle(8))


def test_table_cap_sweep_stops_once_past_the_cap(monkeypatch):
    # shift(20,3)'s sides pass the side-size check, but it has 38,526,849
    # sets; the one pass over X counts the 2^(n_y - |N(S)|) sets of each S
    # in ascending order, every term positive, and stops at the 33rd of its
    # 2^20 subsets, where the running total first passes the cap, naming
    # that total as a lower bound; no counting sweep runs and no set is
    # listed
    def never(*args):
        raise AssertionError("a sweep or a listing ran")

    G = random_shift(20, 3, 1)
    running = [0]
    for s in range(33):
        running.append(running[-1] + (1 << (G.n_y - neighborhood_bits(G, "X", s).bit_count())))
    assert running[32] <= oracle.TABLE_CAP < running[33] == 2125312
    monkeypatch.setattr(oracle, "_gray_sweep", never)
    monkeypatch.setattr(oracle, "_sets_avoiding", never)
    want = f"^distribution table capped at {oracle.TABLE_CAP} sets, need at least 2125312$"
    for make in (ExactSampler, exact_distribution):
        with pytest.raises(CapacityError, match=want):
            make(random_shift(20, 3, 1))


# the first draws of ExactSampler(random_shift(12, 3, 1), lam, seed=5)
PINNED_ORACLE_DRAWS = {
    Fraction(1): [(1808, 256), (1339, 256), (1795, 16), (580, 0), (456, 64)],
    Fraction(1, 2): [(1120, 1024), (1025, 368), (1104, 532), (354, 16), (256, 320)],
}


@pytest.mark.parametrize("lam", sorted(PINNED_ORACLE_DRAWS), ids=str)
def test_exact_sampler_builds_in_one_pass(lam, monkeypatch):
    # the table is counted and listed in one pass over X, with no counting
    # sweep: shift(12,3)'s 35,327 sets still build, in the order
    # iter_independent_sets names them, and the draws are the ones a sweep
    # followed by a listing gave
    G = random_shift(12, 3, 1)
    keys = list(iter_independent_sets(G))

    def no_sweep(G, term):
        raise AssertionError("a counting sweep ran")

    monkeypatch.setattr(oracle, "_gray_sweep", no_sweep)
    sampler = ExactSampler(G, lam, seed=5)
    assert sampler.keys == keys and len(keys) == 35327
    assert [sampler.sample() for _ in range(5)] == PINNED_ORACLE_DRAWS[lam]


def test_exact_sampler_empirical_distribution(c8):
    s = ExactSampler(c8, Fraction(1), seed=7)
    m = 20000
    counts: dict = {}
    for _ in range(m):
        k = s.sample()
        counts[k] = counts.get(k, 0) + 1
    emp = {k: Fraction(v, m) for k, v in counts.items()}
    dist = exact_distribution(c8, Fraction(1))
    assert tv(emp, dist) < Fraction(5, 100)
