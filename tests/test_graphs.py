"""Bit-mask graph core: closures, 2-linked structure, expansion predicates."""

import random
from fractions import Fraction

import pytest

from biscount import (
    BipartiteGraph,
    ExpansionParams,
    InvalidInputError,
    SideSet,
    check_alpha_expander,
    closure,
    dump_graph,
    is_expanding,
    is_two_linked,
    load_graph,
    neighborhood,
    two_linked_components,
)
from biscount.errors import GraphFormatError
from biscount.graphs import (
    bits_of,
    closure_bits,
    iter_bits,
    neighborhood_bits,
    opposite,
    two_linked_sets,
)
from biscount.instances import even_cycle, random_regular

from util import P1, P100, random_instances


def random_subsets(G, side, rng, count=40):
    n = G.side_size(side)
    for _ in range(count):
        bits = rng.randrange(1, 1 << n)
        yield SideSet(side, bits)


def test_bits_helpers_roundtrip():
    assert bits_of([0, 3, 5]) == 0b101001
    assert list(iter_bits(0b101001)) == [0, 3, 5]
    assert bits_of([]) == 0
    assert opposite("X") == "Y" and opposite("Y") == "X"


def test_sideset_basics():
    s = SideSet.of("X", [2, 0])
    assert s.bits == 0b101
    assert s.size == 2
    assert s.vertices() == [0, 2]


def test_closure_is_extensive_idempotent_and_neighborhood_preserving():
    rng = random.Random(11)
    for G in random_instances(12, seed=3, max_side=8):
        for side in ("X", "Y"):
            for A in random_subsets(G, side, rng, count=25):
                closed = closure(G, A)
                assert closed.bits & A.bits == A.bits
                assert closure(G, closed).bits == closed.bits
                assert neighborhood(G, closed).bits == neighborhood(G, A).bits


def test_closure_definition_maximal():
    # [A] collects exactly the side vertices whose whole neighborhood lies
    # inside N(A)
    for G in random_instances(6, seed=5, max_side=7):
        rng = random.Random(G.fingerprint())
        for A in random_subsets(G, "X", rng, count=15):
            nb = neighborhood_bits(G, "X", A.bits)
            expected = 0
            for v in range(G.n_x):
                if G.rows("X")[v] & ~nb == 0:
                    expected |= 1 << v
            assert closure_bits(G, "X", A.bits) == expected


def test_neighborhood_never_smaller_than_set():
    # d-regularity forces |N(A)| >= |A|; exhaustive on small sides
    for G in random_instances(8, seed=9, max_side=6):
        for side in ("X", "Y"):
            n = G.side_size(side)
            for bits in range(1, 1 << n):
                nb = neighborhood_bits(G, side, bits)
                assert nb.bit_count() >= bits.bit_count()


def test_two_linked_components_partition_and_maximality():
    rng = random.Random(23)
    for G in random_instances(10, seed=17, max_side=8):
        for side in ("X", "Y"):
            for A in random_subsets(G, side, rng, count=15):
                comps = two_linked_components(G, A)
                union = 0
                for c in comps:
                    assert c.bits, "components are nonempty"
                    assert is_two_linked(G, c)
                    assert union & c.bits == 0, "components are disjoint"
                    union |= c.bits
                assert union == A.bits
                # merging two distinct components always breaks 2-linkedness
                for i in range(len(comps)):
                    for j in range(i + 1, len(comps)):
                        merged = SideSet(side, comps[i].bits | comps[j].bits)
                        assert not is_two_linked(G, merged)


def test_two_linked_singletons():
    G = even_cycle(8)
    assert is_two_linked(G, SideSet("X", 0b1))
    # opposite ends of C8's side share no neighbor
    assert not is_two_linked(G, SideSet("X", 0b101))


def test_is_expanding_agrees_on_closure():
    rng = random.Random(31)
    for G in random_instances(10, seed=29, max_side=8):
        for params in (P1, P100):
            for A in random_subsets(G, "X", rng, count=20):
                closed = closure(G, A)
                assert is_expanding(G, A, params) == is_expanding(G, closed, params)


def test_is_expanding_definition():
    # margin check straight from the definition on C8
    G = even_cycle(8)
    single = SideSet("X", 0b1)
    w = neighborhood_bits(G, "X", 0b1).bit_count()
    gap = w - closure_bits(G, "X", 0b1).bit_count()
    assert is_expanding(G, single, P1) == (gap >= P1.threshold(G.d, w))
    assert is_expanding(G, single, P1)
    assert not is_expanding(G, single, P100)
    with pytest.raises(InvalidInputError):
        is_expanding(G, SideSet("X", 0), P1)


def test_expansion_params_threshold():
    p = ExpansionParams(c1=2.0)
    assert p.threshold(4, 6) == pytest.approx(2.0 * 0.5 * (2.0**2 / 4) * 6)


def test_check_alpha_expander_verified_and_falsified():
    G = even_cycle(8)
    good = check_alpha_expander(G, 0.5)
    assert good.status == "verified"
    assert good.witness is None
    bad = check_alpha_expander(G, Fraction(19, 20))
    assert bad.status == "falsified"
    w = bad.witness
    assert w is not None
    assert w.size <= G.side_size(w.side) // 2
    assert Fraction(neighborhood(G, w).size) < (1 + Fraction(19, 20)) * w.size


def test_square_rows_matches_shared_neighbor_definition():
    for G in random_instances(8, seed=41, max_side=8):
        for side in ("X", "Y"):
            sq = G.square_rows(side)
            rows = G.rows(side)
            n = G.side_size(side)
            for u in range(n):
                for v in range(n):
                    share = u != v and bool(rows[u] & rows[v])
                    assert bool(sq[u] >> v & 1) == share


def test_two_linked_sets_matches_brute():
    # the walk yields each 2-linked set within the cap once, with its N(S)
    # and [S], min-rooted and rooted, and under a non-increasing top table
    # exactly the sets with |N(S)| <= top[|[S]|]
    rng = random.Random(7)
    for G in [even_cycle(10)] + random_instances(6, seed=13, max_side=9):
        for side in ("X", "Y"):
            n = G.side_size(side)
            brute = [
                (bits, neighborhood_bits(G, side, bits), closure_bits(G, side, bits))
                for bits in range(1, 1 << n)
                if is_two_linked(G, SideSet(side, bits))
            ]
            top = sorted((rng.randint(-1, G.d * n) for _ in range(n + 1)), reverse=True)
            for cap in (0, 1, 2, 4, n):
                small = [t for t in brute if t[0].bit_count() <= cap]
                roots = [(None, small)] + [
                    (r, [t for t in small if t[0] >> r & 1]) for r in range(n)
                ]
                for root, want in roots:
                    got = list(two_linked_sets(G, side, cap, root=root))
                    assert sorted(got) == sorted(want)
                    pruned = list(two_linked_sets(G, side, cap, root=root, top=top))
                    assert sorted(pruned) == sorted(
                        t for t in want
                        if t[1].bit_count() <= top[t[2].bit_count()]
                    )
            assert list(two_linked_sets(G, side, n, root=n)) == []


def test_dump_load_roundtrip_and_validation():
    for G in random_instances(6, seed=53, max_side=8):
        text = dump_graph(G)
        H = load_graph(text)
        assert H.fingerprint() == G.fingerprint()
        assert H.rows("X") == G.rows("X") and H.rows("Y") == G.rows("Y")
    with pytest.raises(GraphFormatError):
        load_graph("not a graph\n")


def test_from_edges_rejects_irregular():
    with pytest.raises(InvalidInputError):
        BipartiteGraph.from_edges(2, 2, [(0, 0), (0, 1), (1, 0)])


def test_to_general_structure():
    G = even_cycle(8)
    H = G.to_general()
    assert H.n == 8
    assert H.is_regular()
    # bipartite (x, y) edge becomes (x, n_x + y)
    for x, y in G.edges():
        assert H.rows[x] >> (G.n_x + y) & 1


def test_random_regular_reproducible():
    a = random_regular(8, 3, seed=99)
    b = random_regular(8, 3, seed=99)
    assert dump_graph(a) == dump_graph(b)
