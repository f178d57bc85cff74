"""Bit-mask graph core: closures, 2-linked structure, expansion predicates."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biscount import (
    BipartiteGraph,
    CapacityError,
    ExpansionParams,
    InvalidInputError,
    SideSet,
    check_alpha_expander,
    closure,
    count_expander,
    dump_graph,
    is_expanding,
    is_two_linked,
    load_graph,
    neighborhood,
    two_linked_components,
)
from biscount.errors import GraphFormatError
from biscount.graphs import (
    MAX_SIDE,
    bits_of,
    closure_bits,
    iter_bits,
    neighborhood_bits,
    opposite,
    read_header,
    two_linked_component_bits,
    two_linked_sets,
)
from biscount.instances import (
    complete_bipartite,
    even_cycle,
    even_torus,
    hypercube,
    random_regular,
    random_shift,
)
from biscount.polymers import PolymerFamily

from util import P1, P100, closure_candidates, random_instances, reference_two_linked_sets


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


def test_graph_memo_builds_once_per_key_and_stores_no_failure():
    G = even_cycle(8)
    built = []

    def build():
        built.append(None)
        return len(built)

    def fail():
        raise ValueError("no value")

    assert G.memo(("probe", 1), build) == G.memo(("probe", 1), build) == 1
    assert G.memo(("probe", 2), build) == 2
    with pytest.raises(ValueError):
        G.memo(("probe", 3), fail)
    assert G.memo(("probe", 3), build) == 3
    # the memo belongs to the graph object: an equal graph shares nothing
    assert even_cycle(8).memo(("probe", 1), build) == 4


def test_closure_candidates_are_each_vertex_and_its_square_neighbours():
    for G in random_instances(6, seed=43, max_side=8):
        for side in ("X", "Y"):
            rows, sq = G.rows(side), G.square_rows(side)
            n = G.side_size(side)
            table = closure_candidates(G, side)
            assert len(table) == n
            for u, pairs in enumerate(table):
                want = tuple((1 << v, rows[v]) for v in range(n) if v == u or sq[u] >> v & 1)
                assert pairs == want


def test_two_linked_sets_matches_brute():
    # the walk yields each 2-linked set within the cap once, with its N(S)
    # and [S], and under a non-increasing top table exactly the sets with
    # |N(S)| <= top[|[S]|]
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
                want = [t for t in brute if t[0].bit_count() <= cap]
                got = list(two_linked_sets(G, side, cap))
                assert sorted(got) == sorted(want)
                pruned = list(two_linked_sets(G, side, cap, top=top))
                assert sorted(pruned) == sorted(
                    t for t in want
                    if t[1].bit_count() <= top[t[2].bit_count()]
                )


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


@pytest.mark.parametrize(
    "text",
    [f"p bis {MAX_SIDE + 1} {MAX_SIDE + 1} 3\n", "c header only\np bis 7 1000000000000 3\n"],
    ids=["both-sides-over", "one-side-huge"],
)
def test_loader_refuses_a_side_over_the_cap_from_the_header(text):
    # the header alone is refused, before any row is allocated
    start = time.perf_counter()
    with pytest.raises(CapacityError, match="MAX_SIDE"):
        load_graph(text)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "text",
    [
        "e 0 0\np bis 1 1 1\n",
        "c only a comment\n",
        "q 1\n",
        "p bis 1 1\n",
        "p bis 1 one 1\n",
        "p bis 0 1 1\n",
        f"p bis {MAX_SIDE + 1} 1 1\n",
    ],
)
def test_read_header_fails_as_the_loader_does(text):
    errors = []
    for read in (load_graph, lambda t: read_header(t.splitlines())):
        with pytest.raises((GraphFormatError, CapacityError)) as info:
            read(text)
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1]


def test_read_header_reads_no_line_past_the_header():
    def lines():
        yield "c a comment"
        yield "p bis 4 4 2"
        raise AssertionError("read past the header")

    assert read_header(lines()) == (4, 4, 2)


def test_from_edges_refuses_a_side_over_the_cap():
    start = time.perf_counter()
    with pytest.raises(CapacityError, match="MAX_SIDE"):
        BipartiteGraph.from_edges(1, 10**12, [(0, 0)])
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("n,seed", [(8, 1), (8, 2), (10, 1), (10, 2)])
def test_two_linked_search_matches_component_count(n, seed):
    # is_two_linked's one search from the lowest vertex (the search D's
    # walks share) against a full component listing, on every subset of
    # both sides
    G = random_shift(n, 3, seed)
    for side in ("X", "Y"):
        for bits in range(1 << n):
            want = len(two_linked_component_bits(G, side, bits)) == 1
            assert is_two_linked(G, SideSet(side, bits)) == want


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


def family_top(G, fam):
    """The largest |N| a polymer family admits beside each |[S]|, the bound
    ``polymers.enumerate_polymers`` walks under (-1 where it admits none)."""
    n, n_other = G.side_size(fam.side), G.side_size(opposite(fam.side))
    return [
        max((w for w in range(n_other + 1) if fam.admits_sizes(G, w, a)), default=-1)
        for a in range(n + 1)
    ]


WALK_GRAPHS = st.one_of(
    st.builds(random_shift, st.integers(8, 16), st.integers(2, 6), st.integers(0, 999)),
    st.builds(
        lambda half, d, seed: random_regular(2 * half, d, seed),
        st.integers(3, 6), st.integers(2, 4), st.integers(0, 999),
    ),
    st.sampled_from([3, 4, 5]).map(hypercube),
    st.sampled_from([[4, 4], [4, 6], [6, 4]]).map(even_torus),
    st.integers(1, 8).map(complete_bipartite),
    st.integers(2, 16).map(lambda half: even_cycle(2 * half)),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(G=WALK_GRAPHS, data=st.data())
def test_two_linked_sets_yields_the_reference_walk_in_order(G, data):
    # the byte-table closures and the cuts made before a push leave the
    # (S, N(S), [S]) sequence as the walk that re-tests every candidate and
    # bounds a set when it is popped yields it, on a cold and a warm graph
    # any top, increasing or not, leaves the sequence alone too
    side = data.draw(st.sampled_from(["X", "Y"]))
    n, n_other = G.side_size(side), G.side_size(opposite(side))
    cap = data.draw(st.integers(1, n))
    family = data.draw(st.sampled_from(
        [None, ("expanding", P1), ("expanding", P100), ("small", P1), "any"]
    ))
    if family is None:
        top = None
    elif family == "any":
        top = data.draw(st.lists(st.integers(-1, n_other), min_size=n + 1, max_size=n + 1))
    else:
        top = family_top(G, PolymerFamily(family[0], side, family[1]))
    want = list(reference_two_linked_sets(G, side, cap, top))
    assert list(two_linked_sets(G, side, cap, top)) == want
    assert list(two_linked_sets(G, side, cap, top)) == want


def test_a_walk_with_every_root_cut_builds_no_byte_table():
    # at the default c1 no set of random_shift(512, 8, 1) expands, so every
    # root is cut before its closure is read and the lazy reads stay empty
    G = random_shift(512, 8, 1)
    count_expander(G, 0.2)
    for side in ("X", "Y"):
        reads = G.closure_reads(side)
        assert reads.entries == [None] * G.side_size(side)
        assert reads.tables == [None] * len(reads.tables)
