"""Instance generators: validity, sizes, reproducibility, dispatch."""

import time

import pytest

from biscount import CapacityError, InvalidInputError, dump_graph, instances, load_graph
from biscount.graphs import MAX_SIDE, is_side_swap
from biscount.instances import (
    InstanceSpec,
    complete_bipartite,
    even_cycle,
    even_torus,
    generate,
    hypercube,
    random_regular,
    random_shift,
)


def named_instances():
    return [
        even_cycle(6),
        even_cycle(12),
        complete_bipartite(2),
        complete_bipartite(4),
        hypercube(2),
        hypercube(3),
        hypercube(4),
        even_torus([4, 6]),
        even_torus([4, 4]),
        random_regular(6, 3, seed=1),
        random_shift(7, 3, seed=2),
    ]


def test_every_generator_output_passes_loader_validation():
    # dump/load re-runs the full regularity and format validation
    for G in named_instances():
        H = load_graph(dump_graph(G))
        assert H.fingerprint() == G.fingerprint()


def test_generators_claim_a_side_swap_that_verifies():
    # every generator but the configuration model knows a side swap; the
    # odd shift and the three-axis torus cover what the named list misses
    named = named_instances()
    for G in named + [random_shift(9, 4, seed=5), even_torus([4, 6, 4])]:
        if G.claimed_swap is not None:
            assert is_side_swap(G, G.claimed_swap), G.claimed_swap.name
    assert [G.claimed_swap is None for G in named].count(True) == 1
    assert random_regular(6, 3, seed=1).claimed_swap is None


def test_even_cycle_shape():
    G = even_cycle(10)
    assert G.n_x == G.n_y == 5
    assert G.d == 2
    with pytest.raises(InvalidInputError):
        even_cycle(7)
    with pytest.raises(InvalidInputError):
        even_cycle(2)


def test_complete_bipartite_shape():
    G = complete_bipartite(3)
    assert G.n_x == G.n_y == 3 and G.d == 3
    assert all(r == 0b111 for r in G.rows("X"))


def test_hypercube_shape():
    for d in (2, 3, 4, 5):
        G = hypercube(d)
        assert G.n_x == G.n_y == 1 << (d - 1)
        assert G.d == d


def test_even_torus_shape():
    G = even_torus([4, 6])
    assert G.n_x == G.n_y == 12
    assert G.d == 4
    with pytest.raises(InvalidInputError):
        even_torus([3, 4])


def test_random_regular_reproducible_and_validated():
    a = random_regular(9, 4, seed=123)
    b = random_regular(9, 4, seed=123)
    assert dump_graph(a) == dump_graph(b)
    c = random_regular(9, 4, seed=124)
    assert dump_graph(c) != dump_graph(a)
    with pytest.raises(InvalidInputError):
        random_regular(5, 3, seed=0)  # n*d odd


def test_random_regular_budget_bounds_shuffled_stubs(monkeypatch):
    # more stubs than the budget are refused before the first shuffle
    start = time.perf_counter()
    with pytest.raises(CapacityError, match="needs 4194304 stubs, over instances.STUB_BUDGET"):
        random_regular(MAX_SIDE, MAX_SIDE, seed=1)
    assert time.perf_counter() - start < 0.1
    # otherwise STUB_BUDGET // (n d) attempts, each shuffling n d stubs
    monkeypatch.setattr(instances, "STUB_BUDGET", 3 * 128 * 32 + 5)
    with pytest.raises(CapacityError, match="^configuration model failed .* in 3 attempts$"):
        random_regular(128, 32, seed=1)


def test_random_shift_reproducible():
    a = random_shift(8, 3, seed=5)
    b = random_shift(8, 3, seed=5)
    assert dump_graph(a) == dump_graph(b)
    assert a.d == 3


def test_generate_dispatch_and_label():
    spec = InstanceSpec("cycle", {"m": 8})
    G = generate(spec)
    assert G.n_x == 4
    assert spec.label() == "cycle(m=8)"
    assert generate(InstanceSpec("random", {"n": 6, "d": 3, "seed": 7})).d == 3
    with pytest.raises(InvalidInputError):
        generate(InstanceSpec("moebius", {}))
    with pytest.raises(InvalidInputError):
        generate(InstanceSpec("cycle", {}))


OVER_CAP = {
    "cycle": {"m": 2 * MAX_SIDE + 2},
    "complete": {"d": MAX_SIDE + 1},
    "hypercube": {"d": MAX_SIDE.bit_length() + 1},
    "torus": {"dims": (4, MAX_SIDE)},
    "random": {"n": MAX_SIDE + 2, "d": 3, "seed": 1},
    "shift": {"n": MAX_SIDE + 1, "d": 3, "seed": 1},
}


@pytest.mark.parametrize("kind", sorted(OVER_CAP))
def test_generators_refuse_a_side_over_the_cap_before_listing_vertices(kind):
    start = time.perf_counter()
    with pytest.raises(CapacityError, match="MAX_SIDE"):
        generate(InstanceSpec(kind, OVER_CAP[kind]))
    assert time.perf_counter() - start < 1.0


def test_side_cap_is_inclusive_and_hypercube_refuses_without_counting_vertices():
    G = even_cycle(2 * MAX_SIDE)
    assert G.n_x == G.n_y == MAX_SIDE
    start = time.perf_counter()
    with pytest.raises(CapacityError, match="2\\^39 vertices"):
        hypercube(40)
    assert time.perf_counter() - start < 1.0
