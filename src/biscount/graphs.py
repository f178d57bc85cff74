"""Bipartite graph primitives and expansion predicates.

Vertices on each side are labelled 0..n-1 and subsets of a side are stored as
Python ints used as bitmasks, so all set algebra is word-parallel.  The row
``row_x[u]`` is the neighborhood of the X-vertex ``u`` as a mask over Y, and
symmetrically for ``row_y``.

Conventions used throughout the package: ``log`` written in formulas means
log base 2 and ``ln`` the natural log.  For a same-side set A,

* ``neighborhood(A)`` is N(A), the union of rows,
* ``closure(A)`` is [A] = {u on A's side : N(u) subset of N(A)},
* A is *2-linked* when it is connected in the square graph (two same-side
  vertices are adjacent there iff they share a neighbor),
* A is *(C1)-expanding* when |N(A)| - |[A]| >= (C1/2) (log^2 d / d) |N(A)|.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Iterator, Sequence, TypeVar

from .errors import CapacityError, GraphFormatError, InvalidInputError

T = TypeVar("T")

X_SIDE = "X"
Y_SIDE = "Y"

# the most vertices one side may hold.  A graph's rows take n_x * n_y bits
# and its edge lists n * d <= n^2 entries, so the cap bounds both: at it,
# even the complete graph K_{n,n} builds within 2 GiB
MAX_SIDE = 1 << 11
EXPANDER_CHECK_CAP = 20  # largest side check_alpha_expander walks every subset of


def check_side_size(n: int) -> None:
    """Raise CapacityError when a side of ``n`` vertices exceeds MAX_SIDE."""
    if n > MAX_SIDE:
        raise CapacityError(f"a side of {n} vertices exceeds graphs.MAX_SIDE = {MAX_SIDE}")


def opposite(side: str) -> str:
    return Y_SIDE if side == X_SIDE else X_SIDE


def bits_of(vertices: Iterable[int]) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class SideSet:
    """A subset of one vertex class, tagged with its side."""

    side: str
    bits: int

    @classmethod
    def of(cls, side: str, vertices: Iterable[int]) -> "SideSet":
        return cls(side, bits_of(vertices))

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    def vertices(self) -> list[int]:
        return list(iter_bits(self.bits))

    def __contains__(self, v: int) -> bool:
        return (self.bits >> v) & 1 == 1

    def __bool__(self) -> bool:
        return self.bits != 0


@dataclass(frozen=True)
class SideSwap:
    """A claimed automorphism that exchanges the sides, as two index maps:
    x_u goes to y_{x_to_y[u]} and y_v to x_{y_to_x[v]}.  A claim is only a
    claim until ``is_side_swap`` verifies it on the graph."""

    name: str
    x_to_y: tuple[int, ...]
    y_to_x: tuple[int, ...]


@dataclass(frozen=True)
class ExpansionParams:
    """Constants entering the expansion predicate and container caps.

    The default C1 follows the documented configuration value; desk-scale
    experiments normally pass c1=1 explicitly.
    """

    c1: float = 100.0

    def threshold(self, d: int, w: int) -> float:
        lg = math.log2(d)
        return 0.5 * self.c1 * (lg * lg / d) * w

    def expands(self, d: int, nbhd_size: int, closure_size: int) -> bool:
        """The expansion rule on sizes: |N(A)| - |[A]| >= threshold(d, |N(A)|)."""
        return nbhd_size - closure_size >= self.threshold(d, nbhd_size)


def is_small_closure(side_size: int, closure_size: int) -> bool:
    """The smallness rule on sizes: [A] covers at most half of its side."""
    return 2 * closure_size <= side_size


class Graph:
    """A simple undirected graph over 0..n-1 with bitmask adjacency rows."""

    def __init__(self, n: int, rows: list[int]):
        self.n = n
        self.rows = rows
        self.adj = [list(iter_bits(r)) for r in rows]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise InvalidInputError(f"bad edge ({u},{v})")
            if (rows[u] >> v) & 1:
                raise InvalidInputError(f"duplicate edge ({u},{v})")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, rows)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def is_regular(self) -> bool:
        return len({r.bit_count() for r in self.rows}) <= 1

    def is_independent(self, mask: int) -> bool:
        for v in iter_bits(mask):
            if self.rows[v] & mask:
                return False
        return True


class BipartiteGraph:
    """A d-regular bipartite graph with equal sides (enforced by regularity).

    ``claimed_swap`` is a side swap the graph's maker knows of (the instance
    generators set one), or None; it is not trusted until verified."""

    def __init__(self, n_x: int, n_y: int, d: int, row_x: list[int], row_y: list[int]):
        self.n_x = n_x
        self.n_y = n_y
        self.d = d
        self.row_x = row_x
        self.row_y = row_y
        self.adj_x = [list(iter_bits(r)) for r in row_x]
        self.adj_y = [list(iter_bits(r)) for r in row_y]
        self.claimed_swap: SideSwap | None = None
        self._cache: dict = {}

    @classmethod
    def from_edges(
        cls, n_x: int, n_y: int, edges: Iterable[tuple[int, int]], d: int | None = None
    ) -> "BipartiteGraph":
        check_side_size(max(n_x, n_y))
        row_x = [0] * n_x
        row_y = [0] * n_y
        for u, v in edges:
            if not (0 <= u < n_x and 0 <= v < n_y):
                raise InvalidInputError(f"edge ({u},{v}) out of range")
            if (row_x[u] >> v) & 1:
                raise InvalidInputError(f"duplicate edge ({u},{v})")
            row_x[u] |= 1 << v
            row_y[v] |= 1 << u
        degs = {r.bit_count() for r in row_x} | {r.bit_count() for r in row_y}
        if len(degs) != 1:
            raise InvalidInputError(f"graph is not regular (degrees {sorted(degs)})")
        deg = degs.pop()
        if d is not None and d != deg:
            raise InvalidInputError(f"declared degree {d} but actual degree {deg}")
        if deg == 0:
            raise InvalidInputError("degree zero graph rejected")
        return cls(n_x, n_y, deg, row_x, row_y)

    # -- basic accessors ---------------------------------------------------

    def side_size(self, side: str) -> int:
        return self.n_x if side == X_SIDE else self.n_y

    def rows(self, side: str) -> list[int]:
        return self.row_x if side == X_SIDE else self.row_y

    def adj(self, side: str) -> list[list[int]]:
        return self.adj_x if side == X_SIDE else self.adj_y

    def full_mask(self, side: str) -> int:
        return (1 << self.side_size(side)) - 1

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n_x) for v in self.adj_x[u]]

    def fingerprint(self) -> str:
        return hashlib.sha256(dump_graph(self).encode()).hexdigest()[:16]

    def to_general(self) -> Graph:
        """Flatten to a general graph: X keeps its indices, Y is shifted by n_x."""
        n = self.n_x + self.n_y
        rows = [0] * n
        for u in range(self.n_x):
            rows[u] = self.row_x[u] << self.n_x
        for v in range(self.n_y):
            rows[self.n_x + v] = self.row_y[v]
        return Graph(n, rows)

    def memo(self, key: Hashable, build: Callable[[], T]) -> T:
        """The value stored under ``key``, from ``build()`` on the first call.

        The one per-graph memo: it holds objects that depend on the graph
        alone (and on the parts of ``key`` besides), and it lives exactly as
        long as this graph object, with no size limit and no switch.  It
        holds, by key:

        - ``("square", side)``: ``square_rows``;
        - ``("closure_reads", side)``: ``closure_reads``, the walk's
          per-vertex closure candidates and byte tables, each built on its
          first read;
        - ``("nonexpanding_closed", params)``: the container pool with the
          multiplicity D(A) of each pool set A, counted by the one walk of
          ``containers.pool_multiplicities``;
        - ``("small_generator", A)``: ``containers.small_generator``'s pair;
        - ``("exhaustive_D", A)``: D(A) by ``general_count.exhaustive_D``'s
          subset scan, the second route to the pool's counts;
        - ``("polymers", family, cap)``: the ``polymers.PolymerUniverse`` of
          ``enumerate_polymers``, which keeps on it the class counts of each
          (size budget, polymer mask) ``xi_size_polynomial`` has walked;
        - ``("region_weights", params)``: ``general_count``'s family sum
          folded by region, each region's weight W(R) and family count (no
          family is kept);
        - ``("general_kp", params, ell)`` and
          ``("general_log_xi", params, ell)``: ``count_general``'s KP
          verdict and its per-region ln Xi(ell), taken once per polymer mask;
        - ``("side_swap", swap)``: whether the claimed side swap ``swap``
          is an automorphism (``is_side_swap``), checked once by the
          expander counters before one side's term stands for both.

        The container keys hold the X side alone, the one side the family
        sum runs over.

        Callers never change what it hands out (a universe only gains kept
        walks).  A ``build`` that raises stores nothing."""
        cache = self._cache
        if key not in cache:
            cache[key] = build()
        return cache[key]

    def square_rows(self, side: str) -> list[int]:
        """Adjacency rows of the square graph restricted to one side."""

        def build() -> list[int]:
            rows = self.rows(side)
            other = self.rows(opposite(side))
            out = []
            for v in range(self.side_size(side)):
                m = 0
                for y in iter_bits(rows[v]):
                    m |= other[y]
                out.append(m & ~(1 << v))
            return out

        return self.memo(("square", side), build)

    def closure_reads(self, side: str) -> ClosureReads:
        """The lazy per-vertex closure reads of one side (``ClosureReads``)."""
        return self.memo(("closure_reads", side), lambda: ClosureReads(self, side))


class ClosureReads:
    """Per vertex u of one side, ``entries[u]`` is None until ``entry(u)``
    builds it: the closure candidates ``cand`` (u and its square-graph
    neighbours, the only vertices that can join [S] when u joins S, as a
    vertex that newly fits inside N(S) has a neighbour in N(u)) and the
    (shift, table) reads over the bytes their neighbours meet.

    The byte table at shift 8k maps 8 bits of the other side, from 8k, to
    the OR of their rows, so a candidate fits inside a neighbourhood W
    exactly when it is missing from the OR of
    ``table[(full ^ W) >> shift & 0xFF]`` over the reads, ``full`` the other
    side's mask: a vertex outside W that no candidate neighbours blocks no
    candidate.  Each table is built on its first read as well."""

    def __init__(self, G: BipartiteGraph, side: str) -> None:
        self.rows = G.rows(side)
        self.square = G.square_rows(side)
        self.other = G.rows(opposite(side))
        self.full = G.full_mask(opposite(side))
        self.entries: list[tuple | None] = [None] * len(self.rows)
        self.tables: list[list[int] | None] = [None] * (len(self.other) + 7 >> 3)

    def entry(self, u: int) -> tuple[int, tuple[tuple[int, list[int]], ...]]:
        rows, tables, cand = self.rows, self.tables, self.square[u] | 1 << u
        touch, rest = 0, cand
        while rest:
            low = rest & -rest
            rest ^= low
            touch |= rows[low.bit_length() - 1]
        reads = []
        rest = touch
        while rest:
            k = (rest & -rest).bit_length() - 1 >> 3
            table = tables[k]
            if table is None:
                # entry m is the OR of the rows of the bits of m, doubled per row
                table = tables[k] = [0]
                for row in self.other[k << 3 : k + 1 << 3]:
                    table += [t | row for t in table]
            reads.append((k << 3, table))
            rest &= ~(0xFF << (k << 3))
        entry = self.entries[u] = (cand, tuple(reads))
        return entry


def is_side_swap(G: BipartiteGraph, swap: SideSwap) -> bool:
    """Whether ``swap`` is an automorphism of G that exchanges the sides:
    both maps are permutations and every edge goes to an edge, in O(nd).
    The edge map is then injective on a finite edge set, so onto as well."""
    if sorted(swap.x_to_y) != list(range(G.n_y)) or sorted(swap.y_to_x) != list(range(G.n_x)):
        return False
    return all(
        G.row_x[swap.y_to_x[v]] >> swap.x_to_y[u] & 1 for u in range(G.n_x) for v in G.adj_x[u]
    )


# -- set operations ---------------------------------------------------------


def _check_side(G: BipartiteGraph, A: SideSet) -> None:
    if A.side not in (X_SIDE, Y_SIDE):
        raise InvalidInputError(f"unknown side {A.side!r}")
    if A.bits >> G.side_size(A.side):
        raise InvalidInputError("set contains vertices beyond the side size")


def neighborhood_bits(G: BipartiteGraph, side: str, bits: int) -> int:
    rows = G.rows(side)
    m = 0
    for v in iter_bits(bits):
        m |= rows[v]
    return m


def neighborhood(G: BipartiteGraph, A: SideSet) -> SideSet:
    """N(A) on the opposite side."""
    _check_side(G, A)
    return SideSet(opposite(A.side), neighborhood_bits(G, A.side, A.bits))


def closure_bits(G: BipartiteGraph, side: str, bits: int) -> int:
    w = neighborhood_bits(G, side, bits)
    rows = G.rows(side)
    out = 0
    for u in range(G.side_size(side)):
        if rows[u] & ~w == 0:
            out |= 1 << u
    return out


def closure(G: BipartiteGraph, A: SideSet) -> SideSet:
    """[A]: all same-side vertices whose neighborhood fits inside N(A)."""
    _check_side(G, A)
    if A.bits == 0:
        return SideSet(A.side, 0)
    return SideSet(A.side, closure_bits(G, A.side, A.bits))


def two_linked_component_bits(G: BipartiteGraph, side: str, bits: int) -> list[int]:
    sq = G.square_rows(side)
    comps = []
    rest = bits
    while rest:
        seed = rest & -rest
        comp = seed
        frontier = seed
        while frontier:
            grow = 0
            for v in iter_bits(frontier):
                grow |= sq[v]
            grow &= rest & ~comp
            comp |= grow
            frontier = grow
        comps.append(comp)
        rest &= ~comp
    return comps


def two_linked_components(G: BipartiteGraph, A: SideSet) -> list[SideSet]:
    """Maximal pieces of A connected in the square graph, ascending by lowest vertex."""
    _check_side(G, A)
    return [SideSet(A.side, c) for c in two_linked_component_bits(G, A.side, A.bits)]


def linked_in(square: Sequence[int], bits: int) -> bool:
    """Whether ``bits`` is nonempty and connected in the square graph whose
    rows are ``square``: one search from its lowest vertex."""
    reach = frontier = bits & -bits
    while frontier:
        grow = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            grow |= square[low.bit_length() - 1]
        frontier = grow & bits & ~reach
        reach |= frontier
    return reach == bits != 0


def is_two_linked(G: BipartiteGraph, A: SideSet) -> bool:
    return linked_in(G.square_rows(A.side), A.bits)


def is_expanding(G: BipartiteGraph, A: SideSet, params: ExpansionParams) -> bool:
    """Whether N(A) exceeds [A] by the (C1/2)(log^2 d / d) margin."""
    _check_side(G, A)
    if A.bits == 0:
        raise InvalidInputError("expansion is undefined for the empty set")
    w = neighborhood_bits(G, A.side, A.bits).bit_count()
    a = closure_bits(G, A.side, A.bits).bit_count()
    return params.expands(G.d, w, a)


def is_small(G: BipartiteGraph, A: SideSet) -> bool:
    """Whether the closure of A covers at most half of its side."""
    _check_side(G, A)
    if A.bits == 0:
        raise InvalidInputError("smallness is undefined for the empty set")
    a = closure_bits(G, A.side, A.bits).bit_count()
    return is_small_closure(G.side_size(A.side), a)


# -- alpha-expander verification ---------------------------------------------


@dataclass(frozen=True)
class ExpanderVerdict:
    status: str  # "verified" | "falsified"
    witness: SideSet | None = None


def check_expander_sides(n_x: int, n_y: int) -> None:
    """Raise CapacityError when a side is past ``EXPANDER_CHECK_CAP``."""
    for n in (n_x, n_y):
        if n > EXPANDER_CHECK_CAP:
            raise CapacityError(
                f"exhaustive expander check capped at side size {EXPANDER_CHECK_CAP}, got {n}"
            )


def check_alpha_expander(G: BipartiteGraph, alpha: float | Fraction) -> ExpanderVerdict:
    """Decide whether every set of at most half a side expands by (1+alpha),
    walking all subsets of both sides (guarded by ``EXPANDER_CHECK_CAP`` on
    the side size).  The comparison is exact: alpha is coerced to a
    Fraction, so boundary ties behave deterministically.
    """
    frac_alpha = Fraction(alpha) if not isinstance(alpha, Fraction) else alpha
    one_plus = 1 + frac_alpha

    def violates(side: str, bits: int) -> bool:
        w = neighborhood_bits(G, side, bits).bit_count()
        return Fraction(w) < one_plus * bits.bit_count()

    check_expander_sides(G.n_x, G.n_y)
    for side in (X_SIDE, Y_SIDE):
        n = G.side_size(side)
        half = n // 2
        for bits in range(1, 1 << n):
            if bits.bit_count() <= half and violates(side, bits):
                return ExpanderVerdict("falsified", SideSet(side, bits))
    return ExpanderVerdict("verified")


# -- the walk over 2-linked sets ------------------------------------------------


def two_linked_sets(
    G: BipartiteGraph,
    side: str,
    size_cap: int,
    top: Sequence[int] | None = None,
) -> Iterator[tuple[int, int, int]]:
    """Every 2-linked set S of ``side`` with |S| <= ``size_cap``, each exactly
    once, as the masks (S, N(S), [S]).

    A forbidden-set walk over the connected sets of the square graph,
    min-rooted over every root: S grows only above its lowest vertex.  N(S)
    and [S] are carried, grown by the rows of each added vertex u: [S] gains
    the closure candidates of u that no vertex outside N(S) blocks, read
    from the byte tables of ``G.closure_reads``.  Sets at the cap are
    yielded where the stack would pop them and never pushed.

    With ``top``, a set with |N(S)| > top[|[S]|] is neither yielded nor
    grown, and it is cut before it is pushed: first, before its closure is
    computed, when |N(S)| exceeds every top entry at or after |S| (sound as
    |[S]| >= |S|), then by top[|[S]|] itself.  Both sizes only grow with S,
    so when ``top`` never increases every superset of such a set fails too,
    and the walk yields exactly the sets within the bound.  A walk whose
    roots are all cut reads no closure.  A cap below 1 yields nothing."""
    n = G.side_size(side)
    cap = min(size_cap, n)
    if cap < 1:
        return
    rows = G.rows(side)
    square = G.square_rows(side)
    reads_of = G.closure_reads(side)
    entries, entry, full = reads_of.entries, reads_of.entry, reads_of.full
    pruned = top is not None
    if pruned:
        # most[k]: the largest top entry at or after k
        most = list(top)
        for k in range(len(most) - 2, -1, -1):
            most[k] = max(most[k], most[k + 1])
    for r in range(n):
        nbhd = rows[r]
        if pruned and nbhd.bit_count() > most[1]:
            continue
        cand, reads = entries[r] or entry(r)
        outside = full ^ nbhd
        blocked = 0
        for shift, table in reads:
            blocked |= table[outside >> shift & 0xFF]
        closed = cand & ~blocked
        if pruned and nbhd.bit_count() > top[closed.bit_count()]:
            continue
        forbidden = (2 << r) - 1
        stack = [(1 << r, 1, nbhd, closed, square[r] & ~forbidden, forbidden)]
        while stack:
            s, size, nbhd, closed, frontier, forbidden = stack.pop()
            yield s, nbhd, closed
            if size == cap:
                continue
            size += 1
            # children at the cap are yielded as the stack would pop them,
            # last first, and never pushed
            leaves = [] if size == cap else None
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                u = low.bit_length() - 1
                forbidden |= low
                wider = nbhd | rows[u]
                grown = closed
                if wider != nbhd:
                    # with N(S) unchanged the child passes the parent's test
                    if pruned:
                        width = wider.bit_count()
                        if width > most[size]:
                            continue
                    cand, reads = entries[u] or entry(u)
                    outside = full ^ wider
                    blocked = 0
                    for shift, table in reads:
                        blocked |= table[outside >> shift & 0xFF]
                    grown |= cand & ~blocked
                    if pruned and width > top[grown.bit_count()]:
                        continue
                if leaves is None:
                    stack.append((
                        s | low,
                        size,
                        wider,
                        grown,
                        frontier | (square[u] & ~forbidden),
                        forbidden,
                    ))
                else:
                    leaves.append((s | low, wider, grown))
            if leaves:
                yield from reversed(leaves)


# -- text format ---------------------------------------------------------------


def dump_graph(G: BipartiteGraph) -> str:
    lines = [f"p bis {G.n_x} {G.n_y} {G.d}"]
    lines.extend(f"e {u} {v}" for u, v in sorted(G.edges()))
    return "\n".join(lines) + "\n"


def _parse_header(line: str, line_no: int) -> tuple[int, int, int]:
    parts = line.split()
    if len(parts) != 5 or parts[1] != "bis":
        raise GraphFormatError(line_no, f"bad header {line!r}")
    try:
        n_x, n_y, d = int(parts[2]), int(parts[3]), int(parts[4])
    except ValueError:
        raise GraphFormatError(line_no, "header fields must be integers")
    if n_x < 1 or n_y < 1 or d < 1:
        raise GraphFormatError(line_no, "header fields must be positive")
    check_side_size(max(n_x, n_y))
    return n_x, n_y, d


def read_header(lines: Iterable[str]) -> tuple[int, int, int]:
    """(n_x, n_y, d) from the ``p bis`` header, reading no line past it: the
    lines before it are checked as ``load_graph`` checks them, so a file
    either fails here as it would there or passes on to it."""
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        record = line.split()[0]
        if record == "p":
            return _parse_header(line, line_no)
        if record == "e":
            raise GraphFormatError(line_no, "edge before header")
        raise GraphFormatError(line_no, f"unknown record {record!r}")
    raise GraphFormatError(None, "missing header")


def load_graph(text: str) -> BipartiteGraph:
    """Parse the ``p bis`` text format, rejecting malformed input with the
    offending line number."""
    header: tuple[int, int, int] | None = None
    row_x: list[int] = []
    row_y: list[int] = []
    edge_count = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if header is not None:
                raise GraphFormatError(line_no, "duplicate header")
            header = _parse_header(line, line_no)
            n_x, n_y, d = header
            row_x = [0] * n_x
            row_y = [0] * n_y
        elif parts[0] == "e":
            if header is None:
                raise GraphFormatError(line_no, "edge before header")
            if len(parts) != 3:
                raise GraphFormatError(line_no, f"bad edge line {line!r}")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphFormatError(line_no, "edge endpoints must be integers")
            n_x, n_y, d = header
            if not (0 <= u < n_x and 0 <= v < n_y):
                raise GraphFormatError(line_no, f"edge ({u},{v}) out of range")
            if (row_x[u] >> v) & 1:
                raise GraphFormatError(line_no, f"duplicate edge ({u},{v})")
            row_x[u] |= 1 << v
            row_y[v] |= 1 << u
            edge_count += 1
        else:
            raise GraphFormatError(line_no, f"unknown record {parts[0]!r}")
    if header is None:
        raise GraphFormatError(None, "missing header")
    n_x, n_y, d = header
    if edge_count != n_x * d:
        raise GraphFormatError(
            None, f"expected {n_x * d} edges for X-regularity, found {edge_count}"
        )
    for u in range(n_x):
        if row_x[u].bit_count() != d:
            raise GraphFormatError(None, f"X vertex {u} has degree {row_x[u].bit_count()}, want {d}")
    for v in range(n_y):
        if row_y[v].bit_count() != d:
            raise GraphFormatError(None, f"Y vertex {v} has degree {row_y[v].bit_count()}, want {d}")
    return BipartiteGraph(n_x, n_y, d, row_x, row_y)
