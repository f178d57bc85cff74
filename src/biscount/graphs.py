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
from typing import Iterable, Iterator, Sequence

from .errors import CapacityError, GraphFormatError, InvalidInputError

X_SIDE = "X"
Y_SIDE = "Y"


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
    """A d-regular bipartite graph with equal sides (enforced by regularity)."""

    def __init__(self, n_x: int, n_y: int, d: int, row_x: list[int], row_y: list[int]):
        self.n_x = n_x
        self.n_y = n_y
        self.d = d
        self.row_x = row_x
        self.row_y = row_y
        self.adj_x = [list(iter_bits(r)) for r in row_x]
        self.adj_y = [list(iter_bits(r)) for r in row_y]
        self._cache: dict = {}

    @classmethod
    def from_edges(
        cls, n_x: int, n_y: int, edges: Iterable[tuple[int, int]], d: int | None = None
    ) -> "BipartiteGraph":
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

    def square_rows(self, side: str) -> list[int]:
        """Adjacency rows of the square graph restricted to one side."""
        key = ("square", side)
        if key not in self._cache:
            n = self.side_size(side)
            rows = self.rows(side)
            other = self.rows(opposite(side))
            out = []
            for v in range(n):
                m = 0
                for y in iter_bits(rows[v]):
                    m |= other[y]
                out.append(m & ~(1 << v))
            self._cache[key] = out
        return self._cache[key]


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


def is_two_linked(G: BipartiteGraph, A: SideSet) -> bool:
    return len(two_linked_component_bits(G, A.side, A.bits)) == 1


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


def check_alpha_expander(
    G: BipartiteGraph,
    alpha: float | Fraction,
    size_limit: int = 20,
) -> ExpanderVerdict:
    """Decide whether every set of at most half a side expands by (1+alpha),
    walking all subsets of both sides (guarded by ``size_limit`` on the side
    size).  The comparison is exact: alpha is coerced to a Fraction, so
    boundary ties behave deterministically.
    """
    frac_alpha = Fraction(alpha) if not isinstance(alpha, Fraction) else alpha
    one_plus = 1 + frac_alpha

    def violates(side: str, bits: int) -> bool:
        w = neighborhood_bits(G, side, bits).bit_count()
        return Fraction(w) < one_plus * bits.bit_count()

    for side in (X_SIDE, Y_SIDE):
        n = G.side_size(side)
        if n > size_limit:
            raise CapacityError(
                f"exhaustive expander check capped at side size {size_limit}, got {n}"
            )
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
    root: int | None = None,
    top: Sequence[int] | None = None,
) -> Iterator[tuple[int, int, int]]:
    """Every 2-linked set S of ``side`` with |S| <= ``size_cap``, each exactly
    once, as the masks (S, N(S), [S]).

    A forbidden-set walk over the connected sets of the square graph: with
    ``root`` None it is min-rooted over every root (S grows only above its
    lowest vertex), otherwise it yields the sets containing ``root``.  N(S)
    and [S] are carried, grown by the rows of each added vertex.  With
    ``top``, a set with |N(S)| > top[|[S]|] is neither yielded nor grown.
    Both sizes only grow with S, so when ``top`` never increases every
    superset of such a set fails too, and the walk yields exactly the sets
    within the bound.  A cap below 1, or a root off the side, yields
    nothing."""
    n = G.side_size(side)
    cap = min(size_cap, n)
    if cap < 1:
        return
    rows = G.rows(side)
    cols = G.rows(opposite(side))
    square = G.square_rows(side)

    def closure_gain(nbhd: int, fresh: int, closed: int) -> int:
        # [S] after N(S) grew by ``fresh``: a vertex joins only through a
        # neighbour in ``fresh``, and only if all its neighbours are in N(S)
        reach = 0
        for y in iter_bits(fresh):
            reach |= cols[y]
        for v in iter_bits(reach & ~closed):
            if not rows[v] & ~nbhd:
                closed |= 1 << v
        return closed

    if root is None:
        starts = [(r, (2 << r) - 1) for r in range(n)]
    else:
        starts = [(root, 1 << root)] if 0 <= root < n else []
    for r, forbidden in starts:
        stack = [(1 << r, 1, rows[r], closure_gain(rows[r], rows[r], 0),
                  square[r] & ~forbidden, forbidden)]
        while stack:
            s, size, nbhd, closed, frontier, forbidden = stack.pop()
            if top is not None and nbhd.bit_count() > top[closed.bit_count()]:
                continue
            yield s, nbhd, closed
            if size == cap:
                continue
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                u = low.bit_length() - 1
                forbidden |= low
                fresh = rows[u] & ~nbhd
                wider = nbhd | fresh
                stack.append((
                    s | low,
                    size + 1,
                    wider,
                    closure_gain(wider, fresh, closed) if fresh else closed,
                    frontier | (square[u] & ~forbidden),
                    forbidden,
                ))


# -- text format ---------------------------------------------------------------


def dump_graph(G: BipartiteGraph) -> str:
    lines = [f"p bis {G.n_x} {G.n_y} {G.d}"]
    lines.extend(f"e {u} {v}" for u, v in sorted(G.edges()))
    return "\n".join(lines) + "\n"


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
            if len(parts) != 5 or parts[1] != "bis":
                raise GraphFormatError(line_no, f"bad header {line!r}")
            try:
                n_x, n_y, d = int(parts[2]), int(parts[3]), int(parts[4])
            except ValueError:
                raise GraphFormatError(line_no, "header fields must be integers")
            if n_x < 1 or n_y < 1 or d < 1:
                raise GraphFormatError(line_no, "header fields must be positive")
            header = (n_x, n_y, d)
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
