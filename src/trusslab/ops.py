"""Binary operations on a group carrier as n×n tables, plus the law checks.

The set of all binary operations on a carrier (G,+) is itself a group under
pointwise addition; op_add/op_neg/op_sub implement it.

Every law predicate is exhaustive and reports the lexicographically first
violation.  A law over triples (a, b, c) is checked one pair (a, b) at a
time: each side, as a function of c, is built as a whole row by a gather
(an operator.itemgetter over a table row) and the two rows are compared as
tuples.  The interchange law compares, per (w, x), the n x n blocks over
(y, z).  Single entries are looked at only inside the first unequal row,
to find its first differing index, so the witness, lhs and rhs are those
of a plain scan over every tuple in lexicographic order.  That scalar scan
is kept, one loop per law, as the reference in tests/law_reference.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import getitem, itemgetter
from typing import Callable, Sequence

from .errors import CarrierMismatch, InputError
from .groups import EndoMap, FiniteGroup, MapLike, is_element


@dataclass(frozen=True)
class BinOpTable:
    """An arbitrary binary operation on the carrier: ``table[a][b] = a * b``."""

    carrier: FiniteGroup
    table: tuple[tuple[int, ...], ...]

    def at(self, a: int, b: int) -> int:
        return self.table[a][b]

    @property
    def order(self) -> int:
        return len(self.table)

    def to_json(self) -> dict:
        return {"group": self.carrier.name, "table": [list(r) for r in self.table]}


@dataclass(frozen=True)
class LawReport:
    """Pass/fail evidence for one law, with at most one witness: the
    lexicographically first violating tuple, never the temporally first."""

    law: str
    holds: bool
    witness: tuple[int, ...] | None = None
    lhs: int | None = None
    rhs: int | None = None

    def to_json(self) -> dict:
        out: dict = {"law": self.law, "holds": self.holds}
        if not self.holds:
            out["witness"] = list(self.witness)
            out["lhs"] = self.lhs
            out["rhs"] = self.rhs
        return out


def binop(carrier: FiniteGroup, table: Sequence[Sequence[int]]) -> BinOpTable:
    """Validate an n x n table: a list of n lists (or tuples) of n carrier
    labels.  Nothing is coerced."""
    n = carrier.order
    if not isinstance(table, (list, tuple)) or len(table) != n or any(
        not isinstance(row, (list, tuple)) or len(row) != n for row in table
    ):
        raise InputError(f"operation table must be a list of {n} lists of {n} integers")
    for a, row in enumerate(table):
        for b, x in enumerate(row):
            if not is_element(x, n):
                raise InputError(f"entry table[{a}][{b}] = {x!r} is not an integer in 0..{n - 1}")
    return BinOpTable(carrier=carrier, table=tuple(map(tuple, table)))


def check_map(G: FiniteGroup, m: MapLike, label: str = "unary map") -> tuple[int, ...]:
    """The images of m, which must be an EndoMap or a list (or tuple) of
    n carrier labels.  Nothing is coerced."""
    images = m.images if isinstance(m, EndoMap) else m
    if not isinstance(images, (list, tuple)) or len(images) != G.order or not all(
        is_element(x, G.order) for x in images
    ):
        raise InputError(
            f"{label} {images!r} is not a list of {G.order} integers in 0..{G.order - 1}"
        )
    return tuple(images)


def _same_carrier(f: BinOpTable, g: BinOpTable) -> FiniteGroup:
    if f.carrier.table != g.carrier.table:
        raise CarrierMismatch(
            f"operations live on different carriers ({f.carrier.name} vs {g.carrier.name})"
        )
    return f.carrier


# ---------------------------------------------------------------------------
# constructors

def make_projection_ops(G: FiniteGroup) -> tuple[BinOpTable, BinOpTable]:
    """(pi1, pi2): a*b = a and a*b = b."""
    n = G.order
    pi1 = tuple(tuple(a for _ in range(n)) for a in range(n))
    pi2 = tuple(tuple(range(n)) for _ in range(n))
    return BinOpTable(G, pi1), BinOpTable(G, pi2)


def make_sigma_pi1(G: FiniteGroup, sigma: MapLike) -> BinOpTable:
    """Row-constant operation a*b = sigma(a)."""
    s = check_map(G, sigma)
    n = G.order
    return BinOpTable(G, tuple(tuple(s[a] for _ in range(n)) for a in range(n)))


def make_tau_pi2(G: FiniteGroup, tau: MapLike) -> BinOpTable:
    """Column-constant operation a*b = tau(b)."""
    t = check_map(G, tau)
    n = G.order
    row = tuple(t[b] for b in range(n))
    return BinOpTable(G, tuple(row for _ in range(n)))


def make_zero_op(G: FiniteGroup) -> BinOpTable:
    """The constant-0 operation."""
    n = G.order
    row = (0,) * n
    return BinOpTable(G, tuple(row for _ in range(n)))


def make_group_op(G: FiniteGroup) -> BinOpTable:
    """The carrier's own addition viewed as a BinOpTable."""
    return BinOpTable(G, G.table)


# ---------------------------------------------------------------------------
# the pointwise group of binary operations

def op_add(f: BinOpTable, g: BinOpTable) -> BinOpTable:
    G = _same_carrier(f, g)
    t = G.table
    return BinOpTable(
        G,
        tuple(
            tuple(t[fa[b]][ga[b]] for b in range(G.order))
            for fa, ga in zip(f.table, g.table)
        ),
    )


def op_neg(f: BinOpTable) -> BinOpTable:
    G = f.carrier
    inv = G.inverse
    return BinOpTable(G, tuple(tuple(inv[x] for x in row) for row in f.table))


def op_sub(f: BinOpTable, g: BinOpTable) -> BinOpTable:
    """f + (-g) in the pointwise group: a(f-g)b = f(a,b) - g(a,b)."""
    return op_add(f, op_neg(g))


def op_left_difference(f: BinOpTable, g: BinOpTable) -> BinOpTable:
    """(-g) + f: the operation d with g + d = f pointwise.  Distinct from
    op_sub on nonabelian carriers."""
    return op_add(op_neg(g), f)


def op_opposite(f: BinOpTable) -> BinOpTable:
    """Transpose: a *op b = b * a."""
    n = f.order
    return BinOpTable(f.carrier, tuple(tuple(f.table[b][a] for b in range(n)) for a in range(n)))


# ---------------------------------------------------------------------------
# law predicates

def gather(indices: Sequence[int]) -> Callable[[Sequence], tuple]:
    """row -> (row[i] for i in indices) as a tuple, in one C call.  A
    one-index itemgetter returns a bare item, so order 1 gets a wrapper."""
    if len(indices) == 1:
        (i,) = indices
        return lambda row: (row[i],)
    return itemgetter(*indices)


_SUM_GATHERS: dict[tuple, tuple] = {}


def _sum_gathers(G: FiniteGroup) -> tuple:
    """Per b, the gather of the addition row b: row -> (row[b + c])_c.
    Cached per group table."""
    cached = _SUM_GATHERS.get(G.table)
    if cached is None:
        cached = _SUM_GATHERS[G.table] = tuple(map(gather, G.table))
    return cached


def _first_difference(lhs: Sequence, rhs: Sequence) -> int:
    return next(i for i, (x, y) in enumerate(zip(lhs, rhs)) if x != y)


def law_violation(law: str, prefix: tuple[int, ...], lhs: Sequence, rhs: Sequence) -> LawReport:
    """The failing report for two unequal rows of a law indexed by prefix:
    the witness is prefix plus the first index where the rows differ."""
    i = _first_difference(lhs, rhs)
    return LawReport(law, False, prefix + (i,), lhs[i], rhs[i])


def is_associative(f: BinOpTable) -> LawReport:
    """(a*b)*c = a*(b*c): row a*b against row a gathered at row b."""
    t = f.table
    at = list(map(gather, t))
    for a, ta in enumerate(t):
        for b, gb in enumerate(at):
            lhs, rhs = t[ta[b]], gb(ta)
            if lhs != rhs:
                return law_violation("associativity", (a, b), lhs, rhs)
    return LawReport("associativity", True)


def is_left_distributive(f: BinOpTable) -> LawReport:
    """a*(b+c) = a*b + a*c."""
    add = f.carrier.table
    by_sum = _sum_gathers(f.carrier)
    for a, ta in enumerate(f.table):
        ga = gather(ta)
        for b, gb in enumerate(by_sum):
            lhs, rhs = gb(ta), ga(add[ta[b]])
            if lhs != rhs:
                return law_violation("left-distributivity", (a, b), lhs, rhs)
    return LawReport("left-distributivity", True)


def is_right_distributive(f: BinOpTable) -> LawReport:
    """(a+b)*c = a*c + b*c."""
    t, add = f.table, f.carrier.table
    for a, ta in enumerate(t):
        heads = gather(ta)(add)  # c -> the addition row a*c
        for b, tb in enumerate(t):
            lhs, rhs = t[add[a][b]], tuple(map(getitem, heads, tb))
            if lhs != rhs:
                return law_violation("right-distributivity", (a, b), lhs, rhs)
    return LawReport("right-distributivity", True)


def is_left_skew_sigma_distributive(f: BinOpTable, sigma: MapLike) -> LawReport:
    """a*(b+c) = (a*b) - sigma(a) + (a*c)."""
    G = f.carrier
    s = check_map(G, sigma)
    add, inv = G.table, G.inverse
    by_sum = _sum_gathers(G)
    for a, ta in enumerate(f.table):
        ga, neg_sa = gather(ta), inv[s[a]]
        for b, gb in enumerate(by_sum):
            lhs, rhs = gb(ta), ga(add[add[ta[b]][neg_sa]])
            if lhs != rhs:
                return law_violation("left-skew-sigma-distributivity", (a, b), lhs, rhs)
    return LawReport("left-skew-sigma-distributivity", True)


def is_right_skew_sigma_distributive(f: BinOpTable, sigma: MapLike) -> LawReport:
    """(a+b)*c = (a*c) - sigma(c) + (b*c)."""
    G = f.carrier
    s = check_map(G, sigma)
    t, add, inv = f.table, G.table, G.inverse
    negs = [inv[x] for x in s]
    for a, ta in enumerate(t):
        # c -> the addition row a*c - sigma(c)
        heads = tuple(add[add[x][y]] for x, y in zip(ta, negs))
        for b, tb in enumerate(t):
            lhs, rhs = t[add[a][b]], tuple(map(getitem, heads, tb))
            if lhs != rhs:
                return law_violation("right-skew-sigma-distributivity", (a, b), lhs, rhs)
    return LawReport("right-skew-sigma-distributivity", True)


def is_left_weak_sigma_associative(f: BinOpTable, sigma: MapLike) -> LawReport:
    """(sigma(a) + a*b)*c = a*(b*c)."""
    G = f.carrier
    s = check_map(G, sigma)
    t, add = f.table, G.table
    at = list(map(gather, t))
    for a, ta in enumerate(t):
        shift = add[s[a]]
        for b, gb in enumerate(at):
            lhs, rhs = t[shift[ta[b]]], gb(ta)
            if lhs != rhs:
                return law_violation("left-weak-sigma-associativity", (a, b), lhs, rhs)
    return LawReport("left-weak-sigma-associativity", True)


def satisfies_interchange(f: BinOpTable) -> LawReport:
    """(w+x)*(y+z) = (w*y) + (x*z) over all quadruples.  Per (w, x) the
    n x n blocks over (y, z) are compared: the left block depends on w + x
    alone, so it is built once per sum, on first use."""
    G = f.carrier
    t, add = f.table, G.table
    by_sum = _sum_gathers(G)
    at = list(map(gather, t))
    blocks: list = [None] * f.order
    for w, tw in enumerate(t):
        heads = gather(tw)(add)  # y -> the addition row w*y
        for x, gx in enumerate(at):
            wx = add[w][x]
            lhs = blocks[wx]
            if lhs is None:
                row = t[wx]
                lhs = blocks[wx] = tuple([gy(row) for gy in by_sum])
            rhs = tuple(map(gx, heads))
            if lhs != rhs:
                y = _first_difference(lhs, rhs)
                return law_violation("interchange", (w, x, y), lhs[y], rhs[y])
    return LawReport("interchange", True)


# ---------------------------------------------------------------------------
# factor dependence

def first_factor_map(f: BinOpTable) -> tuple[int, ...] | None:
    """The inducing unary map when f depends only on its first argument."""
    if all(len(set(row)) == 1 for row in f.table):
        return tuple(row[0] for row in f.table)
    return None


def second_factor_map(f: BinOpTable) -> tuple[int, ...] | None:
    """The inducing unary map when f depends only on its second argument."""
    first = f.table[0]
    if all(row == first for row in f.table):
        return first
    return None


def depends_only_on_first(f: BinOpTable) -> bool:
    return first_factor_map(f) is not None


def depends_only_on_second(f: BinOpTable) -> bool:
    return second_factor_map(f) is not None


# ---------------------------------------------------------------------------
# JSON forms

def binop_from_json(data: dict, resolver=None) -> BinOpTable:
    """Parse ``{"group": <name or inline group>, "table": [[int]]}``."""
    from .catalog import resolve_group

    if not isinstance(data, dict) or "group" not in data or "table" not in data:
        raise InputError("operation JSON requires 'group' and 'table' fields")
    G = (resolver or resolve_group)(data["group"])
    return binop(G, data["table"])


def unary_map_from_json(data: dict, resolver=None) -> tuple[int, ...]:
    """Parse ``{"group": <name or inline group>, "images": [int]}``."""
    from .catalog import resolve_group

    if not isinstance(data, dict) or "group" not in data or "images" not in data:
        raise InputError("unary map JSON requires 'group' and 'images' fields")
    G = (resolver or resolve_group)(data["group"])
    return check_map(G, data["images"])
