"""Binary operations on a group carrier as n×n tables, plus the law checks.

The set of all binary operations on a carrier (G,+) is itself a group under
pointwise addition; op_add/op_neg/op_sub implement it.  Every law predicate
scans all triples (or quadruples) exhaustively and reports the
lexicographically first violation; correctness over speed at these sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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

def is_associative(f: BinOpTable) -> LawReport:
    t = f.table
    n = f.order
    for a in range(n):
        for b in range(n):
            ab = t[a][b]
            for c in range(n):
                lhs = t[ab][c]
                rhs = t[a][t[b][c]]
                if lhs != rhs:
                    return LawReport("associativity", False, (a, b, c), lhs, rhs)
    return LawReport("associativity", True)


def is_left_distributive(f: BinOpTable) -> LawReport:
    """a*(b+c) = a*b + a*c."""
    G = f.carrier
    t, add = f.table, G.table
    n = f.order
    for a in range(n):
        for b in range(n):
            ab = t[a][b]
            for c in range(n):
                lhs = t[a][add[b][c]]
                rhs = add[ab][t[a][c]]
                if lhs != rhs:
                    return LawReport("left-distributivity", False, (a, b, c), lhs, rhs)
    return LawReport("left-distributivity", True)


def is_right_distributive(f: BinOpTable) -> LawReport:
    """(a+b)*c = a*c + b*c."""
    G = f.carrier
    t, add = f.table, G.table
    n = f.order
    for a in range(n):
        for b in range(n):
            ab = add[a][b]
            for c in range(n):
                lhs = t[ab][c]
                rhs = add[t[a][c]][t[b][c]]
                if lhs != rhs:
                    return LawReport("right-distributivity", False, (a, b, c), lhs, rhs)
    return LawReport("right-distributivity", True)


def is_left_skew_sigma_distributive(f: BinOpTable, sigma: MapLike) -> LawReport:
    """a*(b+c) = (a*b) - sigma(a) + (a*c)."""
    G = f.carrier
    s = check_map(G, sigma)
    t, add, inv = f.table, G.table, G.inverse
    n = f.order
    for a in range(n):
        neg_sa = inv[s[a]]
        for b in range(n):
            left_part = add[t[a][b]][neg_sa]
            for c in range(n):
                lhs = t[a][add[b][c]]
                rhs = add[left_part][t[a][c]]
                if lhs != rhs:
                    return LawReport("left-skew-sigma-distributivity", False, (a, b, c), lhs, rhs)
    return LawReport("left-skew-sigma-distributivity", True)


def is_right_skew_sigma_distributive(f: BinOpTable, sigma: MapLike) -> LawReport:
    """(a+b)*c = (a*c) - sigma(c) + (b*c)."""
    G = f.carrier
    s = check_map(G, sigma)
    t, add, inv = f.table, G.table, G.inverse
    n = f.order
    for a in range(n):
        for b in range(n):
            ab = add[a][b]
            for c in range(n):
                lhs = t[ab][c]
                rhs = add[add[t[a][c]][inv[s[c]]]][t[b][c]]
                if lhs != rhs:
                    return LawReport("right-skew-sigma-distributivity", False, (a, b, c), lhs, rhs)
    return LawReport("right-skew-sigma-distributivity", True)


def is_left_weak_sigma_associative(f: BinOpTable, sigma: MapLike) -> LawReport:
    """(sigma(a) + a*b)*c = a*(b*c)."""
    G = f.carrier
    s = check_map(G, sigma)
    t, add = f.table, G.table
    n = f.order
    for a in range(n):
        sa = s[a]
        for b in range(n):
            e = add[sa][t[a][b]]
            for c in range(n):
                lhs = t[e][c]
                rhs = t[a][t[b][c]]
                if lhs != rhs:
                    return LawReport("left-weak-sigma-associativity", False, (a, b, c), lhs, rhs)
    return LawReport("left-weak-sigma-associativity", True)


def satisfies_interchange(f: BinOpTable) -> LawReport:
    """(w+x)*(y+z) = (w*y) + (x*z) over all quadruples."""
    G = f.carrier
    t, add = f.table, G.table
    n = f.order
    for w in range(n):
        for x in range(n):
            wx = add[w][x]
            for y in range(n):
                wy = t[w][y]
                row = t[wx]
                for z in range(n):
                    lhs = row[add[y][z]]
                    rhs = add[wy][t[x][z]]
                    if lhs != rhs:
                        return LawReport("interchange", False, (w, x, y, z), lhs, rhs)
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
