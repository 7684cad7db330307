"""Binary operations on a group carrier as n×n tables, plus the law checks.

The set of all binary operations on a carrier (G,+) is itself a group under
pointwise addition; op_add/op_neg/op_sub implement it.

Every law predicate is exhaustive and reports the lexicographically first
violation.  Table rows are read as bytes, one byte per element (so carriers
have order at most 256).  For each value of the law's first variable, each
side is built as one string over the other variables, in lexicographic
order, by two C-level primitives: bytes.translate with a row padded to 256
bytes, which applies the row as a map, and bytes.join over strings picked
by element values; the weak associative laws build both sides over all
three variables at once.  One == compares the two strings, and the first
differing offset of an unequal pair unravels into the witness, lhs and rhs
that a plain scan over every tuple in lexicographic order gives.  The left
skew law holds on a row exactly when the row, shifted, is an
endomorphism, so its passing (row, shift) pairs are kept per group.  The
interchange law is decided on every carrier in O(n²) by its split into two
endomorphisms with commuting images; only a failing table is then scanned
per w for its witness.  That scalar scan is kept, one loop per law, as the
reference in tests/law_reference.py.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import CarrierMismatch, InputError
from .groups import EndoMap, FiniteGroup, MapLike, _table_rows, is_element


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
    """Validate an n x n table on a carrier of order n: n rows, each checked
    by the Cayley-table rule that group tables pass too.  Nothing is
    coerced."""
    n = carrier.order
    if not isinstance(table, (list, tuple)) or len(table) != n:
        raise InputError(f"operation table must be a list of {n} lists of {n} integers")
    return BinOpTable(carrier=carrier, table=_table_rows(table))


def check_map(G: FiniteGroup, m: MapLike, label: str = "unary map") -> tuple[int, ...]:
    """The images of m, which must be an EndoMap or a list (or tuple) of
    n carrier labels.  Nothing is coerced."""
    images = m.images if isinstance(m, EndoMap) else m
    n = G.order
    if not isinstance(images, (list, tuple)) or len(images) != n or not all(
        is_element(x, n) for x in images
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

def _pad(row: bytes) -> bytes:
    """A row as a bytes.translate table: the map x -> row[x]."""
    return row.ljust(256, b"\0")


# The shift 0 at every element of any carrier (orders are at most 256).
ZEROS = bytes(256)

# The most (row, shift) pairs one group's row memo holds.
ROW_MEMO_SIZE = 4096


class AdditionMaps(NamedTuple):
    """The addition table of a group in the forms the law engine reads,
    and the group's memo of the left skew law per row: the (row, shift)
    pairs that passed _left_skew, at most ROW_MEMO_SIZE = 4096 of them.  A
    full memo is emptied before the next pair is added."""

    rows: tuple[bytes, ...]  # row g: (g + x) over x
    flat: bytes  # (b + c) over (b, c)
    left: tuple[bytes, ...]  # g -> the table of x -> g + x
    right: tuple[bytes, ...]  # g -> the table of x -> x + g
    endomorphic: set  # (row, shift) pairs that pass _left_skew


_ADDITION_MAPS: dict[tuple, AdditionMaps] = {}


def addition_maps(G: FiniteGroup) -> AdditionMaps:
    """The AdditionMaps of G, cached per group table."""
    cached = _ADDITION_MAPS.get(G.table)
    if cached is None:
        rows = tuple(map(bytes, G.table))
        columns = tuple(map(bytes, zip(*G.table)))
        cached = _ADDITION_MAPS[G.table] = AdditionMaps(
            rows, b"".join(rows), tuple(map(_pad, rows)), tuple(map(_pad, columns)), set()
        )
    return cached


def _first_offset(lhs: bytes, rhs: bytes) -> int:
    """The first offset where two unequal strings differ: read as
    big-endian integers, their xor has its top bit in that byte."""
    xor = int.from_bytes(lhs, "big") ^ int.from_bytes(rhs, "big")
    return len(lhs) - (xor.bit_length() + 7) // 8


def law_violation(law: str, prefix: tuple[int, ...], lhs: bytes, rhs: bytes, n: int) -> LawReport:
    """The failing report for unequal blocks listing a law's sides over its
    remaining coordinates in lexicographic order: their first differing
    offset, unravelled base n, extends the prefix to the witness."""
    i = _first_offset(lhs, rhs)
    witness, size = list(prefix), len(lhs)
    while size > 1:
        size //= n
        witness.append(i // size % n)
    return LawReport(law, False, tuple(witness), lhs[i], rhs[i])


@functools.cache
def holds(law: str) -> LawReport:
    """The passing report of a law: reports are immutable, so one serves."""
    return LawReport(law, True)


def rows_of(f: BinOpTable) -> list[bytes]:
    """The rows of a table as bytes, the form the law engine reads."""
    return list(map(bytes, f.table))


def _left_weak(G: FiniteGroup, rows: Sequence[bytes], s: Sequence[int], law: str) -> LawReport:
    """(s(a) + a*b)*c = a*(b*c), on whole tables: the rows t[s(a) + a*b]
    joined over (a, b), against the flat table mapped through each row a.
    The witness is read in the n*n block of the first differing a."""
    plus = addition_maps(G).left
    flat = b"".join(rows)
    lhs = b"".join([rows[x] for x in b"".join([r.translate(plus[sa]) for r, sa in zip(rows, s)])])
    rhs = b"".join([flat.translate(_pad(r)) for r in rows])
    if lhs != rhs:
        n = len(rows)
        a = _first_offset(lhs, rhs) // (n * n)
        block = slice(a * n * n, (a + 1) * n * n)
        return law_violation(law, (a,), lhs[block], rhs[block], n)
    return holds(law)


def _skew_line(k: AdditionMaps, x: bytes, neg: int) -> tuple[bytes, bytes]:
    """For a line x (a row or a column of a table, read as a map) and neg
    the negated shift: the blocks over (b, c) of x(b + c) and
    x(b) + neg + x(c)."""
    return (
        k.flat.translate(_pad(x)),
        b"".join([x.translate(k.left[g]) for g in x.translate(k.right[neg])]),
    )


def _skew_blocks(G: FiniteGroup, lines: Iterable[bytes], s: Sequence[int]) -> Iterator[tuple]:
    """The blocks of _skew_line per line x with shift s(x)."""
    k = addition_maps(G)
    for x, sx in zip(lines, s):
        yield _skew_line(k, x, G.inverse[sx])


def _left_skew(G: FiniteGroup, rows: Sequence[bytes], s: Sequence[int], law: str) -> LawReport:
    """a*(b+c) = (a*b) - s(a) + (a*c), per a, on row a.  The law says that
    x -> -s(a) + a*x is an endomorphism, so its verdict on row a depends on
    the row's bytes and s(a) alone.  The pairs (row, shift) that pass are
    kept per group table in AdditionMaps.endomorphic, so each is decided
    once; a row not kept is decided by its blocks, which also give a
    failing row's witness."""
    k = addition_maps(G)
    memo = k.endomorphic
    if memo.issuperset(zip(rows, s)):
        return holds(law)
    for a, pair in enumerate(zip(rows, s)):
        if pair not in memo:
            x, sx = pair
            lhs, rhs = _skew_line(k, x, G.inverse[sx])
            if lhs != rhs:
                return law_violation(law, (a,), lhs, rhs, len(rows))
            if len(memo) >= ROW_MEMO_SIZE:
                memo.clear()
            memo.add(pair)
    return holds(law)


def _right_skew(G: FiniteGroup, rows: Sequence[bytes], s: Sequence[int], law: str) -> LawReport:
    """(a+b)*c = (a*c) - s(c) + (b*c): for each c, the law of _left_skew
    on column c, over (a, b).  The witness is the least (a, b, c) among the
    first violations of the failing columns."""
    n = len(rows)
    first, end = None, n * n  # the least violation so far; ties keep the smaller c
    for c, (lhs, rhs) in enumerate(_skew_blocks(G, map(bytes, zip(*rows)), s)):
        if lhs[:end] != rhs[:end]:
            end = _first_offset(lhs[:end], rhs[:end])
            first = (end, c, lhs, rhs)
            if not end:  # no later column beats a violation at (0, 0)
                break
    if first is None:
        return holds(law)
    i, c, lhs, rhs = first
    return LawReport(law, False, (i // n, i % n, c), lhs[i], rhs[i])


def sum_of_projections(G: FiniteGroup, left, right) -> bytes:
    """The flat table a o b = left(a) + right(b): row a is the images of
    right mapped through the addition row left(a)."""
    plus, images = addition_maps(G).left, bytes(right)
    return b"".join(images.translate(plus[x]) for x in left)


def _interchange(G: FiniteGroup, rows: Sequence[bytes]) -> LawReport:
    """(w+x)*(y+z) = (w*y) + (x*z), decided by its split: with eps = *(-, 0)
    and eta = *(0, -), it holds iff w*z = eps(w) + eta(z) = eta(z) + eps(w)
    for all (w, z) and eps and eta are endomorphisms (the law at x = y = 0,
    y = z = 0, w = x = 0 and w = z = 0; conversely eps(w+x) + eta(y+z) =
    eps(w) + eta(y) + eps(x) + eta(z)).  Only a failing table is scanned."""
    n = len(rows)
    flat = b"".join(rows)
    eps, eta = flat[::n], rows[0]
    right = addition_maps(G).right
    if (flat == sum_of_projections(G, eps, eta)
            == b"".join([eta.translate(right[e]) for e in eps])  # eta(z) + eps(w)
            and _left_skew(G, (eps, eta), ZEROS, "left-distributivity").holds):
        return holds("interchange")
    return _interchange_witness(G, rows)


def _interchange_witness(G: FiniteGroup, rows: Sequence[bytes]) -> LawReport:
    """The interchange law scanned per w over (x, y, z), for the witness of
    a table the split test rejects: the left block of x over (y, z) depends
    on w + x alone, and the right one is row x shifted by each w*y."""
    k = addition_maps(G)
    n = len(rows)
    by_sum = [k.flat.translate(_pad(r)) for r in rows]  # s -> t[s][y + z]
    shifted = [[r.translate(p) for p in k.left] for r in rows]  # x -> h -> h + t[x][z]
    for w, r in enumerate(rows):
        lhs = b"".join([by_sum[x] for x in k.rows[w]])
        rhs = b"".join([by_h[h] for by_h in shifted for h in r])
        if lhs != rhs:
            return law_violation("interchange", (w,), lhs, rhs, n)
    return holds("interchange")


def is_associative(f: BinOpTable) -> LawReport:
    """(a*b)*c = a*(b*c)."""
    return _left_weak(f.carrier, rows_of(f), ZEROS, "associativity")


def is_left_distributive(f: BinOpTable) -> LawReport:
    """a*(b+c) = a*b + a*c."""
    return _left_skew(f.carrier, rows_of(f), ZEROS, "left-distributivity")


def is_right_distributive(f: BinOpTable) -> LawReport:
    """(a+b)*c = a*c + b*c."""
    return _right_skew(f.carrier, rows_of(f), ZEROS, "right-distributivity")


def is_left_skew_sigma_distributive(f: BinOpTable, sigma: MapLike) -> LawReport:
    """a*(b+c) = (a*b) - sigma(a) + (a*c)."""
    G = f.carrier
    return _left_skew(G, rows_of(f), check_map(G, sigma), "left-skew-sigma-distributivity")


def is_right_skew_sigma_distributive(f: BinOpTable, sigma: MapLike) -> LawReport:
    """(a+b)*c = (a*c) - sigma(c) + (b*c)."""
    G = f.carrier
    return _right_skew(G, rows_of(f), check_map(G, sigma), "right-skew-sigma-distributivity")


def is_left_weak_sigma_associative(f: BinOpTable, sigma: MapLike) -> LawReport:
    """(sigma(a) + a*b)*c = a*(b*c)."""
    G = f.carrier
    return _left_weak(G, rows_of(f), check_map(G, sigma), "left-weak-sigma-associativity")


def satisfies_interchange(f: BinOpTable) -> LawReport:
    """(w+x)*(y+z) = (w*y) + (x*z)."""
    return _interchange(f.carrier, rows_of(f))


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

