"""Finite groups as Cayley tables over 0..n-1 with identity 0.

Everything downstream (operation tables, truss structures, enumeration)
refers to group elements by index only.  All values are immutable after
validation and safe to share across threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from .errors import (
    CarrierMismatch,
    CarrierTooLarge,
    InputError,
    NoIdentityAtZero,
    NotAssociative,
    NotEndomorphism,
    NotIdempotent,
    NotLatinSquare,
    TrussLabError,
)

SUBGROUP_ORDER_CAP = 12
# enumerate_endomorphisms tries n^|generators| maps: 16^4 on Z2^4, 32^5 on Z2^5
ENDOMORPHISM_CANDIDATE_CAP = 100_000
# the law engine (trusslab.ops) stores carrier elements as bytes
MAX_CARRIER_ORDER = 256


@dataclass(frozen=True)
class FiniteGroup:
    """A group of order n: ``table[a][b] = a + b``, identity at index 0.

    Construct through :func:`validate_group`; direct construction skips the
    axiom checks and the inverse table.
    """

    name: str
    table: tuple[tuple[int, ...], ...]
    inverse: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.table)

    @property
    def elements(self) -> range:
        return range(len(self.table))

    def add(self, a: int, b: int) -> int:
        return self.table[a][b]

    def neg(self, a: int) -> int:
        return self.inverse[a]

    def sub(self, a: int, b: int) -> int:
        return self.table[a][self.inverse[b]]

    def conj(self, x: int, g: int) -> int:
        """Conjugate of x by g: ``-g + x + g``."""
        return self.table[self.table[self.inverse[g]][x]][g]

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "order": self.order,
            "table": [list(row) for row in self.table],
        }


@dataclass(frozen=True)
class EndoMap:
    """A self-map of a group carrier; ``images[a] = f(a)``.

    ``is_endomorphism`` is set by validation, never assumed.
    """

    images: tuple[int, ...]
    is_endomorphism: bool = False

    def __call__(self, a: int) -> int:
        return self.images[a]

    def __len__(self) -> int:
        return len(self.images)


MapLike = Union[EndoMap, Sequence[int]]


def images_of(m: MapLike) -> tuple[int, ...]:
    """Coerce an EndoMap or raw image sequence into an image tuple."""
    if isinstance(m, EndoMap):
        return m.images
    return tuple(m)


@dataclass(frozen=True)
class Decomposition:
    """Internal semidirect factorization carrier = kernel_part ⋊ image_part."""

    image_part: tuple[int, ...]
    kernel_part: tuple[int, ...]
    kind: str  # "semidirect" | "direct"


def is_element(x, n: int) -> bool:
    """x labels a carrier element: an int in 0..n-1, never a bool or float."""
    return type(x) is int and 0 <= x < n


def _table_rows(table) -> tuple[tuple[int, ...], ...]:
    """A Cayley table as a tuple of rows: a non-empty list (or tuple) of n
    lists of n carrier labels.  Nothing is coerced."""
    if not isinstance(table, (list, tuple)) or not table:
        raise InputError("Cayley table must be a non-empty list of rows")
    n = len(table)
    if n > MAX_CARRIER_ORDER:
        raise CarrierTooLarge(f"carriers are capped at order {MAX_CARRIER_ORDER}, got {n}")
    for a, row in enumerate(table):
        if not isinstance(row, (list, tuple)) or len(row) != n:
            raise InputError(f"row {a} is not a list of {n} entries")
        for b, x in enumerate(row):
            if not is_element(x, n):
                raise InputError(
                    f"entry table[{a}][{b}] = {x!r} is not an integer in 0..{n - 1}"
                )
    return tuple(map(tuple, table))


def validate_group(table: Sequence[Sequence[int]], name: str = "G") -> FiniteGroup:
    """Check all group axioms exhaustively and return the validated group.

    Raises InputError on a malformed table, and NotLatinSquare /
    NoIdentityAtZero / NotAssociative, each with a witness cell or triple.
    Two-sided inverses follow from the other axioms on a finite carrier;
    they are computed here and stored.
    """
    rows = _table_rows(table)
    n = len(rows)

    full = frozenset(range(n))
    for a, row in enumerate(rows):
        if frozenset(row) != full:
            raise NotLatinSquare(f"row {a} is not a permutation of 0..{n - 1}", witness=("row", a))
    for b in range(n):
        col = frozenset(rows[a][b] for a in range(n))
        if col != full:
            raise NotLatinSquare(f"column {b} is not a permutation of 0..{n - 1}", witness=("column", b))

    for a in range(n):
        if rows[0][a] != a or rows[a][0] != a:
            raise NoIdentityAtZero(f"element 0 is not a two-sided identity at {a}", witness=a)

    for a in range(n):
        for b in range(n):
            ab = rows[a][b]
            row_a = rows[a]
            row_ab = rows[ab]
            row_b = rows[b]
            for c in range(n):
                if row_ab[c] != row_a[row_b[c]]:
                    raise NotAssociative(
                        f"({a}+{b})+{c} = {row_ab[c]} != {row_a[row_b[c]]} = {a}+({b}+{c})",
                        witness=(a, b, c),
                    )

    inverse = [0] * n
    for a in range(n):
        inverse[a] = rows[a].index(0)
    return FiniteGroup(name=name, table=rows, inverse=tuple(inverse))


def group_from_json(data: dict, normalize: bool = True) -> FiniteGroup:
    """Parse ``{"name", "order", "table"}``, relabeling the identity to 0 if
    needed.  ``normalize=False`` rejects tables whose identity is elsewhere;
    required when companion tables share the labeling and cannot be moved."""
    if not isinstance(data, dict) or "table" not in data:
        raise InputError("group JSON must be an object with a 'table' field")
    table = _table_rows(data["table"])
    n = len(table)
    order = data.get("order", n)
    if type(order) is not int or order != n:
        raise InputError(f"declared order {order!r} is not the table size {n}")
    gname = data.get("name", "G")
    if not isinstance(gname, str):
        raise InputError(f"group name {gname!r} is not a string")

    ident = _find_identity(table)
    if ident is None:
        raise NoIdentityAtZero("table has no two-sided identity element")
    if ident != 0:
        if not normalize:
            raise NoIdentityAtZero(
                f"identity sits at index {ident}; normalize the group before "
                "attaching structure tables to it"
            )
        perm = list(range(n))
        perm[0], perm[ident] = perm[ident], perm[0]  # involution: its own inverse
        table = [[perm[table[perm[a]][perm[b]]] for b in range(n)] for a in range(n)]
    return validate_group(table, name=gname)


def _find_identity(table) -> int | None:
    n = len(table)
    for e in range(n):
        if all(table[e][a] == a and table[a][e] == a for a in range(n)):
            return e
    return None


def is_abelian(G: FiniteGroup) -> bool:
    t = G.table
    return all(t[a][b] == t[b][a] for a in G.elements for b in range(a))


def preserves_binop(h, src_table, dst_table) -> bool:
    """True iff h(a * b) = h(a) * h(b) for all a, b, with * read from
    src_table on the left and from dst_table on the right."""
    n = len(h)
    return all(
        h[src_table[a][b]] == dst_table[h[a]][h[b]] for a in range(n) for b in range(n)
    )


def is_endomorphism_images(G: FiniteGroup, images: Sequence[int]) -> bool:
    return preserves_binop(images, G.table, G.table)


def endomorphism_of(G: FiniteGroup, m: MapLike) -> EndoMap:
    """Certify a raw map as a group endomorphism (raises NotEndomorphism)."""
    images = images_of(m)
    if len(images) != G.order:
        raise NotEndomorphism(f"map has {len(images)} images on a carrier of order {G.order}")
    if not is_endomorphism_images(G, images):
        raise NotEndomorphism(f"map {list(images)} does not preserve the group operation")
    return EndoMap(images=images, is_endomorphism=True)


def identity_map(G: FiniteGroup) -> EndoMap:
    return EndoMap(images=tuple(G.elements), is_endomorphism=True)


def zero_map(G: FiniteGroup) -> EndoMap:
    return EndoMap(images=(0,) * G.order, is_endomorphism=True)


def is_idempotent_map(m: MapLike) -> bool:
    """True iff f(f(a)) = f(a) for all a.  Applies to arbitrary self-maps."""
    f = images_of(m)
    return all(f[f[a]] == f[a] for a in range(len(f)))


def compose_maps(f: MapLike, g: MapLike) -> tuple[int, ...]:
    """Images of a ↦ f(g(a))."""
    fi, gi = images_of(f), images_of(g)
    return tuple(fi[gi[a]] for a in range(len(gi)))


def compose_commute(f: MapLike, g: MapLike) -> bool:
    """True iff f∘g = g∘f pointwise on a shared carrier."""
    fi, gi = images_of(f), images_of(g)
    if len(fi) != len(gi):
        raise CarrierMismatch(f"maps defined on carriers of sizes {len(fi)} and {len(gi)}")
    return all(fi[gi[a]] == gi[fi[a]] for a in range(len(fi)))


def image_commuting(G: FiniteGroup, f: MapLike, g: MapLike) -> bool:
    """True iff f(x) + g(y) = g(y) + f(x) for all x, y."""
    images, centralizers = image_commuting_masks(G, (f, g))
    return not images[1] & ~centralizers[0]


def image_commuting_masks(G: FiniteGroup, maps: Sequence[MapLike]) -> tuple[list[int], list[int]]:
    """Per map f, the bitmask of its image and of the centralizer of its
    image: image_commuting(G, f, g) iff images[g] & ~centralizers[f] == 0."""
    t = G.table
    commuting = [sum(1 << y for y in G.elements if t[x][y] == t[y][x]) for x in G.elements]
    images, centralizers = [], []
    for m in maps:
        image = set(images_of(m))
        images.append(sum(1 << x for x in image))
        centralizer = (1 << G.order) - 1
        for x in image:
            centralizer &= commuting[x]
        centralizers.append(centralizer)
    return images, centralizers


_ENDOMORPHISMS: dict[tuple, tuple] = {}


def enumerate_endomorphisms(G: FiniteGroup) -> list[EndoMap]:
    """All group endomorphisms of G, sorted lexicographically by images, as
    a fresh list; the search runs once per group table.

    Backtracks over generator images; each candidate extends along the
    closure tree and is then validated against the full table (the n^n scan
    is infeasible beyond n = 6, the generator route is exact at any order).
    More than ENDOMORPHISM_CANDIDATE_CAP candidate maps are refused.
    """
    cached = _ENDOMORPHISMS.get(G.table)
    if cached is None:
        cached = _ENDOMORPHISMS[G.table] = _search_endomorphisms(G)
    return list(cached)


def _search_endomorphisms(G: FiniteGroup) -> tuple[EndoMap, ...]:
    n = G.order
    t = G.table
    gens = generating_set(G)
    if not gens:  # trivial group
        return (EndoMap(images=(0,), is_endomorphism=True),)
    if n ** len(gens) > ENDOMORPHISM_CANDIDATE_CAP:
        raise CarrierTooLarge(
            f"endomorphisms of {G.name} need {n ** len(gens)} candidate maps, "
            f"over the cap {ENDOMORPHISM_CANDIDATE_CAP}"
        )

    # BFS tree: every element is reached as (previous element) + (generator)
    parent: list[tuple[int, int] | None] = [None] * n
    order_seen = [0]
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                w = t[e][g]
                if w not in seen:
                    seen.add(w)
                    parent[w] = (e, g)
                    order_seen.append(w)
                    nxt.append(w)
        frontier = nxt
    assert len(seen) == n, "generating set does not generate"

    gen_pos = {g: i for i, g in enumerate(gens)}
    found: list[EndoMap] = []
    for choice in itertools.product(range(n), repeat=len(gens)):
        f = [0] * n
        for e in order_seen[1:]:
            prev, g = parent[e]
            f[e] = t[f[prev]][choice[gen_pos[g]]]
        if is_endomorphism_images(G, f):
            found.append(EndoMap(images=tuple(f), is_endomorphism=True))
    found.sort(key=lambda e: e.images)
    return tuple(found)


def generating_set(G: FiniteGroup) -> list[int]:
    """A small generating set, grown greedily by closure."""
    gens: list[int] = []
    closed = {0}
    while len(closed) < G.order:
        g = min(a for a in G.elements if a not in closed)
        gens.append(g)
        closed = set(closure(G, closed | {g}))
    return gens


def closure(G: FiniteGroup, elems: Iterable[int]) -> tuple[int, ...]:
    """Subgroup generated by ``elems`` (closure under the product suffices
    on a finite carrier)."""
    t = G.table
    cur = set(elems) | {0}
    frontier = list(cur)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(cur):
                for x in (t[a][b], t[b][a]):
                    if x not in cur:
                        cur.add(x)
                        nxt.append(x)
        frontier = nxt
    return tuple(sorted(cur))


def subgroups(G: FiniteGroup) -> list[tuple[int, ...]]:
    """All subgroups, by closure growth from cyclic seeds.  Capped at
    SUBGROUP_ORDER_CAP: the scan is exhaustive only for small carriers."""
    if G.order > SUBGROUP_ORDER_CAP:
        raise CarrierTooLarge(
            f"subgroup enumeration capped at order {SUBGROUP_ORDER_CAP}, got {G.order}"
        )
    found = {(0,)}
    frontier = [(0,)]
    while frontier:
        H = frontier.pop()
        members = set(H)
        for g in G.elements:
            if g in members:
                continue
            K = closure(G, members | {g})
            if K not in found:
                found.add(K)
                frontier.append(K)
    return sorted(found, key=lambda h: (len(h), h))


def is_normal(G: FiniteGroup, H: Sequence[int]) -> bool:
    members = set(H)
    return all(G.conj(h, g) in members for h in H for g in G.elements)


def normal_subgroups(G: FiniteGroup) -> list[tuple[int, ...]]:
    return [H for H in subgroups(G) if is_normal(G, H)]


def center(G: FiniteGroup) -> tuple[int, ...]:
    """Elements commuting with everything, by exhaustive commutation."""
    t = G.table
    return tuple(a for a in G.elements if all(t[a][b] == t[b][a] for b in G.elements))


def automorphisms(G: FiniteGroup) -> list[EndoMap]:
    """Bijective endomorphisms, sorted lexicographically by images."""
    return [e for e in enumerate_endomorphisms(G) if len(set(e.images)) == G.order]


def decomposition_from_idempotent(G: FiniteGroup, e: MapLike) -> Decomposition:
    """Semidirect factorization carrier = ker(e) ⋊ im(e) attached to an
    idempotent endomorphism e; kind is "direct" when the two parts commute
    elementwise."""
    images = images_of(e)
    if not is_endomorphism_images(G, images):
        raise NotEndomorphism("decomposition requires a group endomorphism")
    if not is_idempotent_map(images):
        raise NotIdempotent("decomposition requires an idempotent map")
    image_part = tuple(sorted(set(images)))
    kernel_part = tuple(a for a in G.elements if images[a] == 0)
    # sanity: unique factorization g = k + i with k in kernel, i in image
    t = G.table
    factored = {t[k][i] for k in kernel_part for i in image_part}
    if not len(factored) == len(kernel_part) * len(image_part) == G.order:
        raise TrussLabError(f"kernel + image of an idempotent does not factor {G.name}")
    direct = all(t[k][i] == t[i][k] for k in kernel_part for i in image_part)
    return Decomposition(
        image_part=image_part,
        kernel_part=kernel_part,
        kind="direct" if direct else "semidirect",
    )
