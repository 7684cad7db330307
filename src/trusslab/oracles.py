"""Raw-axiom oracles for carriers of size <= 3.

Plain loops over every table and self-map, read against the axioms as
written: neither the sigma + lambda reduction of the search nor the law
engine in ops.  They certify the parametrized search in enumeration, whose
reduction rests on the structure theory the tests are meant to check, so
they share none of it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import CarrierTooLarge
from .groups import FiniteGroup, enumerate_endomorphisms, image_commuting, is_idempotent_map

ORACLE_ORDER_CAP = 3


@dataclass(frozen=True)
class OracleResult:
    count: int
    keys: tuple  # sorted structure_key() of everything found


def _require_tiny(G: FiniteGroup, what: str) -> None:
    if G.order > ORACLE_ORDER_CAP:
        raise CarrierTooLarge(
            f"raw {what} oracle only runs for order <= {ORACLE_ORDER_CAP}"
        )


def _holds(n: int, arity: int, axiom) -> bool:
    """Whether axiom(*xs) is true for every arity-tuple xs of elements."""
    return all(itertools.starmap(axiom, itertools.product(range(n), repeat=arity)))


def _associative(t) -> bool:
    return _holds(len(t), 3, lambda a, b, c: t[a][t[b][c]] == t[t[a][b]][c])


def _tables(n: int, law) -> list:
    """Every n x n table (a tuple of rows) on which law holds, in
    lexicographic order."""
    rows = list(itertools.product(range(n), repeat=n))
    return [t for t in itertools.product(rows, repeat=n) if law(t)]


def _result(keys: list) -> OracleResult:
    keys.sort()
    return OracleResult(count=len(keys), keys=tuple(keys))


def raw_skew_truss_search(G: FiniteGroup) -> OracleResult:
    """Scan every circ table for associativity, then every sigma map for
    left skew sigma-distributivity a o (b + c) = a o b - sigma(a) + a o c."""
    _require_tiny(G, "skew truss")
    n, add, inv = G.order, G.table, G.inverse
    return _result([
        (sigma, sum(circ, ()))
        for circ in _tables(n, _associative)
        for sigma in itertools.product(range(n), repeat=n)
        if _holds(n, 3, lambda a, b, c: circ[a][add[b][c]]
                  == add[add[circ[a][b]][inv[sigma[a]]]][circ[a][c]])
    ])


def raw_weak_truss_search(G: FiniteGroup) -> OracleResult:
    """Scan every dot table for left distributivity, then every sigma map
    for weak sigma-associativity (sigma(a) + a.b).c = a.(b.c)."""
    _require_tiny(G, "weak truss")
    n, add = G.order, G.table

    def distributive(t):
        return _holds(n, 3, lambda a, b, c: t[a][add[b][c]] == add[t[a][b]][t[a][c]])

    return _result([
        (sigma, sum(dot, ()))
        for dot in _tables(n, distributive)
        for sigma in itertools.product(range(n), repeat=n)
        if _holds(n, 3, lambda a, b, c: dot[add[sigma[a]][dot[a][b]]][c] == dot[a][dot[b][c]])
    ])


def raw_interchange_search(G: FiniteGroup, associative_only: bool = False) -> OracleResult:
    """Scan every table against (w+x)o(y+z) = (woy)+(xoz)."""
    _require_tiny(G, "interchange")
    n, add = G.order, G.table

    def law(t):
        return _holds(
            n, 4, lambda w, x, y, z: t[add[w][x]][add[y][z]] == add[t[w][y]][t[x][z]]
        ) and (not associative_only or _associative(t))

    return _result([(sum(circ, ()),) for circ in _tables(n, law)])


def raw_constant_lambda_ditruss_search(
    G: FiniteGroup, image_commuting_only: bool = False
) -> OracleResult:
    """Scan every associative circ table, then every idempotent
    endomorphism sigma, for: derived dot = -sigma-pi1 + circ row-constant,
    the row map an idempotent endomorphism, optionally image-commuting with
    sigma."""
    _require_tiny(G, "constant-lambda ditruss")
    n, add, inv = G.order, G.table, G.inverse
    idempotents = {e.images for e in enumerate_endomorphisms(G) if is_idempotent_map(e)}
    keys = []
    for circ in _tables(n, _associative):
        for sigma in idempotents:
            dot = tuple(tuple(add[inv[s]][x] for x in row) for s, row in zip(sigma, circ))
            tau = dot[0]
            if dot == (tau,) * n and tau in idempotents and (
                not image_commuting_only or image_commuting(G, sigma, tau)
            ):
                keys.append((sigma, sum(circ, ()), sum(dot, ())))
    return _result(keys)
