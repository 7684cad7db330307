"""Built-in group catalog: Z1..Z8, the Klein four group, S3, D4, Q8.

Three constructors build every table: direct products of cyclic groups
(Z1..Z8, V4), dihedral groups (S3, D4) and a dicyclic group (Q8).  Each
puts the identity at index 0, and each table is run through the full
validator.  Groups are addressable by name (case-insensitive) so test
fixtures and CLI invocations stay small.
"""

from __future__ import annotations

import functools
import itertools

from .errors import InputError
from .groups import FiniteGroup, group_from_json, validate_group


def _product(*orders: int) -> list[list[int]]:
    """Z_{m1} x Z_{m2} x ..., its elements as digit tuples in lexicographic
    order: Z_n is _product(n) and the Klein four group _product(2, 2)."""
    elems = list(itertools.product(*map(range, orders)))
    index = {e: i for i, e in enumerate(elems)}
    return [
        [index[tuple((x + y) % m for x, y, m in zip(a, b, orders))] for b in elems]
        for a in elems
    ]


def _dihedral(m: int) -> list[list[int]]:
    """The symmetries of an m-gon as sorted permutations of its corners:
    rotations i -> i + k and flips i -> k - i, where p*q applies q, then p.
    The identity sorts first."""
    perms = sorted(
        tuple((sign * i + k) % m for i in range(m)) for sign in (1, -1) for k in range(m)
    )
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[x] for x in q)] for q in perms] for p in perms]


def _dicyclic(m: int) -> list[list[int]]:
    """<a, x | a^2m = 1, x^2 = a^m, x a x^-1 = a^-1>, the element
    a^(r + s m) x^j at position (j, r, s): for m = 2 the quaternions
    1, -1, i, -i, j, -j, k, -k with i = a and j = x."""
    elems = [(r + s * m, j) for j in range(2) for r in range(m) for s in range(2)]
    index = {e: i for i, e in enumerate(elems)}

    def mul(u, v):
        (e, j), (f, k) = u, v
        # x a^f = a^-f x, and x^2 = a^m
        e = e + (-f if j else f) + (m if j and k else 0)
        return index[e % (2 * m), (j + k) % 2]

    return [[mul(u, v) for v in elems] for u in elems]


_BUILDERS = {
    **{f"Z{n}": functools.partial(_product, n) for n in range(1, 9)},
    "V4": functools.partial(_product, 2, 2),
    "S3": functools.partial(_dihedral, 3),
    "D4": functools.partial(_dihedral, 4),
    "Q8": functools.partial(_dicyclic, 2),
}

_ALIASES = {"K4": "V4", "KLEIN4": "V4", "KLEIN-FOUR": "V4", "KLEINFOUR": "V4"}


def builtin_names() -> list[str]:
    return sorted(_BUILDERS)


@functools.lru_cache(maxsize=None)
def builtin_group(name: str) -> FiniteGroup:
    key = name.strip().upper()
    key = _ALIASES.get(key, key)
    if key not in _BUILDERS:
        raise InputError(f"unknown group {name!r}; built-ins: {', '.join(builtin_names())}")
    return validate_group(_BUILDERS[key](), name=key)


def resolve_group(spec) -> FiniteGroup:
    """Resolve a group reference: a catalog name or an inline group object."""
    if isinstance(spec, str):
        return builtin_group(spec)
    if isinstance(spec, dict):
        return group_from_json(spec)
    raise InputError(f"cannot resolve a group from {type(spec).__name__}")


def groups_of_order_at_most(n: int) -> list[FiniteGroup]:
    return [g for g in (builtin_group(name) for name in builtin_names()) if g.order <= n]
