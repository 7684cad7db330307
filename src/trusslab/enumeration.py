"""Exhaustive classification of structures on a finite group.

Two independent routes are kept deliberately separate:

* a parametrized backtracking search over (sigma, lambda-family) pairs:
  every structure it finds is re-verified against the raw axioms before it
  is emitted;
* raw-axiom brute force over full operation tables, feasible only for
  carriers of size <= 3, used to certify the parametrization (the
  parametrization is justified by the structure theory that the tests are
  supposed to certify, so the oracle must not share it).

The parametrized search keys on the reduction circ(a,b) = sigma(a) +
lam_a(b) with every lam_a an additive endomorphism, under which
associativity of circ is equivalent to

    (i)  sigma(a o b) = sigma(a) + lam_a(sigma(b))     for all a, b
    (ii) lam_{a o b}  = lam_a . lam_b                  for all a, b

and weak sigma-associativity of the dot table lam is equivalent to (ii)
alone (with a o b read as sigma(a) + lam_a(b)).
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass
from operator import itemgetter

from .errors import CarrierTooLarge, GroupMismatch, InputError, TrussLabError
from .groups import (
    FiniteGroup,
    automorphisms,
    compose_commute,
    compose_maps,
    enumerate_endomorphisms,
    image_commuting,
    image_commuting_masks,
    is_idempotent_map,
    validate_group,
)
from .ops import BinOpTable, _pad, addition_maps, is_associative
from .structures import (
    DITRUSS,
    INTERCHANGE,
    SKEW_TRUSS,
    WEAK_TRUSS,
    AlgebraObject,
    algebra_from_key,
    make_algebra,
    pullback_index,
    split_key,
    verified_key,
    verify,
)

ORDER_CAP_DEFAULT = 4
GUARDED_ORDER_CAP = 6
CANDIDATE_BUDGET = 50_000_000
ORACLE_ORDER_CAP = 3


@dataclass
class ClassificationResult:
    """Every structure of a kind on a group, kept as its structure_bytes()
    key in sorted order, and one verified object per isomorphism class.
    The objects of the full list are built when it is first asked for."""

    group: FiniteGroup
    kind: str
    keys: list[bytes]
    representatives: list[AlgebraObject]
    search_stats: dict

    @property
    def total_count(self) -> int:
        return len(self.keys)

    @property
    def iso_class_count(self) -> int:
        return len(self.representatives)

    @functools.cached_property
    def structures(self) -> list[AlgebraObject]:
        """Every structure as a verified object, in key order; the
        representatives appear as themselves."""
        reps = {o.structure_bytes(): o for o in self.representatives}
        return [
            reps[key] if key in reps else algebra_from_key(self.group, self.kind, key)
            for key in self.keys
        ]

    def to_json(self, up_to_iso: bool = False) -> dict:
        from .structures import structure_to_json

        stats = {k: v for k, v in self.search_stats.items() if k != "seconds"}
        out = {
            "group": self.group.name,
            "kind": self.kind,
            "total_count": self.total_count,
            "iso_class_count": self.iso_class_count,
            "representatives": [structure_to_json(o) for o in self.representatives],
            "search_stats": stats,
        }
        if not up_to_iso:
            out["structures"] = [structure_to_json(o) for o in self.structures]
        return out


# ---------------------------------------------------------------------------
# parametrized search

def _joint_search(G: FiniteGroup, endomorphisms, sigma_domains, condition_i: bool):
    """All (sigma, lambda) pairs with sigma(a) in sigma_domains[a] and every
    lam_a in ``endomorphisms`` (the sorted list enumerate_endomorphisms(G)
    returns) that satisfy (ii), and (i) when condition_i.  Yields
    (sigma, digit-tuple, dot-rows, circ-rows), where digit a indexes lam_a.

    The search assigns the pair (sigma(k), lam_k) for k = 0, 1, ..., each
    in increasing order.  The instance (x, y) of (i) and (ii) is decided
    when max(x, y) is assigned: its target c = sigma(x) + lam_x(y) is known
    by then, and sigma(c) = sigma(x) + lam_x(sigma(y)) and
    lam_c = lam_x lam_y are checked if c is assigned and forced on c
    otherwise.  For a fixed sigma, lambdas come in lexicographic order."""
    n = G.order
    endos = [e.images for e in endomorphisms]
    index = {e: i for i, e in enumerate(endos)}
    comp = [[index[compose_maps(f, g)] for g in endos] for f in endos]
    # shifted[s][e]: the circ row b -> s + lam(b) of an element a with
    # sigma(a) = s and lam_a = endos[e]
    shifted = [[tuple(row[x] for x in e) for e in endos] for row in G.table]
    pairs = [[(k, y) for y in range(k + 1)] + [(x, k) for x in range(k)] for k in range(n)]
    all_endos = range(len(endos))
    sigma = [0] * n
    digits = [0] * n
    rows: list = [None] * n
    # sigma(c) and lam_c forced on c > k by the instances decided so far
    forced_sigma: list = [None] * n
    forced_digit: list = [None] * n

    def extend(k):
        if k == n:
            yield tuple(sigma), tuple(digits), tuple(map(endos.__getitem__, digits)), tuple(rows)
            return
        fs, fe = forced_sigma[k], forced_digit[k]
        domain = sigma_domains[k]
        for s in domain if fs is None else (fs,) if fs in domain else ():
            sigma[k] = s
            for e in all_endos if fe is None else (fe,):
                digits[k] = e
                rows[k] = shifted[s][e]
                placed = []
                for x, y in pairs[k]:
                    row = rows[x]
                    c = row[y]
                    v = comp[digits[x]][digits[y]]
                    if c <= k:
                        if digits[c] != v or condition_i and sigma[c] != row[sigma[y]]:
                            break
                    elif forced_digit[c] is None:
                        forced_digit[c] = v
                        if condition_i:
                            forced_sigma[c] = row[sigma[y]]
                        placed.append(c)
                    elif forced_digit[c] != v or condition_i and forced_sigma[c] != row[sigma[y]]:
                        break
                else:
                    yield from extend(k + 1)
                for c in placed:
                    forced_sigma[c] = forced_digit[c] = None

    return extend(0)


def _budget_or_raise(kind: str, G: FiniteGroup, sigma_count: int, lam_count: int,
                     cap: int, budget: int) -> int:
    n = G.order
    candidates = sigma_count * lam_count
    if n > cap:
        if n > GUARDED_ORDER_CAP:
            raise CarrierTooLarge(
                f"{kind} search on order {n} exceeds the cap {cap} "
                f"(hard guard at {GUARDED_ORDER_CAP})"
            )
        if candidates > budget:
            raise CarrierTooLarge(
                f"{kind} search on {G.name} needs {candidates} candidates, "
                f"over the guard budget {budget}"
            )
    return candidates


def enumerate_skew_trusses(
    G: FiniteGroup,
    cap: int = ORDER_CAP_DEFAULT,
    budget: int = CANDIDATE_BUDGET,
) -> ClassificationResult:
    """All skew trusses on G: pairs (circ, sigma) with circ associative and
    left skew sigma-distributive.

    The sigma axis ranges over ALL self-maps.  Idempotency of sigma is not a
    consequence of the axioms (shifted group operations a o b = a + u + b
    with sigma(a) = a + u are associative and skew distributive with a
    non-idempotent sigma whenever u != 0); it only follows when sigma fixes
    0, so pruning by it would lose structures.  Every emitted object is
    re-verified against the raw axioms."""
    n = G.order
    endos = enumerate_endomorphisms(G)
    candidates = _budget_or_raise(SKEW_TRUSS, G, n ** n, len(endos) ** n, cap, budget)
    start = time.perf_counter()
    keys = [
        verified_key(G, SKEW_TRUSS, sigma, circ=circ_rows)
        for sigma, _digits, _dot, circ_rows in _joint_search(
            G, endos, [range(n)] * n, condition_i=True
        )
    ]
    stats = {
        "candidates": candidates,
        "seconds": time.perf_counter() - start,
        "sigma_fixes_zero_count": sum(1 for key in keys if key[0] == 0),
    }
    return _classify(G, SKEW_TRUSS, keys, stats)


def enumerate_weak_trusses(
    G: FiniteGroup,
    cap: int = ORDER_CAP_DEFAULT,
    budget: int = CANDIDATE_BUDGET,
) -> ClassificationResult:
    """All weak trusses on G: pairs (dot, sigma) with dot left distributive
    and left weakly sigma-associative.  sigma carries no idempotency
    constraint here."""
    n = G.order
    endos = enumerate_endomorphisms(G)
    candidates = _budget_or_raise(WEAK_TRUSS, G, n ** n, len(endos) ** n, cap, budget)
    start = time.perf_counter()
    keys = [
        verified_key(G, WEAK_TRUSS, sigma, dot=dot_rows)
        for sigma, _digits, dot_rows, _circ in _joint_search(
            G, endos, [range(n)] * n, condition_i=False
        )
    ]
    stats = {"candidates": candidates, "seconds": time.perf_counter() - start}
    return _classify(G, WEAK_TRUSS, keys, stats)


def _sum_of_projections(G: FiniteGroup, left, right) -> list[bytes]:
    """The rows of the table a o b = left(a) + right(b): row a is the
    images of right mapped through the addition row left(a)."""
    plus, images = addition_maps(G).left, bytes(right)
    return [images.translate(plus[x]) for x in left]


def enumerate_interchange(
    G: FiniteGroup, associative_only: bool = False
) -> ClassificationResult:
    """All interchange near-rings on G, as image-commuting endomorphism
    pairs (eps, eta) with circ = eps-pi1 + eta-pi2; the associative ones are
    the commuting idempotent pairs.  On carriers of size <= 3 the count is
    cross-checked against the raw table scan."""
    endos = enumerate_endomorphisms(G)
    start = time.perf_counter()
    images, centralizers = image_commuting_masks(G, endos)
    keys = []
    for eps, centralizer in zip(endos, centralizers):
        for eta, image in zip(endos, images):
            if image & ~centralizer:
                continue
            if associative_only and not (
                is_idempotent_map(eps)
                and is_idempotent_map(eta)
                and compose_commute(eps, eta)
            ):
                continue
            circ = _sum_of_projections(G, eps.images, eta.images)
            keys.append(verified_key(G, INTERCHANGE, circ=circ))
            if associative_only and not is_associative(
                BinOpTable(G, tuple(map(tuple, circ)))
            ).holds:
                raise TrussLabError("idempotent commuting pair lost associativity")
    stats = {
        "candidates": len(endos) ** 2,
        "seconds": time.perf_counter() - start,
    }
    if G.order <= ORACLE_ORDER_CAP:
        oracle = raw_interchange_search(G, associative_only=associative_only)
        stats["oracle_count"] = oracle.count
        if oracle.count != len(keys):
            raise TrussLabError(
                f"interchange oracle disagrees on {G.name}: "
                f"{oracle.count} != {len(keys)}"
            )
    return _classify(G, INTERCHANGE, keys, stats)


def enumerate_constant_lambda_ditrusses(
    G: FiniteGroup, image_commuting_only: bool = False
) -> ClassificationResult:
    """Ditrusses (sigma, sigma-pi1 + tau-pi2, tau-pi2) over commuting
    idempotent endomorphism pairs (sigma, tau); the image-commuting filter
    cuts the family down to the one matching associative interchange
    near-rings."""
    endos = [e for e in enumerate_endomorphisms(G) if is_idempotent_map(e)]
    start = time.perf_counter()
    images, centralizers = image_commuting_masks(G, endos)
    keys = []
    for sig, centralizer in zip(endos, centralizers):
        for tau, image in zip(endos, images):
            if not compose_commute(sig, tau):
                continue
            if image_commuting_only and image & ~centralizer:
                continue
            circ = _sum_of_projections(G, sig.images, tau.images)
            dot = (tau.images,) * G.order
            keys.append(verified_key(G, DITRUSS, sig.images, circ=circ, dot=dot))
    stats = {"candidates": len(endos) ** 2, "seconds": time.perf_counter() - start}
    return _classify(G, DITRUSS, keys, stats)


def _classify(G, kind, keys, stats) -> ClassificationResult:
    """Sort the structure_bytes() keys of verified structures and mark
    orbits.

    The enumerated set is closed under Aut(G), so the first key in sorted
    order that is not yet marked is the least of its orbit: its structure
    is the class representative as it stands.  Its image keys are then
    marked, so each class costs one walk over Aut(G).  An image key missing
    from the set would make that first key a false minimum, so it raises.
    Objects are built for the representatives alone."""
    keys = sorted(keys)
    position = {key: i for i, key in enumerate(keys)}
    marked = bytearray(len(keys))
    pullbacks = _pullbacks(G, kind)
    reps = []
    for i, key in enumerate(keys):
        if marked[i]:
            continue
        reps.append(algebra_from_key(G, kind, key))
        for _h, pull, push in pullbacks:
            j = position.get(bytes(pull(key)).translate(push))
            if j is None:
                raise TrussLabError(
                    f"{kind} classification on {G.name} is not closed under "
                    f"automorphisms: an image of {split_key(kind, G.order, key)} "
                    f"was not enumerated"
                )
            marked[j] = 1
    return ClassificationResult(G, kind, keys, reps, stats)


# ---------------------------------------------------------------------------
# isomorphism and canonical forms

_PULLBACKS: dict[tuple, tuple] = {}


def _pullbacks(G: FiniteGroup, kind: str) -> tuple:
    """(h, gather, translation) for every automorphism h of G but the
    identity, acting on the structure_bytes() keys of kind: the image of a
    key under h is bytes(gather(key)).translate(translation).  The image
    of a map f is h . f . h^-1: the key is pulled back along h, and every
    entry then goes through h.  A non-identity automorphism needs n >= 3,
    so every itemgetter here takes several indices and returns a tuple."""
    cached = _PULLBACKS.get((G.table, kind))
    if cached is None:
        n = G.order
        identity = tuple(range(n))
        entries = []
        for aut in automorphisms(G):
            h = aut.images
            if h == identity:
                continue
            hinv = [0] * n
            for a, v in enumerate(h):
                hinv[v] = a
            entries.append((h, itemgetter(*pullback_index(kind, hinv)), _pad(bytes(h))))
        cached = _PULLBACKS[(G.table, kind)] = tuple(entries)
    return cached


def _orbit_min(obj: AlgebraObject) -> tuple[tuple, tuple[int, ...]]:
    """The least structure_key over the automorphism orbit of obj, and an
    automorphism (as images) that carries obj to it; canonical_key,
    canonical_form and are_isomorphic take one object at a time through it.

    Automorphisms preserve every axiom, so only obj itself is verified, and
    only if it has not been already; its images are compared as keys and
    never rebuilt as objects."""
    if not obj.verified:
        verify(obj)
    key = obj.structure_bytes()
    best, best_h = key, tuple(range(obj.order))
    for h, pull, push in _pullbacks(obj.group, obj.kind):
        image = bytes(pull(key)).translate(push)
        if image < best:
            best, best_h = image, h
    return split_key(obj.kind, obj.order, best), best_h


def relabel_structure(obj: AlgebraObject, perm) -> AlgebraObject:
    """Push the structure forward along a carrier bijection h: components
    become h . f . h^-1.  When h is an automorphism the carrier group table
    is unchanged and the result lives on the same group.  Transport along h
    preserves every axiom, so the image of a verified object is verified;
    the image of any other object is checked."""
    h = tuple(perm)
    n = obj.group.order
    hinv = [0] * n
    for a, v in enumerate(h):
        hinv[v] = a
    t = obj.group.table
    new_add = [[h[t[hinv[x]][hinv[y]]] for y in range(n)] for x in range(n)]
    if tuple(tuple(r) for r in new_add) == obj.group.table:
        group = obj.group
    else:
        group = validate_group(new_add, name=obj.group.name)

    def push_op(op):
        if op is None:
            return None
        s = op.table
        return tuple(
            tuple(h[s[hinv[x]][hinv[y]]] for y in range(n)) for x in range(n)
        )

    sigma = None
    if obj.sigma is not None:
        sigma = tuple(h[obj.sigma[hinv[x]]] for x in range(n))
    image = make_algebra(
        group, obj.kind, sigma=sigma, circ=push_op(obj.circ), dot=push_op(obj.dot)
    )
    if not obj.verified:
        return verify(image)
    image.verified = True
    return image


def canonical_key(obj: AlgebraObject) -> tuple:
    """Lexicographically least serialization over the automorphism orbit."""
    return (obj.kind,) + _orbit_min(obj)[0]


def canonical_form(obj: AlgebraObject) -> AlgebraObject:
    """The verified object whose serialization is canonical_key(obj)."""
    return relabel_structure(obj, _orbit_min(obj)[1])


def are_isomorphic(a: AlgebraObject, b: AlgebraObject) -> bool:
    if a.group.table != b.group.table:
        raise GroupMismatch("isomorphism test requires the same carrier group")
    if a.kind != b.kind:
        raise InputError(f"cannot compare kinds {a.kind} and {b.kind}")
    return canonical_key(a) == canonical_key(b)


# ---------------------------------------------------------------------------
# raw-axiom oracles (carriers of size <= 3)
#
# Plain loops over every table and self-map, read against the axioms as
# written: neither the sigma + lambda reduction nor the law engine in ops.

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
