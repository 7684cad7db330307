"""Exhaustive classification of structures on a finite group.

Two independent routes are kept deliberately separate:

* a parametrized backtracking search over (sigma, lambda-family) pairs,
  classified as it runs (below);
* raw-axiom brute force over full operation tables (the oracles module),
  feasible only for carriers of size <= 3, used to certify the
  parametrization (the parametrization is justified by the structure
  theory that the tests are supposed to certify, so the oracle must not
  share it).

The parametrized search keys on the reduction circ(a,b) = sigma(a) +
lam_a(b) with every lam_a an additive endomorphism, under which
associativity of circ is equivalent to

    (i)  sigma(a o b) = sigma(a) + lam_a(sigma(b))     for all a, b
    (ii) lam_{a o b}  = lam_a . lam_b                  for all a, b

and weak sigma-associativity of the dot table lam is equivalent to (ii)
alone (with a o b read as sigma(a) + lam_a(b)).

Every kind is classified isomorph-free (McKay, J. Algorithms 26, 1998).
An automorphism h moves a skew or weak truss's search coordinates
(sigma(q), lam_q) to (h sigma(q), h lam_q h^-1) at h(q), and the
endomorphism pair (e, f) of an interchange near-ring or constant-lambda
ditruss to (h e h^-1, h f h^-1).  Read's orderly test against every
automorphism, from position 0, prunes the search to one leaf per class,
whose least key image is its representative; the least pair of each
orbit, listed in key order, is its class representative as it stands.
Every representative passes verify_key, and a class has |Aut G| / |Stab|
members.  A listing, built and verified when first asked for, is the
keys of the admissible pairs or the kept leaves' orbits.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Iterable, Iterator

from .errors import CarrierTooLarge, GroupMismatch, InputError, TrussLabError
from .groups import (
    FiniteGroup,
    automorphisms,
    compose_commute,
    compose_maps,
    enumerate_endomorphisms,
    image_commuting_masks,
    is_element,
    is_idempotent_map,
    validate_group,
)
from .ops import _pad, is_associative, sum_of_projections
from .oracles import (  # the oracles lived here, and callers still import them from here
    ORACLE_ORDER_CAP,
    raw_constant_lambda_ditruss_search,
    raw_interchange_search,
    raw_skew_truss_search,
    raw_weak_truss_search,
)
from .structures import (
    DITRUSS,
    INTERCHANGE,
    SKEW_TRUSS,
    WEAK_TRUSS,
    AlgebraObject,
    algebra_from_key,
    pullback_index,
    split_key,
    structure_texts,
    verify,
    verify_key,
)

ORDER_CAP_DEFAULT = 5
CANDIDATE_BUDGET = 50_000_000


@dataclass
class ClassificationResult:
    """Every structure of a kind on a group up to isomorphism: the verified
    structure_bytes() key of one structure per class, the least of its
    class, in key order, and the number of structures.  listing() yields
    every key once, in any order; the sorted keys, and the objects of any
    keys, are built when first asked for.  Neither listing nor counters,
    which describe the search for the stderr summary, is payload."""

    group: FiniteGroup
    kind: str
    representative_keys: list[bytes]
    total_count: int
    search_stats: dict
    listing: Callable[[], Iterable[bytes]] = field(compare=False, repr=False)
    counters: dict = field(default_factory=dict)

    @property
    def iso_class_count(self) -> int:
        return len(self.representative_keys)

    @functools.cached_property
    def representatives(self) -> list[AlgebraObject]:
        """The representatives as verified objects, in key order."""
        return [algebra_from_key(self.group, self.kind, key) for key in self.representative_keys]

    @functools.cached_property
    def keys(self) -> list[bytes]:
        """The structure_bytes() key of every structure, in sorted order,
        every key but the representatives' own checked by verify_key."""
        keys = sorted(self.listing())
        if len(keys) != self.total_count:
            raise TrussLabError(
                f"{self.kind} listing on {self.group.name} holds {len(keys)} "
                f"structures, not {self.total_count}"
            )
        reps = set(self.representative_keys)
        for key in keys:
            if key not in reps:
                verify_key(self.group, self.kind, key)
        return keys

    @functools.cached_property
    def structures(self) -> list[AlgebraObject]:
        """Every structure as a verified object, in key order; the
        representatives appear as themselves."""
        reps = dict(zip(self.representative_keys, self.representatives))
        return [
            reps[key] if key in reps else algebra_from_key(self.group, self.kind, key)
            for key in self.keys
        ]

    def json_chunks(self, up_to_iso: bool = False) -> Iterator[str]:
        """The text of json.dumps(payload, indent=2, sort_keys=True) for
        the enumerate payload, in pieces, written from the keys alone: the
        counts, search_stats, the representatives and, without up_to_iso,
        every structure.  Everything that can raise (the listing's keys)
        runs before the first piece is returned."""
        fields = {
            "group": self.group.name,
            "kind": self.kind,
            "total_count": self.total_count,
            "iso_class_count": self.iso_class_count,
            "representatives": self.representative_keys,
            "search_stats": self.search_stats,
        }
        if not up_to_iso:
            fields["structures"] = self.keys
        return self._chunks(fields)

    def _chunks(self, fields: dict) -> Iterator[str]:
        for i, (name, value) in enumerate(sorted(fields.items())):
            yield f'{"," if i else "{"}\n  {json.dumps(name)}: '
            if name in ("representatives", "structures") and value:
                texts = structure_texts(self.group, self.kind, value, "\n    ")
                for j, text in enumerate(texts):
                    yield f'{"," if j else "["}\n    {text}'
                yield "\n  ]"
            else:
                # json.dumps escapes the newlines inside strings, so every
                # newline it writes starts a line and takes the indentation
                yield json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")
        yield "\n}"


# ---------------------------------------------------------------------------
# parametrized search

def _joint_search(G: FiniteGroup, endomorphisms, sigma_domains, condition_i: bool,
                  actions=(), counters=None):
    """All (sigma, lambda) pairs with sigma(a) in sigma_domains[a] and every
    lam_a in ``endomorphisms`` (the sorted list enumerate_endomorphisms(G)
    returns) that satisfy (ii), and (i) when condition_i, and pass the
    orderly test against ``actions``, the (h, h^-1, conj_h) of some
    automorphisms, conj_h taking lam's digit to h lam h^-1's.  Yields
    (sigma, digit-tuple, dot-rows, circ-rows), where digit a indexes lam_a.
    counters, when given, counts the nodes the search accepts, root and
    leaves included, and those pruned.

    The search assigns the pair (sigma(k), lam_k) for k = 0, 1, ..., each
    in increasing order.  The instance (x, y) of (i) and (ii) is decided
    when max(x, y) is assigned: its target c = sigma(x) + lam_x(y) is known
    by then, and sigma(c) = sigma(x) + lam_x(sigma(y)) and
    lam_c = lam_x lam_y are checked if c is assigned and forced on c
    otherwise.  For a fixed sigma, lambdas come in lexicographic order.
    The orderly test (Read, 1978): h moves (sigma(q), d_q) at q to
    (h sigma(q), conj_h(d_q)) at h(q).  Each h whose image ties the node
    so far is compared at p = 0, 1, ... while p and h^-1(p) are assigned,
    sigma first: a smaller image prunes the node, a larger one drops h.
    (i) and (ii) commute with Aut(G), so against all of it but the identity
    the test keeps one leaf per class; at position 0 it prunes each first
    pair not least in its orbit and leaves the pair's stabilizer tied."""
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
    counters = {} if counters is None else counters
    counters["nodes"] = counters["pruned"] = 0

    def orderly(live, k):  # the (action, next p) of live still tied, or None
        ties = []
        for action, p in live:
            h, hinv, conj = action
            diff = 0
            while not diff and p <= k and (q := hinv[p]) <= k:
                diff = h[sigma[q]] - sigma[p] or conj[digits[q]] - digits[p]
                p += 1
            if diff < 0:
                return None
            if not diff:
                ties.append((action, p))
        return ties

    def extend(k, live):
        counters["nodes"] += 1
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
                    ties = orderly(live, k) if live else live
                    if ties is None:
                        counters["pruned"] += 1
                    else:
                        yield from extend(k + 1, ties)
                for c in placed:
                    forced_sigma[c] = forced_digit[c] = None

    return extend(0, [(action, 0) for action in actions])


def _within_budget(kind: str, G: FiniteGroup, endos) -> int:
    """The number |End|^2 of endomorphism pairs, which every kind tabulates
    or scans; more than CANDIDATE_BUDGET are refused."""
    pairs = len(endos) ** 2
    if pairs > CANDIDATE_BUDGET:
        raise CarrierTooLarge(
            f"{kind} search on {G.name} needs {pairs} endomorphism pairs, "
            f"over the budget {CANDIDATE_BUDGET}"
        )
    return pairs


def enumerate_skew_trusses(G: FiniteGroup, cap: int = ORDER_CAP_DEFAULT) -> ClassificationResult:
    """All skew trusses on G: pairs (circ, sigma) with circ associative and
    left skew sigma-distributive, classified isomorph-free (see the module
    docstring).

    The sigma axis ranges over ALL self-maps.  Idempotency of sigma is not a
    consequence of the axioms (shifted group operations a o b = a + u + b
    with sigma(a) = a + u are associative and skew distributive with a
    non-idempotent sigma whenever u != 0); it only follows when sigma fixes
    0, so pruning by it would lose structures.  Every representative, and
    every structure of a listing, passes verify_key."""
    return _classify_search(G, SKEW_TRUSS, cap)


def enumerate_weak_trusses(G: FiniteGroup, cap: int = ORDER_CAP_DEFAULT) -> ClassificationResult:
    """All weak trusses on G: pairs (dot, sigma) with dot left distributive
    and left weakly sigma-associative, classified isomorph-free (see the
    module docstring).  sigma carries no idempotency constraint here.
    Every representative, and every structure of a listing, passes
    verify_key."""
    return _classify_search(G, WEAK_TRUSS, cap)


def _least_pairs(pairs, images) -> tuple[dict, int]:
    """The least pair of each orbit of ``pairs``, mapped to the order of
    its stabilizer, and the number of pairs read.  images(pair) yields the
    image of the pair under each automorphism but the identity; ``pairs``
    is closed under them and listed in key order, so the first pair met of
    an orbit is its least.  The images of that pair are marked as seen, so
    this costs orbits x |Aut G|."""
    seen, orbits, read = set(), {}, 0
    for read, pair in enumerate(pairs, 1):
        if pair not in seen:
            moved = list(images(pair))
            seen.update(moved)
            orbits[pair] = 1 + moved.count(pair)
    return orbits, read


def _conjugation(endos, auts):
    """The function taking the index of f in endos, a list of endomorphisms
    closed under conjugation, to the indices of h f h^-1 for every
    automorphism h of auts, a list of non-identity automorphism images, in
    its order; each f is conjugated on first use only.  h f h^-1 is f
    gathered at h^-1 and translated through h; a non-identity automorphism
    needs n >= 3, so every itemgetter here returns a tuple."""
    images = [bytes(e.images) for e in endos]
    index = {f: i for i, f in enumerate(images)}
    actions = [(itemgetter(*_inverse(h)), _pad(bytes(h))) for h in auts]

    @functools.cache
    def conjugates(e: int) -> list[int]:
        f = images[e]
        return [index[bytes(pull(f)).translate(push)] for pull, push in actions]

    return conjugates


def _representative(G: FiniteGroup, kind: str, key: bytes, pullbacks) -> tuple[bytes, int]:
    """The least image of key over Aut(G), which passes verify_key as the
    representative of key's class, and the size |Aut G| / |Stab| of that
    class, Stab being the automorphisms that fix key."""
    least, fixed = key, 1
    for image in _images(key, pullbacks):
        if image < least:
            least = image
        elif image == key:
            fixed += 1
    return verify_key(G, kind, least), (len(pullbacks) + 1) // fixed


def _classify_search(G: FiniteGroup, kind: str, cap: int) -> ClassificationResult:
    """The joint search pruned by the orderly test against every
    automorphism, so every leaf it reaches is the one kept for its class.
    sigma(0) = 0 is invariant under Aut(G), so it is counted per class as
    well.  Orders above max(cap, ORDER_CAP_DEFAULT) are refused before any
    endomorphism is searched, and more than CANDIDATE_BUDGET endomorphism
    pairs before the search tabulates their composites."""
    n = G.order
    skew = kind == SKEW_TRUSS
    limit = max(cap, ORDER_CAP_DEFAULT)
    if n > limit:
        raise CarrierTooLarge(
            f"{kind} search on {G.name} has order {n}, over the order cap {limit}; "
            f"--cap {n} raises it"
        )
    endos = enumerate_endomorphisms(G)
    _within_budget(kind, G, endos)
    pullbacks = _pullbacks(G, kind)
    auts = [h.images for h in automorphisms(G)[1:]]
    conj = zip(*map(_conjugation(endos, auts), range(len(endos))))
    actions = [(h, _inverse(h), table) for h, table in zip(auts, conj)]
    reps, total, fixing_zero, search = [], 0, 0, {}
    for sigma, _digits, dot, circ in _joint_search(
        G, endos, [range(n)] * n, skew, actions, search
    ):
        key = bytes(sigma) + b"".join(map(bytes, circ if skew else dot))
        rep, size = _representative(G, kind, key, pullbacks)
        reps.append(rep)
        total += size
        if sigma[0] == 0:
            fixing_zero += size
    reps.sort()

    def listing():  # the union of the representatives' orbits
        return {image for key in reps for image in (key, *_images(key, pullbacks))}

    stats = {"candidates": n ** n * len(endos) ** n}
    if skew:
        stats["sigma_fixes_zero_count"] = fixing_zero
    counters = {
        "leaves_kept": len(reps),
        "nodes": search["nodes"],
        "pruned": search["pruned"],
        "automorphisms": len(pullbacks) + 1,
    }
    return ClassificationResult(G, kind, reps, total, stats, listing, counters)


def _classify_pairs(G: FiniteGroup, kind: str, endos, pairs, key_of) -> ClassificationResult:
    """The structures key_of(endos[e], endos[f]) of the index pairs (e, f)
    that pairs() yields in the order of their keys, a set closed under
    conjugation by Aut(G), classified from the least pair of each orbit.
    key_of is injective and commutes with Aut(G) (a o 0 and 0 o b recover
    the pair), so a key has its pair's stabilizer, and the least pair's key
    is the least key of its class: it is the representative as it stands,
    and no image of it is built; the listing takes the keys of pairs()
    again.  More than CANDIDATE_BUDGET pairs of endos are refused first."""
    candidates = _within_budget(kind, G, endos)
    # sorted by images, so the identity comes first
    others = [h.images for h in automorphisms(G)[1:]]
    conjugates = _conjugation(endos, others)
    orbits, read = _least_pairs(pairs(), lambda pair: zip(*map(conjugates, pair)))
    order = len(others) + 1
    reps, total = [], 0
    for (e, f), fixed in orbits.items():
        reps.append(verify_key(G, kind, key_of(endos[e], endos[f])))
        total += order // fixed
    counters = {"admissible_pairs": read, "pairs": candidates, "automorphisms": order}

    def listing():
        return (key_of(endos[e], endos[f]) for e, f in pairs())

    return ClassificationResult(G, kind, reps, total, {"candidates": candidates}, listing, counters)


def enumerate_interchange(
    G: FiniteGroup, associative_only: bool = False
) -> ClassificationResult:
    """All interchange near-rings on G, as image-commuting endomorphism
    pairs (eps, eta) with circ = eps-pi1 + eta-pi2; the associative ones are
    the commuting idempotent pairs.  On carriers of size <= 3 the count is
    cross-checked against the raw table scan."""
    endos = enumerate_endomorphisms(G)
    images, centralizers = image_commuting_masks(G, endos)
    # row 0 of a table is eta and row a is fixed by eps(a), its first
    # entry, so listing eta first lists the tables in key order
    def pairs():
        return (
            (e, f)
            for f, (eta, image) in enumerate(zip(endos, images))
            for e, (eps, centralizer) in enumerate(zip(endos, centralizers))
            if not image & ~centralizer
            and (not associative_only or is_idempotent_map(eps) and is_idempotent_map(eta)
                 and compose_commute(eps, eta))
        )

    result = _classify_pairs(
        G, INTERCHANGE, endos, pairs,
        lambda eps, eta: sum_of_projections(G, eps.images, eta.images),
    )
    if associative_only:
        # automorphisms preserve associativity, so the representatives suffice
        for rep in result.representatives:
            if not is_associative(rep.circ).holds:
                raise TrussLabError("idempotent commuting pair lost associativity")
    if G.order <= ORACLE_ORDER_CAP:
        oracle = raw_interchange_search(G, associative_only=associative_only)
        result.search_stats["oracle_count"] = oracle.count
        if oracle.count != result.total_count:
            raise TrussLabError(
                f"interchange oracle disagrees on {G.name}: "
                f"{oracle.count} != {result.total_count}"
            )
    return result


def enumerate_constant_lambda_ditrusses(
    G: FiniteGroup, image_commuting_only: bool = False
) -> ClassificationResult:
    """Ditrusses (sigma, sigma-pi1 + tau-pi2, tau-pi2) over commuting
    idempotent endomorphism pairs (sigma, tau); the image-commuting filter
    cuts the family down to the one matching associative interchange
    near-rings."""
    endos = [e for e in enumerate_endomorphisms(G) if is_idempotent_map(e)]
    images, centralizers = image_commuting_masks(G, endos)
    # a key starts with sigma and then circ row 0, which is tau, so listing
    # sigma first lists the keys in order
    def pairs():
        return (
            (s, t)
            for s, (sig, centralizer) in enumerate(zip(endos, centralizers))
            for t, (tau, image) in enumerate(zip(endos, images))
            if compose_commute(sig, tau) and not (image_commuting_only and image & ~centralizer)
        )

    return _classify_pairs(
        G, DITRUSS, endos, pairs,
        lambda sig, tau: bytes(sig.images)
        + sum_of_projections(G, sig.images, tau.images)
        + bytes(tau.images) * G.order,
    )


# ---------------------------------------------------------------------------
# isomorphism and canonical forms

_PULLBACKS: dict[tuple, tuple] = {}


def _pullbacks(G: FiniteGroup, kind: str) -> tuple:
    """(gather, translation) for every automorphism h of G but the
    identity, acting on the structure_bytes() keys of kind: the image of a
    key under h is bytes(gather(key)).translate(translation).  The image
    of a map f is h . f . h^-1: the key is pulled back along h, and every
    entry then goes through h.  A non-identity automorphism needs n >= 3,
    so every itemgetter here takes several indices and returns a tuple."""
    cached = _PULLBACKS.get((G.table, kind))
    if cached is None:
        cached = _PULLBACKS[(G.table, kind)] = tuple(
            (itemgetter(*pullback_index(kind, _inverse(h.images))), _pad(bytes(h.images)))
            for h in automorphisms(G)[1:]
        )
    return cached


def _images(key: bytes, pullbacks) -> Iterator[bytes]:
    """The image of key under each automorphism of pullbacks, a sequence
    of _pullbacks entries, in their order."""
    for pull, push in pullbacks:
        yield bytes(pull(key)).translate(push)


def _inverse(h) -> list[int]:
    """The inverse of a carrier bijection given as its images."""
    hinv = [0] * len(h)
    for a, v in enumerate(h):
        hinv[v] = a
    return hinv


def _orbit_min(obj: AlgebraObject) -> bytes:
    """The least structure_bytes() key over the automorphism orbit of obj;
    canonical_key, canonical_form and are_isomorphic take one object at a
    time through it.

    Automorphisms preserve every axiom, so only obj itself is verified, and
    only if it has not been already; its images are compared as keys and
    never built as objects."""
    if not obj.verified:
        verify(obj)
    key = obj.structure_bytes()
    return min([key, *_images(key, _pullbacks(obj.group, obj.kind))])


def relabel_structure(obj: AlgebraObject, perm) -> AlgebraObject:
    """Push the structure forward along a carrier bijection h: components,
    and the group table, become h . f . h^-1.  The flat group table and the
    structure_bytes() key are gathered as one string at pullback_index
    along h^-1 and translated through h.  When h is an automorphism the
    table is unchanged and the image lives on the same group; otherwise on
    the pushed table, validated as a group.  Transport along h preserves
    every axiom, so the image of a verified object is verified; the image
    of any other object is checked.  A perm that is not a permutation of
    0..n-1 is refused."""
    G, n = obj.group, obj.order
    if not (len(perm) == n and all(is_element(x, n) for x in perm) and len(set(perm)) == n):
        raise InputError(f"perm {perm!r} is not a permutation of 0..{n - 1}")
    h = bytes(perm)
    hinv = _inverse(h)
    # the group table is laid out as the key of an interchange near-ring
    index = pullback_index(INTERCHANGE, hinv) + [n * n + i for i in pullback_index(obj.kind, hinv)]
    table = b"".join(map(bytes, G.table))
    moved = bytes(itemgetter(*index)(table + obj.structure_bytes())).translate(_pad(h))
    if moved[:n * n] != table:
        rows = [tuple(moved[i:i + n]) for i in range(0, n * n, n)]
        G = validate_group(rows, name=G.name)
    image = algebra_from_key(G, obj.kind, moved[n * n:])
    return image if obj.verified else verify(image)


def canonical_key(obj: AlgebraObject) -> tuple:
    """Lexicographically least serialization over the automorphism orbit."""
    return (obj.kind,) + split_key(obj.kind, obj.order, _orbit_min(obj))


def canonical_form(obj: AlgebraObject) -> AlgebraObject:
    """The verified object whose serialization is canonical_key(obj)."""
    return algebra_from_key(obj.group, obj.kind, _orbit_min(obj))


def are_isomorphic(a: AlgebraObject, b: AlgebraObject) -> bool:
    if a.group.table != b.group.table:
        raise GroupMismatch("isomorphism test requires the same carrier group")
    if a.kind != b.kind:
        raise InputError(f"cannot compare kinds {a.kind} and {b.kind}")
    return canonical_key(a) == canonical_key(b)
