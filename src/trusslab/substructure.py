"""Ideals, congruences, quotients and the 0-symmetric/constant split.

Ideals are normal subgroups I with (i+a)ob - aob in I and lambda_a(i) in I.
Congruences are computed independently, by scanning partitions for
compatibility with all operations, so the ideal/congruence correspondence is
a cross-implementation test rather than a tautology.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .errors import (
    CarrierTooLarge,
    NotAnIdeal,
    PreconditionFailed,
    SigmaDoesNotFixZero,
    TrussLabError,
)
from .groups import (
    decomposition_from_idempotent,
    is_endomorphism_images,
    is_idempotent_map,
    normal_subgroups,
    validate_group,
)
from .ops import LawReport
from .structures import (
    DITRUSS,
    SKEW_TRUSS,
    AlgebraObject,
    lambda_family,
    make_skew_truss,
    require_verified,
    verify,
)

CONGRUENCE_ORDER_CAP = 12  # Bell-number growth; see CLI help

Partition = tuple[tuple[int, ...], ...]


def is_ideal(T: AlgebraObject, elems: Sequence[int]) -> LawReport:
    """Exhaustive ideal check: normality, translation condition
    (i+a)ob - aob in I, and lambda-stability lambda_a(i) in I."""
    require_verified(T, (SKEW_TRUSS,))
    G = T.group
    members = frozenset(elems)
    if 0 not in members or any(not 0 <= x < G.order for x in members):
        return LawReport("ideal-normal-subgroup", False, witness=(0,))
    add, inv, c = G.table, G.inverse, T.circ.table
    for h in sorted(members):
        if inv[h] not in members:
            return LawReport("ideal-normal-subgroup", False, witness=(h,))
        for k in sorted(members):
            if add[h][k] not in members:
                return LawReport("ideal-normal-subgroup", False, witness=(h, k))
        for g in G.elements:
            if G.conj(h, g) not in members:
                return LawReport("ideal-normal-subgroup", False, witness=(h, g))
    lam = lambda_family(T)
    for i in sorted(members):
        for a in G.elements:
            if lam[a](i) not in members:
                return LawReport("ideal-lambda-stability", False, witness=(a, i))
            ia = add[i][a]
            for b in G.elements:
                if add[c[ia][b]][inv[c[a][b]]] not in members:
                    return LawReport("ideal-translation", False, witness=(i, a, b))
    return LawReport("ideal", True)


def ideals(T: AlgebraObject) -> list[tuple[int, ...]]:
    """All ideals, by filtering the normal subgroups of the carrier."""
    require_verified(T, (SKEW_TRUSS,))
    return [H for H in normal_subgroups(T.group) if is_ideal(T, H).holds]


def _partitions(n: int) -> Iterator[tuple[int, ...]]:
    """All set partitions of 0..n-1 as restricted-growth block labelings."""
    labels = [0] * n

    def rec(i: int, used: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield tuple(labels)
            return
        for v in range(used + 1):
            labels[i] = v
            yield from rec(i + 1, max(used, v + 1))

    yield from rec(1, 1) if n > 0 else iter(())


def _compatible(T: AlgebraObject, labels: Sequence[int]) -> bool:
    G = T.group
    add, c, s = G.table, T.circ.table, T.sigma
    n = G.order
    for a in range(n):
        for b in range(a + 1, n):
            if labels[a] != labels[b]:
                continue
            if labels[s[a]] != labels[s[b]]:
                return False
            for x in range(n):
                if labels[add[a][x]] != labels[add[b][x]]:
                    return False
                if labels[add[x][a]] != labels[add[x][b]]:
                    return False
                if labels[c[a][x]] != labels[c[b][x]]:
                    return False
                if labels[c[x][a]] != labels[c[x][b]]:
                    return False
    return True


def _labels_to_partition(labels: Sequence[int]) -> Partition:
    blocks: dict[int, list[int]] = {}
    for a, v in enumerate(labels):
        blocks.setdefault(v, []).append(a)
    return tuple(sorted(tuple(b) for b in blocks.values()))


def congruences(T: AlgebraObject) -> list[Partition]:
    """All congruences, by direct partition search (independent of ideals),
    capped at CONGRUENCE_ORDER_CAP."""
    require_verified(T, (SKEW_TRUSS,))
    n = T.group.order
    if n > CONGRUENCE_ORDER_CAP:
        raise CarrierTooLarge(f"congruence search capped at order {CONGRUENCE_ORDER_CAP}, got {n}")
    found = [
        _labels_to_partition(labels)
        for labels in _partitions(n)
        if _compatible(T, labels)
    ]
    return sorted(found)


def congruence_from_ideal(T: AlgebraObject, I: Sequence[int]) -> Partition:
    """a == b iff a - b in I; blocks are the cosets of I."""
    G = T.group
    members = set(I)
    blocks = []
    seen: set[int] = set()
    for a in G.elements:
        if a in seen:
            continue
        coset = tuple(sorted(G.table[i][a] for i in members))
        seen.update(coset)
        blocks.append(coset)
    return tuple(sorted(blocks))


def ideal_from_congruence(T: AlgebraObject, partition: Partition) -> tuple[int, ...]:
    """The block of 0."""
    for block in partition:
        if 0 in block:
            return tuple(sorted(block))
    raise TrussLabError("partition does not cover 0")


def quotient(T: AlgebraObject, I: Sequence[int]) -> AlgebraObject:
    """Quotient skew truss on the cosets of an ideal.  Well-definedness of
    the induced operations is re-verified, never assumed: the coset
    labelling must pass _compatible, and the induced tables are then read
    at one representative per coset."""
    require_verified(T, (SKEW_TRUSS,))
    report = is_ideal(T, I)
    if not report.holds:
        raise NotAnIdeal(f"{report.law} fails at {report.witness}")
    G = T.group
    blocks = congruence_from_ideal(T, I)
    block_of = [0] * G.order
    for idx, block in enumerate(blocks):
        for a in block:
            block_of[a] = idx
    if not _compatible(T, block_of):
        raise NotAnIdeal("induced operations not well defined on the cosets")
    reps = [block[0] for block in blocks]

    def induced(table) -> list[list[int]]:
        return [[block_of[table[x][y]] for y in reps] for x in reps]

    Q = validate_group(induced(G.table), name=f"{G.name}/I{len(I)}")
    sigma = tuple(block_of[T.sigma[x]] for x in reps)
    return verify(make_skew_truss(Q, induced(T.circ.table), sigma))


# ---------------------------------------------------------------------------
# 0-symmetric / constant split

def zero_symmetric_constant_decomposition(
    obj: AlgebraObject,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """T0 = {a : 0oa = 0} and Tc = {a : 0oa = a}.

    Requires sigma(0) = 0 and lambda_0 an idempotent endomorphism; then T0
    = ker lambda_0 and Tc = im lambda_0, the factorization that
    groups.decomposition_from_idempotent computes and checks (T0 normal, Tc
    a subgroup, every element uniquely T0 + Tc).  Closure of both parts
    under sigma, circ and dot is checked here."""
    require_verified(obj, (SKEW_TRUSS, DITRUSS))
    G = obj.group
    if obj.sigma[0] != 0:
        raise SigmaDoesNotFixZero(f"sigma(0) = {obj.sigma[0]} != 0")
    c = obj.circ.table
    lam0 = tuple(c[0])
    if not (is_endomorphism_images(G, lam0) and is_idempotent_map(lam0)):
        raise PreconditionFailed("lambda_0 is not an idempotent endomorphism")
    split = decomposition_from_idempotent(G, lam0)
    t0, tc = split.kernel_part, split.image_part

    def fail(what: str):
        raise PreconditionFailed(f"decomposition assertion failed: {what}")

    for part, label in ((t0, "T0"), (tc, "Tc")):
        part_set = set(part)
        if any(obj.sigma[a] not in part_set for a in part):
            fail(f"{label} not closed under sigma")
        if any(c[a][b] not in part_set for a in part for b in part):
            fail(f"{label} not closed under circ")
        if obj.dot is not None and any(
            obj.dot.table[a][b] not in part_set for a in part for b in part
        ):
            fail(f"{label} not closed under dot")
    return t0, tc


def is_zero_symmetric(obj: AlgebraObject) -> bool:
    """T0 = T, with the equivalent characterization sigma(a)ob = sigma(a)
    for all a, b asserted alongside."""
    require_verified(obj, (SKEW_TRUSS,))
    if obj.sigma[0] != 0:
        raise SigmaDoesNotFixZero(f"sigma(0) = {obj.sigma[0]} != 0")
    c, s = obj.circ.table, obj.sigma
    symmetric = all(c[0][a] == 0 for a in obj.group.elements)
    absorbing = all(
        c[s[a]][b] == s[a] for a in obj.group.elements for b in obj.group.elements
    )
    if symmetric != absorbing:
        raise TrussLabError(
            "equivalence violated: 0-symmetry and sigma-absorption disagree"
        )
    return symmetric
