"""Canonical constructions moving objects between kinds, with round-trip
guarantees, plus the morphism predicates used to compare morphism sets.

Transforms refuse unverified inputs rather than re-deriving hypotheses, and
name the exact failed hypothesis flag when one does not hold.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .errors import (
    DotNotColumnConstant,
    HypothesisFailed,
    InputError,
    SigmaNotIdempotentEndo,
)
from .groups import (
    FiniteGroup,
    compose_commute,
    image_commuting,
    is_idempotent_map,
    preserves_binop,
)
from .ops import (
    is_associative,
    make_sigma_pi1,
    make_tau_pi2,
    op_add,
    op_left_difference,
    op_opposite,
    second_factor_map,
)
from .structures import (
    DITRUSS,
    INTERCHANGE,
    SKEW_TRUSS,
    WEAK_TRUSS,
    AlgebraObject,
    lambda_family,
    make_algebra,
    require_verified,
    sigma_from_circ,
    verify,
)


@dataclass(frozen=True)
class TransformRecord:
    source_kind: str
    target_kind: str
    forward_name: str
    parameters: dict

    def to_json(self) -> dict:
        return {
            "source_kind": self.source_kind,
            "target_kind": self.target_kind,
            "forward_name": self.forward_name,
            "parameters": {k: list(v) for k, v in self.parameters.items()},
        }


def _require_idempotent_endo(obj: AlgebraObject) -> None:
    flags = obj.sigma_flags()
    if not (flags.endomorphism and flags.idempotent):
        raise SigmaNotIdempotentEndo(
            "transform requires sigma to be an idempotent group endomorphism "
            f"(endomorphism={flags.endomorphism}, idempotent={flags.idempotent})"
        )


def truss_to_weak(obj: AlgebraObject) -> tuple[AlgebraObject, TransformRecord]:
    """a.b = -sigma(a) + (a o b); carrier and sigma unchanged."""
    require_verified(obj, (SKEW_TRUSS,))
    _require_idempotent_endo(obj)
    dot = op_left_difference(obj.circ, make_sigma_pi1(obj.group, obj.sigma))
    weak = verify(make_algebra(obj.group, WEAK_TRUSS, sigma=obj.sigma, dot=dot))
    record = TransformRecord(SKEW_TRUSS, WEAK_TRUSS, "truss_to_weak", {"sigma": obj.sigma})
    return weak, record


def weak_to_truss(obj: AlgebraObject) -> tuple[AlgebraObject, TransformRecord]:
    """a o b = sigma(a) + a.b; inverse of truss_to_weak."""
    require_verified(obj, (WEAK_TRUSS,))
    _require_idempotent_endo(obj)
    circ = op_add(make_sigma_pi1(obj.group, obj.sigma), obj.dot)
    truss = verify(make_algebra(obj.group, SKEW_TRUSS, sigma=obj.sigma, circ=circ))
    record = TransformRecord(WEAK_TRUSS, SKEW_TRUSS, "weak_to_truss", {"sigma": obj.sigma})
    return truss, record


def ditruss_involution(obj: AlgebraObject) -> tuple[AlgebraObject, TransformRecord]:
    """Swap the roles of sigma and the recovered column map tau:
    (sigma, circ, tau-pi2) becomes (tau, tau-pi1 + sigma-pi2, sigma-pi2).
    Applying the operation twice returns the original object."""
    require_verified(obj, (DITRUSS,))
    tau = second_factor_map(obj.dot)
    if tau is None:
        raise DotNotColumnConstant("involution needs dot to depend only on its second factor")
    G = obj.group
    circ = op_add(make_sigma_pi1(G, tau), make_tau_pi2(G, obj.sigma))
    dot = make_tau_pi2(G, obj.sigma)
    out = verify(make_algebra(G, DITRUSS, sigma=tau, circ=circ, dot=dot))
    record = TransformRecord(
        DITRUSS, DITRUSS, "ditruss_involution", {"sigma": tau, "tau": obj.sigma}
    )
    return out, record


def ditruss_to_interchange(obj: AlgebraObject) -> tuple[AlgebraObject, TransformRecord]:
    """Drop (sigma, dot), keeping circ, once the hypotheses hold: circ is
    associative, the lambda family is constant, and sigma and lambda_0 are
    image-commuting idempotent endomorphisms.  Then circ = sigma-pi1 +
    lambda_0-pi2 with image-commuting endomorphisms, which is the split of
    the interchange law, so the output is verified without a check."""
    require_verified(obj, (DITRUSS,))
    G = obj.group
    if not is_associative(obj.circ).holds:
        raise HypothesisFailed("circ-associative")
    lam = lambda_family(obj)
    if not lam.constant:
        raise HypothesisFailed("lambda-constant")
    flags = obj.sigma_flags()
    if not (flags.endomorphism and flags.idempotent):
        raise HypothesisFailed("sigma-idempotent-endomorphism")
    lam0 = lam[0]
    if not (lam0.is_endomorphism and is_idempotent_map(lam0)):
        raise HypothesisFailed("lambda0-idempotent-endomorphism")
    if not image_commuting(G, obj.sigma, lam0):
        raise HypothesisFailed("sigma-lambda0-image-commuting")
    nr = make_algebra(G, INTERCHANGE, circ=obj.circ)
    nr.verified = True
    record = TransformRecord(
        DITRUSS, INTERCHANGE, "ditruss_to_interchange",
        {"sigma": obj.sigma, "tau": lam0.images},
    )
    return nr, record


def interchange_to_ditruss(obj: AlgebraObject) -> tuple[AlgebraObject, TransformRecord]:
    """Recover sigma(a) = a o 0 and tau(a) = 0 o a, check that they are
    commuting idempotents, and return the ditruss (sigma, circ, tau-pi2).
    The interchange law the input passed already splits circ as sigma-pi1 +
    tau-pi2 with sigma and tau image-commuting endomorphisms."""
    require_verified(obj, (INTERCHANGE,))
    G = obj.group
    sigma = sigma_from_circ(G, obj.circ)
    tau = tuple(obj.circ.table[0])
    for label, m in (("sigma", sigma), ("tau", tau)):
        if not is_idempotent_map(m):
            raise HypothesisFailed(f"{label}-idempotent")
    if not compose_commute(sigma, tau):
        raise HypothesisFailed("sigma-tau-commute")
    ditruss = verify(
        make_algebra(G, DITRUSS, sigma=sigma, circ=obj.circ, dot=make_tau_pi2(G, tau))
    )
    record = TransformRecord(
        INTERCHANGE, DITRUSS, "interchange_to_ditruss", {"sigma": sigma, "tau": tau}
    )
    return ditruss, record


def interchange_opposite(obj: AlgebraObject) -> tuple[AlgebraObject, TransformRecord]:
    """Replace circ with its transpose; an involution that preserves both the
    interchange law and associativity, so the opposite of the verified input
    is verified without a check: (w+x) o' (y+z) = (y+z) o (w+x) =
    (y o w) + (z o x) = (w o' y) + (x o' z)."""
    require_verified(obj, (INTERCHANGE,))
    out = make_algebra(obj.group, INTERCHANGE, circ=op_opposite(obj.circ))
    out.verified = True
    G = obj.group
    record = TransformRecord(
        INTERCHANGE, INTERCHANGE, "interchange_opposite",
        {"sigma": sigma_from_circ(G, out.circ), "tau": tuple(out.circ.table[0])},
    )
    return out, record


_CONVERSIONS = {
    (SKEW_TRUSS, WEAK_TRUSS): truss_to_weak,
    (WEAK_TRUSS, SKEW_TRUSS): weak_to_truss,
    (DITRUSS, DITRUSS): ditruss_involution,
    (DITRUSS, INTERCHANGE): ditruss_to_interchange,
    (INTERCHANGE, DITRUSS): interchange_to_ditruss,
    (INTERCHANGE, INTERCHANGE): interchange_opposite,
}


def convert(obj: AlgebraObject, target_kind: str) -> tuple[AlgebraObject, TransformRecord]:
    key = (obj.kind, target_kind)
    if key not in _CONVERSIONS:
        supported = ", ".join(f"{a} -> {b}" for a, b in sorted(_CONVERSIONS))
        raise InputError(f"no conversion {obj.kind} -> {target_kind}; supported: {supported}")
    return _CONVERSIONS[key](obj)


# ---------------------------------------------------------------------------
# morphisms between structures, decided by enumeration on finite carriers

def carrier_bijections(n: int) -> Iterator[tuple[int, ...]]:
    return itertools.permutations(range(n))


def is_group_morphism(h, G: FiniteGroup, H: FiniteGroup) -> bool:
    return preserves_binop(h, G.table, H.table)


def is_skew_truss_morphism(h, A: AlgebraObject, B: AlgebraObject) -> bool:
    """Preserves + and circ.  Preservation of sigma follows, since sigma is
    definable as a o 0 in any skew truss; tests assert that derivation rather
    than assuming it."""
    return preserves_binop(h, A.group.table, B.group.table) and preserves_binop(
        h, A.circ.table, B.circ.table
    )


def is_weak_truss_morphism(h, A: AlgebraObject, B: AlgebraObject) -> bool:
    """Preserves +, dot and sigma (sigma is not definable from dot alone)."""
    if not preserves_binop(h, A.group.table, B.group.table):
        return False
    if not preserves_binop(h, A.dot.table, B.dot.table):
        return False
    return all(h[A.sigma[a]] == B.sigma[h[a]] for a in range(len(h)))
