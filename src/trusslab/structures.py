"""Bundled algebra objects and their verification.

One object type covers all four kinds (the transforms module moves objects
between kinds and shares the carrier and reports):

  skew-truss      (G, +, circ, sigma)   circ associative, left skew
                                        sigma-distributive
  ditruss         (G, +, sigma, circ, dot)   sigma(a) + a.b = a o b
  weak-truss      (G, +, dot, sigma)    dot left weakly sigma-associative
                                        and left distributive
  interchange-nr  (G, +, circ)          circ satisfies the interchange law

check() runs exactly the defining axioms of the kind; everything else
(consequence reports, transforms, decompositions) demands a verified object
first and never re-derives the axioms silently.
"""

from __future__ import annotations

import functools
import json
import struct
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from . import catalog
from .errors import (
    CarrierMismatch,
    DotNotDistributive,
    InputError,
    MissingComponent,
    NotVerified,
    PreconditionFailed,
    VerificationFailed,
)
from .groups import (
    EndoMap,
    FiniteGroup,
    MapLike,
    compose_commute,
    compose_maps,
    group_from_json,
    images_of,
    is_endomorphism_images,
    is_idempotent_map,
)
from .ops import (
    ZEROS,
    BinOpTable,
    LawReport,
    _interchange,
    _left_skew,
    _left_weak,
    addition_maps,
    binop,
    check_map,
    holds,
    is_associative,
    is_left_distributive,
    is_left_weak_sigma_associative,
    law_violation,
    rows_of,
)

SKEW_TRUSS = "skew-truss"
DITRUSS = "ditruss"
WEAK_TRUSS = "weak-truss"
INTERCHANGE = "interchange-nr"

KINDS = (SKEW_TRUSS, DITRUSS, WEAK_TRUSS, INTERCHANGE)

# which components each kind carries: (sigma, circ, dot)
_COMPONENTS = {
    SKEW_TRUSS: (True, True, False),
    DITRUSS: (True, True, True),
    WEAK_TRUSS: (True, False, True),
    INTERCHANGE: (False, True, False),
}

_KIND_ALIASES = {"interchange": INTERCHANGE, "interchange-near-ring": INTERCHANGE}


def normalize_kind(kind: str) -> str:
    k = kind.strip().lower()
    k = _KIND_ALIASES.get(k, k)
    if k not in KINDS:
        raise InputError(f"unknown kind {kind!r}; expected one of {', '.join(KINDS)}")
    return k


@dataclass(frozen=True)
class SigmaFlags:
    """Validated facts about the unary map; downstream operations state which
    flags they require instead of assuming them."""

    endomorphism: bool
    idempotent: bool
    fixes_zero: bool


@dataclass
class AlgebraObject:
    group: FiniteGroup
    kind: str
    sigma: tuple[int, ...] | None = None
    circ: BinOpTable | None = None
    dot: BinOpTable | None = None
    verified: bool = field(default=False, compare=False)

    @property
    def order(self) -> int:
        return self.group.order

    def sigma_flags(self) -> SigmaFlags:
        if self.sigma is None:
            raise MissingComponent(f"{self.kind} object carries no unary map")
        return SigmaFlags(
            endomorphism=is_endomorphism_images(self.group, self.sigma),
            idempotent=is_idempotent_map(self.sigma),
            fixes_zero=self.sigma[0] == 0,
        )

    def structure_key(self) -> tuple:
        """Serialization used for structural identity and canonical forms:
        sigma images, then circ row-major, then dot row-major."""
        return split_key(self.kind, self.order, self.structure_bytes())

    def structure_bytes(self) -> bytes:
        """structure_key() as one string, one byte per entry.  All keys of
        one kind on one group have the same layout, so they sort as their
        structure_key() tuples do."""
        parts = [] if self.sigma is None else [bytes(self.sigma)]
        for op in (self.circ, self.dot):
            if op is not None:
                parts += map(bytes, op.table)
        return b"".join(parts)


def _key_components(kind: str, n: int, key: bytes) -> list:
    """[sigma, circ, dot] sliced from a structure_bytes() key, None where
    the kind has no such component."""
    out, start = [], 0
    for present, size in zip(_COMPONENTS[kind], (n, n * n, n * n)):
        out.append(key[start:start + size] if present else None)
        start += size if present else 0
    return out


def split_key(kind: str, n: int, key: bytes) -> tuple:
    """The structure_key() tuple of a structure_bytes() key."""
    return tuple(tuple(part) for part in _key_components(kind, n, key) if part is not None)


def pullback_index(kind: str, hinv: Sequence[int]) -> list[int]:
    """The positions at which a structure_bytes() key of kind is read to
    pull it back along a carrier bijection with inverse hinv: sigma at
    hinv[x], each row-major table at hinv[x] * n + hinv[y]."""
    n = len(hinv)
    table = [hinv[x] * n + hinv[y] for x in range(n) for y in range(n)]
    has_sigma, *tables = _COMPONENTS[kind]
    index = list(hinv) if has_sigma else []
    for _ in range(sum(tables)):
        start = len(index)
        index += [start + i for i in table]
    return index


def algebra_from_key(group: FiniteGroup, kind: str, key: bytes) -> AlgebraObject:
    """The object of a key that verify_key passed, marked verified."""
    n = group.order
    sigma, circ, dot = _key_components(kind, n, key)

    def table(flat):
        if flat is None:
            return None
        return BinOpTable(group, tuple(tuple(flat[i:i + n]) for i in range(0, n * n, n)))

    return AlgebraObject(
        group, kind, None if sigma is None else tuple(sigma), table(circ), table(dot), True
    )


@dataclass(frozen=True)
class CheckResult:
    kind: str
    reports: tuple[LawReport, ...]

    @property
    def ok(self) -> bool:
        return all(r.holds for r in self.reports)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "verified": self.ok,
            "axioms": [r.to_json() for r in self.reports],
        }


def make_algebra(
    group: FiniteGroup,
    kind: str,
    sigma: MapLike | None = None,
    circ: BinOpTable | Sequence[Sequence[int]] | None = None,
    dot: BinOpTable | Sequence[Sequence[int]] | None = None,
) -> AlgebraObject:
    """Assemble an (unverified) algebra object, enforcing the component set
    of the kind and a single shared carrier."""
    kind = normalize_kind(kind)
    need_sigma, need_circ, need_dot = _COMPONENTS[kind]

    def as_op(x, label):
        if x is None:
            return None
        if not isinstance(x, BinOpTable):
            try:
                x = binop(group, x)
            except InputError as exc:
                raise InputError(f"{label}: {exc}") from exc
        if x.carrier.table != group.table:
            raise CarrierMismatch(f"{label} table lives on a different carrier than the group")
        return x

    sig = None if sigma is None else check_map(group, sigma, "sigma")
    circ_t = as_op(circ, "circ")
    dot_t = as_op(dot, "dot")

    for present, needed, label in (
        (sig, need_sigma, "sigma"),
        (circ_t, need_circ, "circ"),
        (dot_t, need_dot, "dot"),
    ):
        if needed and present is None:
            raise MissingComponent(f"kind {kind} requires component {label}")
        if not needed and present is not None:
            raise InputError(f"kind {kind} does not take component {label}")
    return AlgebraObject(group=group, kind=kind, sigma=sig, circ=circ_t, dot=dot_t)


def make_skew_truss(group, circ, sigma) -> AlgebraObject:
    return make_algebra(group, SKEW_TRUSS, sigma=sigma, circ=circ)


def make_ditruss(group, sigma, circ, dot) -> AlgebraObject:
    return make_algebra(group, DITRUSS, sigma=sigma, circ=circ, dot=dot)


def make_weak_truss(group, dot, sigma) -> AlgebraObject:
    return make_algebra(group, WEAK_TRUSS, sigma=sigma, dot=dot)


def make_interchange(group, circ) -> AlgebraObject:
    return make_algebra(group, INTERCHANGE, circ=circ)


def _ditruss_compatibility(G: FiniteGroup, sigma, circ, dot) -> LawReport:
    """sigma(a) + a.b = a o b for all a, b: per a, row a of dot mapped
    through the addition row sigma(a), against row a of circ."""
    plus = addition_maps(G).left
    for a, (sa, da, ca) in enumerate(zip(sigma, dot, circ)):
        lhs = da.translate(plus[sa])
        if lhs != ca:
            return law_violation("sigma-plus-dot-equals-circ", (a,), lhs, ca, G.order)
    return holds("sigma-plus-dot-equals-circ")


def _law_reports(G: FiniteGroup, kind: str, sigma, circ, dot) -> tuple[LawReport, ...]:
    """The defining axioms of kind, on a validated sigma and the rows of
    circ and dot as bytes."""
    if kind == SKEW_TRUSS:
        return (
            _left_weak(G, circ, ZEROS, "associativity"),
            _left_skew(G, circ, sigma, "left-skew-sigma-distributivity"),
        )
    if kind == DITRUSS:
        return (_ditruss_compatibility(G, sigma, circ, dot),)
    if kind == WEAK_TRUSS:
        return (
            _left_weak(G, dot, sigma, "left-weak-sigma-associativity"),
            _left_skew(G, dot, ZEROS, "left-distributivity"),
        )
    if kind == INTERCHANGE:
        return (_interchange(G, circ),)
    raise InputError(f"unknown kind {kind}")  # pragma: no cover - construction forbids it


def _raise_on_failure(kind: str, reports: tuple[LawReport, ...]) -> None:
    for bad in reports:
        if not bad.holds:
            raise VerificationFailed(
                f"{kind} axiom {bad.law} fails at {bad.witness}: {bad.lhs} != {bad.rhs}",
                report=bad,
            )


def check(obj: AlgebraObject) -> CheckResult:
    """Run exactly the defining axioms for obj.kind; marks the object
    verified iff every axiom passes.  make_algebra has validated sigma."""
    circ = None if obj.circ is None else rows_of(obj.circ)
    dot = None if obj.dot is None else rows_of(obj.dot)
    result = CheckResult(obj.kind, _law_reports(obj.group, obj.kind, obj.sigma, circ, dot))
    obj.verified = result.ok
    return result


def verify(obj: AlgebraObject) -> AlgebraObject:
    """check() that raises on the first failing axiom."""
    _raise_on_failure(obj.kind, check(obj).reports)
    return obj


@functools.cache
def _key_rows(n: int, count: int) -> struct.Struct:
    """The layout of count table rows of n bytes each, which unpack from a
    key as a tuple of bytes."""
    return struct.Struct(f"{n}s" * count)


def verify_key(group: FiniteGroup, kind: str, key: bytes) -> bytes:
    """Run the axioms check() runs for kind on a structure_bytes() key and
    return the key; raises VerificationFailed as verify does otherwise.
    For keys the library built itself: sigma is checked on the bytes (a
    failing one raises what make_algebra raises), the table rows are read
    as they are, and no object is built."""
    n = group.order
    has_sigma, has_circ, has_dot = _COMPONENTS[kind]
    sigma = key[:n] if has_sigma else None
    if has_sigma and (len(sigma) < n or max(sigma) >= n):
        check_map(group, tuple(sigma), "sigma")
    rows = _key_rows(n, (has_circ + has_dot) * n).unpack_from(key, n if has_sigma else 0)
    circ = rows[:n] if has_circ else None
    dot = rows[-n:] if has_dot else None
    _raise_on_failure(kind, _law_reports(group, kind, sigma, circ, dot))
    return key


def require_verified(obj: AlgebraObject, kinds: tuple[str, ...] | None = None) -> None:
    if kinds is not None and obj.kind not in kinds:
        raise InputError(f"expected kind in {kinds}, got {obj.kind}")
    if not obj.verified:
        raise NotVerified(f"object of kind {obj.kind} has not passed check()")


# ---------------------------------------------------------------------------
# lambda maps

@dataclass(frozen=True)
class LambdaFamily:
    """The left-translation family: maps[a](b) = -sigma(a) + (a o b), which
    for ditrusses and weak trusses is just a.b."""

    maps: tuple[EndoMap, ...]
    all_endomorphisms: bool
    constant: bool

    def __getitem__(self, a: int) -> EndoMap:
        return self.maps[a]


def lambda_family(obj: AlgebraObject) -> LambdaFamily:
    G = obj.group
    if obj.sigma is None:
        raise MissingComponent("lambda family needs the unary map")
    if obj.dot is not None:
        rows = obj.dot.table
    elif obj.circ is not None:
        add, inv, s, c = G.table, G.inverse, obj.sigma, obj.circ.table
        rows = tuple(
            tuple(add[inv[s[a]]][c[a][b]] for b in G.elements) for a in G.elements
        )
    else:
        raise MissingComponent("lambda family needs a binary operation")
    maps = tuple(
        EndoMap(images=tuple(row), is_endomorphism=is_endomorphism_images(G, row))
        for row in rows
    )
    return LambdaFamily(
        maps=maps,
        all_endomorphisms=all(m.is_endomorphism for m in maps),
        constant=all(m.images == maps[0].images for m in maps),
    )


def sigma_from_circ(G: FiniteGroup, circ: BinOpTable) -> tuple[int, ...]:
    """The map a -> a o 0, the canonical unary-map candidate of any circ."""
    return tuple(circ.table[a][0] for a in G.elements)


# ---------------------------------------------------------------------------
# consequence reports

@dataclass(frozen=True)
class Claim:
    name: str
    holds: bool | None  # None = hypotheses not met, claim skipped
    witness: tuple | None = None

    @property
    def applicable(self) -> bool:
        return self.holds is not None

    def to_json(self) -> dict:
        out: dict = {"claim": self.name, "holds": self.holds}
        if self.witness is not None:
            out["witness"] = list(self.witness)
        return out


@dataclass(frozen=True)
class ConsequenceReport:
    name: str
    claims: tuple[Claim, ...]

    @property
    def ok(self) -> bool:
        return all(c.holds for c in self.claims if c.applicable)

    def to_json(self) -> dict:
        return {"report": self.name, "ok": self.ok, "claims": [c.to_json() for c in self.claims]}


def _forall(name: str, pairs, pred) -> Claim:
    for args in pairs:
        if not pred(*args):
            return Claim(name, False, witness=tuple(args))
    return Claim(name, True)


def skew_truss_consequence_report(obj: AlgebraObject) -> ConsequenceReport:
    """Derived facts every verified skew truss must satisfy: each lambda map
    is an additive endomorphism, a o 0 recovers sigma, sigma is idempotent
    (when every lambda_a kills sigma(0)), and (when sigma fixes 0) lambda_0
    is an idempotent endomorphism that computes 0 o a and commutes with sigma.

    Idempotency of sigma is not unconditional: associativity gives
    sigma(sigma(a)) = (a o 0) o 0 = a o sigma(0) = sigma(a) + lambda_a(sigma(0)),
    so sigma o sigma = sigma exactly when lambda_a(sigma(0)) = 0 for all a.
    Shifted group operations a o b = a + u + b, sigma(a) = a + u, u != 0,
    break it.  The claim is reported only under that hypothesis (holds=None
    otherwise); sigma fixing 0 is sufficient but not necessary."""
    require_verified(obj, (SKEW_TRUSS,))
    G = obj.group
    lam = lambda_family(obj)
    s, c = obj.sigma, obj.circ.table
    claims = [
        _forall(
            "lambda-maps-are-endomorphisms",
            ((a,) for a in G.elements),
            lambda a: lam[a].is_endomorphism,
        ),
        _forall(
            "circ-by-zero-recovers-sigma",
            ((a,) for a in G.elements),
            lambda a: c[a][0] == s[a],
        ),
        Claim(
            "sigma-idempotent",
            is_idempotent_map(s) if all(lam[a](s[0]) == 0 for a in G.elements) else None,
        ),
    ]
    if s[0] == 0:
        lam0 = lam[0]
        claims.append(
            Claim(
                "lambda0-idempotent-endomorphism",
                lam0.is_endomorphism and is_idempotent_map(lam0),
            )
        )
        claims.append(
            _forall(
                "zero-circ-recovers-lambda0",
                ((a,) for a in G.elements),
                lambda a: c[0][a] == lam0(a),
            )
        )
        claims.append(Claim("sigma-commutes-with-lambda0", compose_commute(s, lam0)))
    else:
        for name in (
            "lambda0-idempotent-endomorphism",
            "zero-circ-recovers-lambda0",
            "sigma-commutes-with-lambda0",
        ):
            claims.append(Claim(name, None))
    return ConsequenceReport("skew-truss-consequences", tuple(claims))


def ditruss_consequence_report(obj: AlgebraObject) -> ConsequenceReport:
    """Derived facts for a verified ditruss whose dot is left distributive:
    zero/negation behavior of both operations, and (when sigma is an
    idempotent endomorphism) the equivalence of circ-associativity with weak
    sigma-associativity of dot plus its companions."""
    require_verified(obj, (DITRUSS,))
    if not is_left_distributive(obj.dot).holds:
        raise DotNotDistributive("consequence report requires a left-distributive dot")
    G = obj.group
    add, inv = G.table, G.inverse
    s, c, d = obj.sigma, obj.circ.table, obj.dot.table
    elements = G.elements
    pairs = [(a, b) for a in elements for b in elements]
    claims = [
        _forall("dot-by-zero-is-zero", ((a,) for a in elements), lambda a: d[a][0] == 0),
        _forall(
            "dot-negates-second-argument",
            pairs,
            lambda a, b: d[a][inv[b]] == inv[d[a][b]],
        ),
        _forall(
            "circ-by-zero-recovers-sigma",
            ((a,) for a in elements),
            lambda a: c[a][0] == s[a],
        ),
        _forall(
            "circ-of-negated-second",
            pairs,
            lambda a, b: c[a][inv[b]] == add[add[s[a]][inv[c[a][b]]]][s[a]],
        ),
    ]
    flags = obj.sigma_flags()
    if flags.endomorphism and flags.idempotent:
        assoc = is_associative(obj.circ).holds
        weak = is_left_weak_sigma_associative(obj.dot, s).holds
        claims.append(
            Claim("circ-associative-iff-dot-weak-sigma-associative", assoc == weak)
        )
        if assoc and weak:
            claims.append(
                _forall(
                    "sigma-slides-through-dot",
                    pairs,
                    lambda a, b: s[d[a][b]] == d[a][s[b]],
                )
            )
            lam = lambda_family(obj)
            claims.append(
                _forall(
                    "lambda-respects-circ",
                    pairs,
                    lambda a, b: lam[c[a][b]].images
                    == compose_maps(lam[a], lam[b]),
                )
            )
            claims.append(Claim("lambda0-idempotent", is_idempotent_map(lam[0])))
        else:
            claims.append(Claim("sigma-slides-through-dot", None))
            claims.append(Claim("lambda-respects-circ", None))
            claims.append(Claim("lambda0-idempotent", None))
    else:
        for name in (
            "circ-associative-iff-dot-weak-sigma-associative",
            "sigma-slides-through-dot",
            "lambda-respects-circ",
            "lambda0-idempotent",
        ):
            claims.append(Claim(name, None))
    return ConsequenceReport("ditruss-consequences", tuple(claims))


# ---------------------------------------------------------------------------
# example constructions

def build_conjugation_ditruss(G: FiniteGroup, sigma: MapLike, tau: MapLike) -> AlgebraObject:
    """The ditruss with a o b = tau(b) + sigma(a) and a.b the conjugate
    -sigma(a) + tau(b) + sigma(a).  Requires commuting idempotent
    endomorphisms; collapses to dot = tau-pi2 on abelian carriers."""
    s, t = images_of(sigma), images_of(tau)
    for label, m in (("sigma", s), ("tau", t)):
        if not is_endomorphism_images(G, m):
            raise PreconditionFailed(f"{label} is not a group endomorphism")
        if not is_idempotent_map(m):
            raise PreconditionFailed(f"{label} is not idempotent")
    if not compose_commute(s, t):
        raise PreconditionFailed("sigma and tau do not commute under composition")
    add, inv = G.table, G.inverse
    n = G.order
    circ = [[add[t[b]][s[a]] for b in range(n)] for a in range(n)]
    dot = [[add[add[inv[s[a]]][t[b]]][s[a]] for b in range(n)] for a in range(n)]
    return verify(make_ditruss(G, s, circ, dot))


# ---------------------------------------------------------------------------
# JSON round trip

def structure_from_json(data: dict) -> AlgebraObject:
    if not isinstance(data, dict):
        raise InputError("structure JSON must be an object")
    if "kind" not in data or "group" not in data:
        raise InputError("structure JSON requires 'kind' and 'group' fields")
    kind = normalize_kind(str(data["kind"]))
    spec = data["group"]
    # inline groups must already carry the identity at 0: the structure
    # tables share the labeling and cannot be relabeled behind their back
    if isinstance(spec, dict):
        group = group_from_json(spec, normalize=False)
    else:
        group = catalog.resolve_group(spec)
    return make_algebra(
        group,
        kind,
        sigma=data.get("sigma"),
        circ=data.get("circ"),
        dot=data.get("dot"),
    )


def structure_to_json(obj: AlgebraObject, inline_group: bool = False) -> dict:
    out: dict = {"kind": obj.kind}
    out["group"] = obj.group.to_json() if inline_group else obj.group.name
    if obj.sigma is not None:
        out["sigma"] = list(obj.sigma)
    if obj.circ is not None:
        out["circ"] = [list(r) for r in obj.circ.table]
    if obj.dot is not None:
        out["dot"] = [list(r) for r in obj.dot.table]
    return out


def structure_texts(
    group: FiniteGroup, kind: str, keys: Iterable[bytes], pad: str
) -> Iterator[str]:
    """For each structure_bytes() key of kind on group, the text that
    json.dumps(structure_to_json(obj), indent=2, sort_keys=True) gives for
    its object, without building the object.  pad is the newline and the
    indentation before the closing brace: "\n" at the top level, deeper
    where the object sits inside a payload."""
    n = group.order
    i1, i2, i3 = pad + "  ", pad + "    ", pad + "      "
    named = f'"group": {json.dumps(group.name)},{i1}"kind": {json.dumps(kind)}'

    def ints(values, inner, outer):
        return f"[{inner}{(',' + inner).join(map(str, values))}{outer}]"

    @functools.cache  # a table repeats few distinct rows
    def row(values):
        return ints(values, i3, i2)

    def table(label, flat):
        rows = map(row, (flat[i:i + n] for i in range(0, n * n, n)))
        return f'"{label}": [{i2}{("," + i2).join(rows)}{i1}]'

    for key in keys:
        sigma, circ, dot = _key_components(kind, n, key)
        fields = [table(label, op) for label, op in (("circ", circ), ("dot", dot)) if op]
        fields.append(named)
        if sigma is not None:
            fields.append(f'"sigma": {ints(sigma, i2, i1)}')
        yield f"{{{i1}{(',' + i1).join(fields)}{pad}}}"
