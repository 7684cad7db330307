"""Reference checker for the benchmark.

Shares no code with trusslab: it works on plain integer tables and
re-derives everything it needs from the definitions, by scalar loops.

* ``law_reports`` evaluates the raw defining axioms of each kind in the
  library's report order and returns, per axiom, the lexicographically first
  violating tuple with both sides of the equation.
* ``automorphisms`` finds Aut(G) by brute force over carrier permutations
  (every automorphism fixes the identity 0, so only 1..n-1 are permuted).
* ``check_classification`` certifies an up-to-isomorphism enumeration:
  every representative satisfies the raw axioms, the representatives are
  pairwise non-isomorphic, and the class equation
  sum over representatives of |Aut G| / |Stab(rep)| gives the total count.
* The remaining helpers state the expected outcome of the per-object
  queries (transforms, consequence claims, decomposition, ideals,
  congruences) from their definitions.

Objects are dicts ``{"kind", "sigma", "circ", "dot"}`` of tuples (absent
components are None) living on an addition table ``add``.
"""

from __future__ import annotations

import itertools

SKEW, DITRUSS, WEAK, INTERCHANGE = "skew-truss", "ditruss", "weak-truss", "interchange-nr"

# the library's axiom order per kind, with the law names its reports carry
LAW_NAMES = {
    SKEW: ("associativity", "left-skew-sigma-distributivity"),
    DITRUSS: ("sigma-plus-dot-equals-circ",),
    WEAK: ("left-weak-sigma-associativity", "left-distributivity"),
    INTERCHANGE: ("interchange",),
}


# ---------------------------------------------------------------------------
# group basics

def inverses(add) -> tuple[int, ...]:
    n = len(add)
    return tuple(next(b for b in range(n) if add[a][b] == 0) for a in range(n))


def is_endo(add, f) -> bool:
    n = len(add)
    return all(f[add[a][b]] == add[f[a]][f[b]] for a in range(n) for b in range(n))


def is_idempotent(f) -> bool:
    return all(f[f[a]] == f[a] for a in range(len(f)))


def commute(f, g) -> bool:
    return all(f[g[a]] == g[f[a]] for a in range(len(f)))


def images_commute(add, f, g) -> bool:
    return all(add[x][y] == add[y][x] for x in set(f) for y in set(g))


def automorphisms(add) -> list[tuple[int, ...]]:
    n = len(add)
    out = []
    for rest in itertools.permutations(range(1, n)):
        h = (0,) + rest
        if all(h[add[a][b]] == add[h[a]][h[b]] for a in range(n) for b in range(n)):
            out.append(h)
    return out


# ---------------------------------------------------------------------------
# raw axioms

def _first_violation(n: int, arity: int, sides):
    """Scan all tuples in lexicographic order; return (tuple, lhs, rhs) of
    the first one whose two sides differ, or None."""
    for t in itertools.product(range(n), repeat=arity):
        lhs, rhs = sides(*t)
        if lhs != rhs:
            return t, lhs, rhs
    return None


def _law_sides(kind: str, add, obj):
    inv = inverses(add)
    s, c, d = obj.get("sigma"), obj.get("circ"), obj.get("dot")
    if kind == SKEW:
        return (
            (3, lambda a, b, x: (c[c[a][b]][x], c[a][c[b][x]])),
            (3, lambda a, b, x: (c[a][add[b][x]], add[add[c[a][b]][inv[s[a]]]][c[a][x]])),
        )
    if kind == DITRUSS:
        return ((2, lambda a, b: (add[s[a]][d[a][b]], c[a][b])),)
    if kind == WEAK:
        return (
            (3, lambda a, b, x: (d[add[s[a]][d[a][b]]][x], d[a][d[b][x]])),
            (3, lambda a, b, x: (d[a][add[b][x]], add[d[a][b]][d[a][x]])),
        )
    if kind == INTERCHANGE:
        return (
            (4, lambda w, x, y, z: (c[add[w][x]][add[y][z]], add[c[w][y]][c[x][z]])),
        )
    raise ValueError(f"unknown kind {kind}")


def law_reports(add, obj) -> list[tuple]:
    """[(law, holds, witness, lhs, rhs)] in the library's axiom order."""
    n = len(add)
    out = []
    for name, (arity, sides) in zip(LAW_NAMES[obj["kind"]], _law_sides(obj["kind"], add, obj)):
        bad = _first_violation(n, arity, sides)
        if bad is None:
            out.append((name, True, None, None, None))
        else:
            out.append((name, False) + bad)
    return out


def satisfies(add, obj) -> bool:
    return all(r[1] for r in law_reports(add, obj))


# ---------------------------------------------------------------------------
# relabelling and isomorphism

def push(obj, h) -> dict:
    """The structure carried along the carrier bijection h."""
    n = len(h)
    hinv = [0] * n
    for a, v in enumerate(h):
        hinv[v] = a
    out = {"kind": obj["kind"], "sigma": None, "circ": None, "dot": None}
    if obj.get("sigma") is not None:
        out["sigma"] = tuple(h[obj["sigma"][hinv[x]]] for x in range(n))
    for part in ("circ", "dot"):
        t = obj.get(part)
        if t is not None:
            out[part] = tuple(
                tuple(h[t[hinv[x]][hinv[y]]] for y in range(n)) for x in range(n)
            )
    return out


def key(obj) -> tuple:
    parts = [obj["kind"]]
    for part in ("sigma", "circ", "dot"):
        v = obj.get(part)
        if v is not None:
            parts.append(tuple(v) if part == "sigma" else tuple(x for row in v for x in row))
    return tuple(parts)


def orbit_keys(obj, auts) -> set:
    return {key(push(obj, h)) for h in auts}


def isomorphic(a, b, auts) -> bool:
    return key(b) in orbit_keys(a, auts)


def check_classification(add, reps, total_count: int) -> list[str]:
    """Problems found with an up-to-isomorphism enumeration (empty if none)."""
    auts = automorphisms(add)
    problems = []
    orbit_mins = set()
    class_sum = 0
    for i, rep in enumerate(reps):
        if not satisfies(add, rep):
            problems.append(f"representative {i} fails the raw axioms")
        k = key(rep)
        images = [key(push(rep, h)) for h in auts]
        stab = sum(1 for x in images if x == k)
        class_sum += len(auts) // stab
        orbit_mins.add(min(images))
    if len(orbit_mins) != len(reps):
        problems.append(f"{len(reps) - len(orbit_mins)} representatives are isomorphic to another")
    if class_sum != total_count:
        problems.append(f"class equation gives {class_sum}, payload says {total_count}")
    return problems


# ---------------------------------------------------------------------------
# expected outcomes of the per-object queries

def lambda_rows(add, obj) -> tuple:
    """lambda_a(b) = -sigma(a) + a o b, or the dot rows when dot is present."""
    if obj.get("dot") is not None:
        return tuple(tuple(r) for r in obj["dot"])
    inv, s, c = inverses(add), obj["sigma"], obj["circ"]
    n = len(add)
    return tuple(tuple(add[inv[s[a]]][c[a][b]] for b in range(n)) for a in range(n))


def skew_claims(add, obj) -> list[tuple]:
    """(claim, holds) of the skew-truss consequence report; None = skipped."""
    n = len(add)
    s, c = obj["sigma"], obj["circ"]
    lam = lambda_rows(add, obj)
    out = [
        ("lambda-maps-are-endomorphisms", all(is_endo(add, r) for r in lam)),
        ("circ-by-zero-recovers-sigma", all(c[a][0] == s[a] for a in range(n))),
        (
            "sigma-idempotent",
            is_idempotent(s) if all(lam[a][s[0]] == 0 for a in range(n)) else None,
        ),
    ]
    names = (
        "lambda0-idempotent-endomorphism",
        "zero-circ-recovers-lambda0",
        "sigma-commutes-with-lambda0",
    )
    if s[0] == 0:
        lam0 = lam[0]
        values = (
            is_endo(add, lam0) and is_idempotent(lam0),
            all(c[0][a] == lam0[a] for a in range(n)),
            commute(s, lam0),
        )
    else:
        values = (None, None, None)
    return out + list(zip(names, values))


def _is_assoc(t) -> bool:
    n = len(t)
    return all(t[t[a][b]][x] == t[a][t[b][x]] for a in range(n) for b in range(n) for x in range(n))


def left_distributive(add, d) -> bool:
    n = len(add)
    return all(
        d[a][add[b][x]] == add[d[a][b]][d[a][x]]
        for a in range(n) for b in range(n) for x in range(n)
    )


def ditruss_claims(add, obj) -> list[tuple] | None:
    """(claim, holds) of the ditruss consequence report, or None when the
    report must be refused (dot not left distributive)."""
    n = len(add)
    inv = inverses(add)
    s, c, d = obj["sigma"], obj["circ"], obj["dot"]
    if not left_distributive(add, d):
        return None
    pairs = [(a, b) for a in range(n) for b in range(n)]
    out = [
        ("dot-by-zero-is-zero", all(d[a][0] == 0 for a in range(n))),
        ("dot-negates-second-argument", all(d[a][inv[b]] == inv[d[a][b]] for a, b in pairs)),
        ("circ-by-zero-recovers-sigma", all(c[a][0] == s[a] for a in range(n))),
        (
            "circ-of-negated-second",
            all(c[a][inv[b]] == add[add[s[a]][inv[c[a][b]]]][s[a]] for a, b in pairs),
        ),
    ]
    if not (is_endo(add, s) and is_idempotent(s)):
        return out + [
            ("circ-associative-iff-dot-weak-sigma-associative", None),
            ("sigma-slides-through-dot", None),
            ("lambda-respects-circ", None),
            ("lambda0-idempotent", None),
        ]
    assoc = _is_assoc(c)
    weak = law_reports(add, {"kind": WEAK, "sigma": s, "dot": d})[0][1]
    out.append(("circ-associative-iff-dot-weak-sigma-associative", assoc == weak))
    if not (assoc and weak):
        return out + [
            ("sigma-slides-through-dot", None),
            ("lambda-respects-circ", None),
            ("lambda0-idempotent", None),
        ]
    lam = lambda_rows(add, obj)
    out.append(("sigma-slides-through-dot", all(s[d[a][b]] == d[a][s[b]] for a, b in pairs)))
    out.append(
        (
            "lambda-respects-circ",
            all(lam[c[a][b]] == tuple(lam[a][lam[b][x]] for x in range(n)) for a, b in pairs),
        )
    )
    out.append(("lambda0-idempotent", is_idempotent(lam[0])))
    return out


def _rows(f):
    return tuple(tuple(r) for r in f)


def expected_round_trip(add, obj):
    """(intermediate, final) of the benchmark's conversion round trip for
    obj, or None when it must be refused: a hypothesis of the first step
    fails, or the intermediate object fails its raw axioms.

    skew -> weak -> skew, weak -> skew -> weak, ditruss -> ditruss ->
    ditruss (the involution), interchange -> ditruss -> interchange."""
    n = len(add)
    inv = inverses(add)
    kind, s, c, d = obj["kind"], obj.get("sigma"), obj.get("circ"), obj.get("dot")
    rng = range(n)
    if kind in (SKEW, WEAK):
        if not (is_endo(add, s) and is_idempotent(s)):
            return None
        if kind == SKEW:  # a.b = -sigma(a) + a o b
            dot = _rows([[add[inv[s[a]]][c[a][b]] for b in rng] for a in rng])
            mid = {"kind": WEAK, "sigma": s, "circ": None, "dot": dot}
        else:  # a o b = sigma(a) + a.b
            circ = _rows([[add[s[a]][d[a][b]] for b in rng] for a in rng])
            mid = {"kind": SKEW, "sigma": s, "circ": circ, "dot": None}
    elif kind == DITRUSS:
        if any(tuple(row) != tuple(d[0]) for row in d):
            return None
        tau = tuple(d[0])
        circ = _rows([[add[tau[a]][s[b]] for b in rng] for a in rng])
        dot = _rows([[s[b] for b in rng] for _ in rng])
        mid = {"kind": DITRUSS, "sigma": tau, "circ": circ, "dot": dot}
    elif kind == INTERCHANGE:
        sig = tuple(c[a][0] for a in rng)
        tau = tuple(c[0])
        ok = (
            all(is_endo(add, m) and is_idempotent(m) for m in (sig, tau))
            and commute(sig, tau)
            and images_commute(add, sig, tau)
            and all(c[a][b] == add[sig[a]][tau[b]] for a in rng for b in rng)
        )
        if not ok:
            return None
        dot = _rows([[tau[b] for b in rng] for _ in rng])
        mid = {"kind": DITRUSS, "sigma": sig, "circ": _rows(c), "dot": dot}
    else:
        raise ValueError(kind)
    return (mid, obj) if satisfies(add, mid) else None


def expected_decomposition(add, obj):
    """(T0, Tc) of the 0-symmetric/constant split, or None when it must be
    refused: sigma(0) != 0, lambda_0 not an idempotent endomorphism, or one
    of the split's properties failing."""
    n = len(add)
    inv = inverses(add)
    s, c, d = obj["sigma"], obj["circ"], obj.get("dot")
    if s[0] != 0:
        return None
    lam0 = tuple(c[0])
    if not (is_endo(add, lam0) and is_idempotent(lam0)):
        return None
    t0 = tuple(a for a in range(n) if c[0][a] == 0)
    tc = tuple(a for a in range(n) if c[0][a] == a)
    if not is_normal_subgroup(add, t0):
        return None
    tcs = set(tc)
    if any(add[x][y] not in tcs or inv[x] not in tcs for x in tc for y in tc):
        return None
    if len({add[k][i] for k in t0 for i in tc}) != n or len(t0) * len(tc) != n:
        return None
    for part in (t0, tc):
        ps = set(part)
        if any(s[a] not in ps for a in part):
            return None
        for table in (c, d):
            if table is not None and any(table[a][b] not in ps for a in part for b in part):
                return None
    return t0, tc


def is_normal_subgroup(add, elems) -> bool:
    inv = inverses(add)
    m = set(elems)
    if 0 not in m:
        return False
    n = len(add)
    return all(inv[h] in m for h in m) and all(
        add[h][k] in m for h in m for k in m
    ) and all(add[add[inv[g]][h]][g] in m for h in m for g in range(n))


def is_ideal(add, obj, elems) -> bool:
    """Normal subgroup, lambda-stable, and (i + a) o b - a o b in I."""
    if not is_normal_subgroup(add, elems):
        return False
    inv = inverses(add)
    c = obj["circ"]
    lam = lambda_rows(add, obj)
    m = set(elems)
    n = len(add)
    return all(lam[a][i] in m for i in m for a in range(n)) and all(
        add[c[add[i][a]][b]][inv[c[a][b]]] in m for i in m for a in range(n) for b in range(n)
    )


def is_congruence(add, obj, blocks) -> bool:
    """The partition is respected by +, circ and sigma."""
    n = len(add)
    label = [None] * n
    for i, block in enumerate(blocks):
        for a in block:
            label[a] = i
    if None in label:
        return False
    s, c = obj["sigma"], obj["circ"]
    for a in range(n):
        for b in range(n):
            if label[a] != label[b]:
                continue
            if label[s[a]] != label[s[b]]:
                return False
            for x in range(n):
                for t in (add, c):
                    if label[t[a][x]] != label[t[b][x]] or label[t[x][a]] != label[t[x][b]]:
                        return False
    return True
