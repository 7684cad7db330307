"""Scalar reference for the law predicates of trusslab.ops and for the
ditruss compatibility axiom of trusslab.structures.

Each law is one plain loop over every tuple in lexicographic order, and
returns at the first violation.  The library checks the same laws by
comparing bytes blocks, one per value of a law's first variable (see the
trusslab.ops docstring); tests/test_law_engine.py requires identical
LawReports from both.
"""

from trusslab.groups import MapLike
from trusslab.ops import BinOpTable, LawReport, check_map
from trusslab.structures import AlgebraObject


def is_associative(f: BinOpTable) -> LawReport:
    t = f.table
    n = f.order
    for a in range(n):
        for b in range(n):
            ab = t[a][b]
            for c in range(n):
                lhs = t[ab][c]
                rhs = t[a][t[b][c]]
                if lhs != rhs:
                    return LawReport("associativity", False, (a, b, c), lhs, rhs)
    return LawReport("associativity", True)


def is_left_distributive(f: BinOpTable) -> LawReport:
    """a*(b+c) = a*b + a*c."""
    G = f.carrier
    t, add = f.table, G.table
    n = f.order
    for a in range(n):
        for b in range(n):
            ab = t[a][b]
            for c in range(n):
                lhs = t[a][add[b][c]]
                rhs = add[ab][t[a][c]]
                if lhs != rhs:
                    return LawReport("left-distributivity", False, (a, b, c), lhs, rhs)
    return LawReport("left-distributivity", True)


def is_right_distributive(f: BinOpTable) -> LawReport:
    """(a+b)*c = a*c + b*c."""
    G = f.carrier
    t, add = f.table, G.table
    n = f.order
    for a in range(n):
        for b in range(n):
            ab = add[a][b]
            for c in range(n):
                lhs = t[ab][c]
                rhs = add[t[a][c]][t[b][c]]
                if lhs != rhs:
                    return LawReport("right-distributivity", False, (a, b, c), lhs, rhs)
    return LawReport("right-distributivity", True)


def is_left_skew_sigma_distributive(f: BinOpTable, sigma: MapLike) -> LawReport:
    """a*(b+c) = (a*b) - sigma(a) + (a*c)."""
    G = f.carrier
    s = check_map(G, sigma)
    t, add, inv = f.table, G.table, G.inverse
    n = f.order
    for a in range(n):
        neg_sa = inv[s[a]]
        for b in range(n):
            left_part = add[t[a][b]][neg_sa]
            for c in range(n):
                lhs = t[a][add[b][c]]
                rhs = add[left_part][t[a][c]]
                if lhs != rhs:
                    return LawReport("left-skew-sigma-distributivity", False, (a, b, c), lhs, rhs)
    return LawReport("left-skew-sigma-distributivity", True)


def is_right_skew_sigma_distributive(f: BinOpTable, sigma: MapLike) -> LawReport:
    """(a+b)*c = (a*c) - sigma(c) + (b*c)."""
    G = f.carrier
    s = check_map(G, sigma)
    t, add, inv = f.table, G.table, G.inverse
    n = f.order
    for a in range(n):
        for b in range(n):
            ab = add[a][b]
            for c in range(n):
                lhs = t[ab][c]
                rhs = add[add[t[a][c]][inv[s[c]]]][t[b][c]]
                if lhs != rhs:
                    return LawReport("right-skew-sigma-distributivity", False, (a, b, c), lhs, rhs)
    return LawReport("right-skew-sigma-distributivity", True)


def is_left_weak_sigma_associative(f: BinOpTable, sigma: MapLike) -> LawReport:
    """(sigma(a) + a*b)*c = a*(b*c)."""
    G = f.carrier
    s = check_map(G, sigma)
    t, add = f.table, G.table
    n = f.order
    for a in range(n):
        sa = s[a]
        for b in range(n):
            e = add[sa][t[a][b]]
            for c in range(n):
                lhs = t[e][c]
                rhs = t[a][t[b][c]]
                if lhs != rhs:
                    return LawReport("left-weak-sigma-associativity", False, (a, b, c), lhs, rhs)
    return LawReport("left-weak-sigma-associativity", True)


def satisfies_interchange(f: BinOpTable) -> LawReport:
    """(w+x)*(y+z) = (w*y) + (x*z) over all quadruples."""
    G = f.carrier
    t, add = f.table, G.table
    n = f.order
    for w in range(n):
        for x in range(n):
            wx = add[w][x]
            for y in range(n):
                wy = t[w][y]
                row = t[wx]
                for z in range(n):
                    lhs = row[add[y][z]]
                    rhs = add[wy][t[x][z]]
                    if lhs != rhs:
                        return LawReport("interchange", False, (w, x, y, z), lhs, rhs)
    return LawReport("interchange", True)


def ditruss_compatibility(obj: AlgebraObject) -> LawReport:
    """sigma(a) + a.b = a o b for all a, b."""
    add = obj.group.table
    s, c, d = obj.sigma, obj.circ.table, obj.dot.table
    for a in obj.group.elements:
        sa = s[a]
        for b in obj.group.elements:
            lhs = add[sa][d[a][b]]
            rhs = c[a][b]
            if lhs != rhs:
                return LawReport("sigma-plus-dot-equals-circ", False, (a, b), lhs, rhs)
    return LawReport("sigma-plus-dot-equals-circ", True)
