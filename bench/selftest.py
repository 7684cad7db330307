"""Self-test of the reference checker against trusslab's raw-axiom oracles.

    python3 bench/selftest.py

On Z2 and Z3 the checker scans every (sigma, circ) pair and every circ
table with its own axiom checks; the sets it accepts must equal what
``raw_skew_truss_search`` and ``raw_interchange_search`` find. The orbits of
those sets under the checker's brute-force Aut(G) then give representatives
that must pass ``check_classification``: raw axioms, pairwise
non-isomorphism and the class equation. Exits 1 on the first disagreement.
"""

from __future__ import annotations

import itertools
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checker as ck  # noqa: E402
from trusslab.catalog import builtin_group  # noqa: E402
from trusslab.enumeration import raw_interchange_search, raw_skew_truss_search  # noqa: E402


def _tables(n):
    for flat in itertools.product(range(n), repeat=n * n):
        yield flat, tuple(flat[a * n:(a + 1) * n] for a in range(n))


def _found_by_checker(add, kind):
    """Oracle-style keys of every structure the checker accepts."""
    n = len(add)
    keys = []
    for flat, circ in _tables(n):
        if kind == ck.INTERCHANGE:
            if ck.satisfies(add, {"kind": kind, "circ": circ}):
                keys.append((flat, circ))
            continue
        # associativity does not involve sigma: test it once per table
        if not ck.law_reports(add, {"kind": kind, "sigma": (0,) * n, "circ": circ})[0][1]:
            continue
        for sigma in itertools.product(range(n), repeat=n):
            if ck.satisfies(add, {"kind": kind, "sigma": sigma, "circ": circ}):
                keys.append(((sigma, flat), circ, sigma))
    return keys


def _classes(add, objs):
    auts = ck.automorphisms(add)
    reps = {}
    for obj in objs:
        orbit = ck.orbit_keys(obj, auts)
        reps.setdefault(min(orbit), obj)
    return list(reps.values())


def main() -> int:
    for name in ("Z2", "Z3"):
        G = builtin_group(name)
        add = G.table
        for kind, oracle_fn in ((ck.SKEW, raw_skew_truss_search), (ck.INTERCHANGE, raw_interchange_search)):
            found = _found_by_checker(add, kind)
            oracle = oracle_fn(G)
            if kind == ck.SKEW:
                mine = sorted(k for k, _c, _s in found)
                objs = [{"kind": kind, "sigma": s, "circ": c} for _k, c, s in found]
            else:
                mine = sorted(k for k, _c in found)
                objs = [{"kind": kind, "circ": c} for _k, c in found]
            if tuple(mine) != oracle.keys:
                print(f"{name} {kind}: checker accepts {len(mine)}, oracle {oracle.count}")
                return 1
            reps = _classes(add, objs)
            problems = ck.check_classification(add, reps, len(objs))
            if problems:
                print(f"{name} {kind}: {problems}")
                return 1
            print(f"{name} {kind}: {len(objs)} structures, {len(reps)} classes, "
                  "checker and oracle agree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
