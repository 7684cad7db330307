"""Canonical forms against a scalar reference.

The library takes the orbit minimum by gathering each automorphic image's
key from cached index lists, and verifies only the input.  The reference
here is the plain loop: push every component forward along each
automorphism h (f -> h . f . h^-1), rebuild the object, verify it against
the axioms, and keep the least serialization.  Running it over every
enumerated structure also asserts, once, that automorphisms preserve the
axioms, which the library relies on instead of re-verifying each image.
"""

import itertools
import os
import re
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from trusslab import (
    are_isomorphic,
    automorphisms,
    builtin_group,
    canonical_form,
    check,
    enumerate_constant_lambda_ditrusses,
    enumerate_interchange,
    enumerate_skew_trusses,
    enumerate_weak_trusses,
    make_algebra,
    make_skew_truss,
    relabel_structure,
    validate_group,
    verify,
)
from trusslab.enumeration import canonical_key
from trusslab.errors import InputError, NoIdentityAtZero, VerificationFailed

ENUMERATORS = {
    "skew-truss": enumerate_skew_trusses,
    "weak-truss": enumerate_weak_trusses,
    "ditruss": enumerate_constant_lambda_ditrusses,
    "interchange-nr": enumerate_interchange,
}

CASES = [(g, k) for g in ("Z1", "Z2", "Z3", "Z4", "V4") for k in ENUMERATORS] + [
    ("D4", "interchange-nr"),
    ("Q8", "interchange-nr"),
]


@lru_cache(maxsize=None)
def structures(group: str, kind: str):
    return ENUMERATORS[kind](builtin_group(group)).structures


def scalar_push(obj, h):
    """The group table, sigma, circ and dot of obj pushed forward along the
    carrier bijection h cell by cell: every f becomes h . f . h^-1."""
    n = obj.order
    hinv = [0] * n
    for a, v in enumerate(h):
        hinv[v] = a

    def push(t):
        if t is None:
            return None
        return [[h[t[hinv[x]][hinv[y]]] for y in range(n)] for x in range(n)]

    sigma = None if obj.sigma is None else [h[obj.sigma[hinv[x]]] for x in range(n)]
    circ, dot = (None if op is None else op.table for op in (obj.circ, obj.dot))
    return push(obj.group.table), sigma, push(circ), push(dot)


def reference_images(obj):
    """Every automorphic image of obj, rebuilt and verified."""
    for aut in automorphisms(obj.group):
        _table, sigma, circ, dot = scalar_push(obj, aut.images)
        yield verify(make_algebra(obj.group, obj.kind, sigma=sigma, circ=circ, dot=dot))


@pytest.mark.parametrize("group,kind", CASES)
def test_canonical_forms_match_reference(group, kind):
    objs = structures(group, kind)
    assert objs
    for obj in objs:
        least = min(image.structure_key() for image in reference_images(obj))
        assert canonical_key(obj) == (obj.kind,) + least
        form = canonical_form(obj)
        assert form.verified
        assert form.group is obj.group
        assert form.structure_key() == least


def test_order_one_group():
    # the only automorphism of the trivial group is the identity; keys are
    # still tuples of tuples, not scalars
    for kind in ENUMERATORS:
        (obj,) = structures("Z1", kind)
        key = canonical_key(obj)
        assert key == (kind,) + obj.structure_key()
        assert all(isinstance(part, tuple) for part in key[1:])
        assert canonical_form(obj).structure_key() == obj.structure_key()
        assert are_isomorphic(obj, canonical_form(obj))


def test_unverified_input_is_verified_once():
    Z4 = builtin_group("Z4")
    good = make_skew_truss(Z4, [[(a + 1 + b) % 4 for b in range(4)] for a in range(4)], (1, 2, 3, 0))
    assert not good.verified
    assert canonical_key(good) == canonical_key(verify(make_skew_truss(Z4, good.circ, good.sigma)))
    assert good.verified


def test_failing_input_raises_with_the_first_witness():
    Z4 = builtin_group("Z4")
    bad = make_skew_truss(Z4, [[(a * b + 1) % 4 for b in range(4)] for a in range(4)], (0, 1, 2, 3))
    expected = next(r for r in check(make_skew_truss(Z4, bad.circ, bad.sigma)).reports if not r.holds)
    for call in (canonical_key, canonical_form):
        with pytest.raises(VerificationFailed) as info:
            call(make_skew_truss(Z4, bad.circ, bad.sigma))
        assert info.value.report == expected


def _non_automorphisms(G):
    """Every bijection of the carrier that fixes 0 but is no automorphism."""
    auts = {aut.images for aut in automorphisms(G)}
    fixing_zero = ((0,) + rest for rest in itertools.permutations(range(1, G.order)))
    return [h for h in fixing_zero if h not in auts]


@lru_cache(maxsize=None)
def _samples(group):
    """A few representatives of every kind that classifies quickly on group."""
    G = builtin_group(group)
    results = [
        enumerate_skew_trusses(G, cap=G.order),
        enumerate_constant_lambda_ditrusses(G),
        enumerate_interchange(G),
    ]
    if G.order <= 4:
        results.append(enumerate_weak_trusses(G))
    return [rep for result in results for rep in result.representatives[:8]]


@pytest.mark.parametrize("group", ["Z4", "S3"])
def test_relabel_along_a_non_automorphism(group):
    """A bijection fixing 0 that is no automorphism moves the group table
    as well: the image lives on the pushed group, matches the scalar push,
    and relabelling back returns the original key on the original table."""
    objs = _samples(group)
    G = objs[0].group
    for h in _non_automorphisms(G)[::7]:
        hinv = [h.index(a) for a in range(G.order)]
        for obj in objs:
            image = relabel_structure(obj, h)
            table, sigma, circ, dot = scalar_push(obj, h)
            pushed = validate_group(table, name=G.name)
            assert image.group.table == pushed.table != G.table
            expected = make_algebra(pushed, obj.kind, sigma=sigma, circ=circ, dot=dot)
            assert image.structure_key() == expected.structure_key()
            assert image.verified and check(expected).ok
            back = relabel_structure(image, hinv)
            assert back.group.table == G.table
            assert back.structure_bytes() == obj.structure_bytes()


@pytest.mark.parametrize("group", ["Z4", "S3"])
def test_relabel_verifies_an_unverified_valid_input(group):
    objs = _samples(group)
    G = objs[0].group
    for h in [aut.images for aut in automorphisms(G)] + _non_automorphisms(G)[:3]:
        for obj in objs:
            fresh = make_algebra(G, obj.kind, sigma=obj.sigma, circ=obj.circ, dot=obj.dot)
            image = relabel_structure(fresh, h)
            assert image.verified
            assert image.structure_key() == relabel_structure(obj, h).structure_key()


def test_relabel_of_an_unverified_failing_input_raises():
    Z4 = builtin_group("Z4")
    circ = [[(a * b + 1) % 4 for b in range(4)] for a in range(4)]
    for h in [aut.images for aut in automorphisms(Z4)] + _non_automorphisms(Z4):
        with pytest.raises(VerificationFailed):
            relabel_structure(make_skew_truss(Z4, circ, (0, 1, 2, 3)), h)


_Z4 = builtin_group("Z4")
RELABEL_CASES = (
    [(perm, InputError) for perm in [(0, 1), (0, 1, 2, 3, 4), (0, 3, 2, 1, 0), (0, 3, 2, 2),
                                     (0, 1, 2, -1), (0, 1, 2, 300), (0, 1, 2, 3.0), [0, 2, 2, True]]]
    + [(perm, NoIdentityAtZero) for perm in [(1, 0, 2, 3), (3, 2, 1, 0)]]
    + [(perm, None) for perm in _non_automorphisms(_Z4) + [aut.images for aut in automorphisms(_Z4)]]
)


@pytest.mark.parametrize("perm, error", RELABEL_CASES, ids=[repr(perm) for perm, _ in RELABEL_CASES])
def test_relabel_takes_only_a_permutation_of_the_carrier(perm, error):
    """A perm that is no permutation of 0..n-1 is refused by name; a
    bijection that moves 0 moves the identity; one that fixes 0 gives the
    scalar push."""
    obj = verify(make_skew_truss(_Z4, [[(a + 1 + b) % 4 for b in range(4)] for a in range(4)], (1, 2, 3, 0)))
    if error is InputError:
        with pytest.raises(InputError, match=re.escape(f"perm {perm!r} is not a permutation of 0..3")):
            relabel_structure(obj, perm)
    elif error is NoIdentityAtZero:
        with pytest.raises(NoIdentityAtZero):
            relabel_structure(obj, perm)
    else:
        table, sigma, circ, _dot = scalar_push(obj, perm)
        image = relabel_structure(obj, perm)
        assert image.verified and image.group.table == validate_group(table).table
        assert image.structure_key() == make_skew_truss(image.group, circ, sigma).structure_key()


def test_cli_import_leaves_numpy_unloaded():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, trusslab, trusslab.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_truss_searches_leave_numpy_unloaded():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, trusslab as t; G = t.builtin_group('Z4');"
        "t.enumerate_skew_trusses(G); t.enumerate_weak_trusses(G);"
        "print('numpy' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


_STDLIB_ONLY = """
import contextlib, io, json, sys
before = set(sys.modules)
import trusslab
from trusslab import cli, enumeration as e
G = trusslab.builtin_group("Z3")
for run in (e.enumerate_skew_trusses, e.enumerate_weak_trusses,
            e.enumerate_interchange, e.enumerate_constant_lambda_ditrusses,
            e.raw_skew_truss_search, e.raw_weak_truss_search,
            e.raw_interchange_search, e.raw_constant_lambda_ditruss_search):
    run(G)
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["enumerate", "--group", "Z3", "--kind", "interchange", "--oracle"]) == 0
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(loaded - set(sys.stdlib_module_names) - {"trusslab"})))
"""


def test_library_loads_only_the_standard_library():
    """Every search, every raw oracle and the CLI's oracle comparison run
    on Z3 without loading any module outside the standard library."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", _STDLIB_ONLY], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
