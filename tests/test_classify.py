"""Classification against the routes it replaced.

Every kind is classified isomorph-free, from one generator per
automorphism orbit: skew and weak trusses from one first search pair, and
interchange near-rings and constant-lambda ditrusses from one pair of
endomorphisms.  The library holds the representatives only and builds the
listing from their orbits.

The references here are the routes this replaced.  _classify sorts the
structure_bytes() keys of every structure once, takes the first unmarked
one as its class representative and marks its automorphic images.  Below
it, the plain loop it replaced in turn: the orbit minimum of every
structure, and a relabel of the first structure met in each new class.
All must give the same totals, class counts, representatives (in order)
and structure order.  The skew and weak search is held to the unrestricted
joint search with every leaf verified, then _classify; the endomorphism
pairs to every admissible pair verified, then _classify.
"""

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from trusslab import (
    builtin_group,
    builtin_names,
    enumerate_constant_lambda_ditrusses,
    enumerate_interchange,
    enumerate_skew_trusses,
    enumerate_weak_trusses,
    enumeration,
)
from trusslab.enumeration import (
    ClassificationResult,
    _joint_search,
    _orbit_min,
    _pullbacks,
    canonical_form,
    canonical_key,
)
from trusslab.catalog import _product
from trusslab.cli import main
from trusslab.errors import TrussLabError
from trusslab.groups import (
    compose_commute,
    enumerate_endomorphisms,
    group_from_json,
    image_commuting,
    is_idempotent_map,
)
from trusslab.ops import binop
from trusslab.structures import split_key, verify_key

ENUMERATORS = {
    "skew-truss": enumerate_skew_trusses,
    "weak-truss": enumerate_weak_trusses,
    "ditruss": enumerate_constant_lambda_ditrusses,
    "interchange-nr": enumerate_interchange,
}

CASES = (
    [(g, k, {}) for g in ("Z1", "Z2", "Z3", "Z4", "V4", "Z5") for k in ENUMERATORS]
    + [(g, k, {}) for g in ("Z6", "S3", "Z7", "Z8", "D4", "Q8") for k in ("interchange-nr", "ditruss")]
    + [(g, "skew-truss", {"cap": 6}) for g in ("Z6", "S3")]
)


def _classify(G, kind, keys, stats) -> ClassificationResult:
    """Sort the structure_bytes() keys of verified structures and mark
    orbits.

    The enumerated set is closed under Aut(G), so the first key in sorted
    order that is not yet marked is the least of its orbit: its structure
    is the class representative as it stands.  Its image keys are then
    marked, so each class costs one walk over Aut(G).  An image key missing
    from the set would make that first key a false minimum, so it raises."""
    keys = sorted(keys)
    position = {key: i for i, key in enumerate(keys)}
    marked = bytearray(len(keys))
    pullbacks = _pullbacks(G, kind)
    reps = []
    for i, key in enumerate(keys):
        if marked[i]:
            continue
        reps.append(key)
        for _h, pull, push in pullbacks:
            j = position.get(bytes(pull(key)).translate(push))
            if j is None:
                raise TrussLabError(
                    f"{kind} classification on {G.name} is not closed under "
                    f"automorphisms: an image of {split_key(kind, G.order, key)} "
                    f"was not enumerated"
                )
            marked[j] = 1
    result = ClassificationResult(G, kind, reps, len(keys), stats)
    result.keys = keys
    return result


def reference_classify(structures):
    """(total, classes, representative keys, structure keys) the way
    classification ran before orbit marking."""
    structures = sorted(structures, key=lambda o: o.structure_key())
    reps = {}
    for obj in structures:
        key = _orbit_min(obj)
        if key not in reps:
            reps[key] = canonical_form(obj)
    return (
        len(structures),
        len(reps),
        [reps[k].structure_key() for k in sorted(reps)],
        [o.structure_key() for o in structures],
    )


def summary(result):
    return (
        result.total_count,
        result.iso_class_count,
        [o.structure_key() for o in result.representatives],
        [o.structure_key() for o in result.structures],
    )


@pytest.mark.parametrize(
    "group, kind, kwargs", CASES, ids=[f"{g}-{k}" for g, k, _ in CASES]
)
def test_classification_matches_reference(group, kind, kwargs):
    G = builtin_group(group)
    result = ENUMERATORS[kind](G, **kwargs)
    expected = reference_classify(result.structures)
    assert summary(result) == expected
    # the classification does not depend on the order it is handed
    shuffled = [o.structure_bytes() for o in result.structures]
    random.Random(group).shuffle(shuffled)
    assert summary(_classify(G, result.kind, shuffled, {})) == expected
    # a representative is the enumerated object itself, not a rebuilt copy
    ids = {id(o) for o in result.structures}
    assert all(id(rep) in ids for rep in result.representatives)
    # and it is its own canonical form
    for rep in result.representatives:
        assert canonical_key(rep) == (result.kind,) + rep.structure_key()


TABLE_CASES = [(g, k) for g in ("Z4", "V4", "Z5") for k in ENUMERATORS] + [
    (g, k) for g in ("D4", "Q8") for k in ("ditruss", "interchange-nr")
]


@pytest.mark.parametrize("group, kind", TABLE_CASES, ids=[f"{g}-{k}" for g, k in TABLE_CASES])
def test_enumerated_tables_equal_validated_tables(group, kind):
    # the enumerators wrap the rows they build without re-validating them;
    # each table must be exactly what validating the same rows returns
    structures = ENUMERATORS[kind](builtin_group(group)).structures
    assert structures
    for obj in structures:
        for op in (obj.circ, obj.dot):
            if op is not None:
                assert op == binop(op.carrier, op.table)


# ---------------------------------------------------------------------------
# isomorph-free search against the full search

SEARCH_CASES = [
    (g, "skew-truss") for g in ("Z1", "Z2", "Z3", "Z4", "V4", "Z5", "Z6", "S3", "Z7")
] + [(g, "weak-truss") for g in ("Z1", "Z2", "Z3", "Z4", "V4", "Z5")]


def full_search(G, kind):
    """The classification before the search was made isomorph-free: every
    leaf of the unrestricted joint search verified, then orbit marking."""
    n, skew = G.order, kind == "skew-truss"
    keys = [
        verify_key(G, kind, bytes(sigma) + b"".join(map(bytes, circ if skew else dot)))
        for sigma, _digits, dot, circ in _joint_search(
            G, enumerate_endomorphisms(G), [range(n)] * n, skew
        )
    ]
    stats = {"sigma_fixes_zero_count": sum(key[0] == 0 for key in keys)} if skew else {}
    return _classify(G, kind, keys, stats)


@pytest.mark.parametrize("group, kind", SEARCH_CASES, ids=[f"{g}-{k}" for g, k in SEARCH_CASES])
def test_isomorph_free_search_matches_full_search(group, kind):
    G = builtin_group(group)
    result = ENUMERATORS[kind](G, cap=7)
    expected = full_search(G, kind)
    assert [o.structure_bytes() for o in result.representatives] == [
        o.structure_bytes() for o in expected.representatives
    ]
    assert result.keys == expected.keys
    assert result.total_count == expected.total_count
    if kind == "skew-truss":
        assert (
            result.search_stats["sigma_fixes_zero_count"]
            == expected.search_stats["sigma_fixes_zero_count"]
        )
    # one leaf kept per class
    counters = result.counters
    assert counters["leaves_kept"] == result.iso_class_count
    assert counters["leaves_visited"] <= result.total_count
    assert counters["first_pairs_searched"] <= counters["first_pairs"]


PAIR_CASES = [(g, k) for g in builtin_names() for k in ("interchange-nr", "ditruss")]


def every_pair(G, kind):
    """The classification of interchange near-rings and constant-lambda
    ditrusses before it was made isomorph-free: the structure of every
    admissible endomorphism pair verified, then orbit marking."""
    n, endos = G.order, enumerate_endomorphisms(G)
    if kind == "ditruss":
        endos = [e for e in endos if is_idempotent_map(e)]
    keys = []
    for e, f in itertools.product(endos, repeat=2):
        circ = bytes(G.table[x][y] for x in e.images for y in f.images)
        if kind == "interchange-nr" and image_commuting(G, e, f):
            keys.append(verify_key(G, kind, circ))
        elif kind == "ditruss" and compose_commute(e, f):
            keys.append(verify_key(G, kind, bytes(e.images) + circ + bytes(f.images) * n))
    return _classify(G, kind, keys, {})


@pytest.mark.parametrize("group, kind", PAIR_CASES, ids=[f"{g}-{k}" for g, k in PAIR_CASES])
def test_least_pairs_match_every_pair(group, kind):
    G = builtin_group(group)
    result = ENUMERATORS[kind](G)
    expected = every_pair(G, kind)
    assert result.representative_keys == expected.representative_keys
    assert result.keys == expected.keys
    assert result.total_count == expected.total_count


PAIR_RUNS = [
    (enumerate_interchange, {"associative_only": flag}) for flag in (False, True)
] + [(enumerate_constant_lambda_ditrusses, {"image_commuting_only": flag}) for flag in (False, True)]


@pytest.mark.parametrize(
    "enumerate_kind, kwargs", PAIR_RUNS,
    ids=["interchange", "interchange-associative", "ditruss", "ditruss-image-commuting"],
)
def test_pair_route_builds_no_orbit_images(monkeypatch, enumerate_kind, kwargs):
    # the least pair's key is the least key of its class, so the pair route
    # needs neither the orbit minimum nor the table of key pullbacks
    expected = {}
    for name in builtin_names():
        result = enumerate_kind(builtin_group(name), **kwargs)
        expected[name] = (result.representative_keys, result.total_count)

    def refuse(*args):
        raise AssertionError("the pair route built an image of a key")

    monkeypatch.setattr(enumeration, "_pullbacks", refuse)
    monkeypatch.setattr(enumeration, "_representative", refuse)
    for name in builtin_names():
        result = enumerate_kind(builtin_group(name), **kwargs)
        assert (result.representative_keys, result.total_count) == expected[name]


@pytest.mark.parametrize("group, kind", PAIR_CASES, ids=[f"{g}-{k}" for g, k in PAIR_CASES])
def test_pairs_are_listed_in_key_order(monkeypatch, group, kind):
    # the first pair met of an orbit has the least key of its class only if
    # the keys of the pairs increase in the order the pairs are listed
    listed = []
    classify_pairs = enumeration._classify_pairs

    def spy(G, kind, endos, pairs, key_of):
        pairs = list(pairs)
        listed.append([key_of(endos[e], endos[f]) for e, f in pairs])
        return classify_pairs(G, kind, endos, pairs, key_of)

    monkeypatch.setattr(enumeration, "_classify_pairs", spy)
    result = ENUMERATORS[kind](builtin_group(group))
    (keys,) = listed
    assert len(keys) == result.total_count
    assert all(a < b for a, b in zip(keys, keys[1:]))


Z2_CUBED = {"name": "Z2xZ2xZ2", "order": 8, "table": _product(2, 2, 2)}


@pytest.mark.parametrize(
    "kind, total, classes, digest",
    [
        ("interchange-nr", 262144, 1744,
         "5b5ad8a80d5887ccd1ccb9f9b4565c261bf2df1d9a71f2c3cbff82d884344d50"),
        ("ditruss", 1012, 20,
         "dd94eb1339035f2ab008e5c93831bc5134f515b5499656b2146ffb1a1d97aec3"),
    ],
    ids=["interchange-nr", "ditruss"],
)
def test_inline_z2_cubed_classification(capsys, tmp_path, kind, total, classes, digest):
    # the elementary abelian group of order 8, outside the catalog, with
    # |Aut G| = 168
    path = tmp_path / "z2-cubed.json"
    path.write_text(json.dumps(Z2_CUBED))
    assert main(["enumerate", "--group", str(path), "--kind", kind, "--up-to-iso"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    payload = json.loads(out)
    assert (payload["total_count"], payload["iso_class_count"]) == (total, classes)
    if kind == "ditruss":
        G = group_from_json(Z2_CUBED)
        result = enumerate_constant_lambda_ditrusses(G)
        expected = every_pair(G, kind)
        assert result.representative_keys == expected.representative_keys
        assert result.total_count == expected.total_count


@pytest.mark.slow
def test_inline_z2_fourth_ditruss_in_bounded_memory(tmp_path):
    # 20,160 automorphisms: a table of key pullbacks per automorphism would
    # take ~300 MiB here, and the pair route builds none
    doc = {"name": "Z2xZ2xZ2xZ2", "order": 16, "table": _product(2, 2, 2, 2)}
    path = tmp_path / "z2-fourth.json"
    path.write_text(json.dumps(doc))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    with open(tmp_path / "out", "wb") as out, open(tmp_path / "err", "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "trusslab.cli", "enumerate", "--group", str(path),
             "--kind", "ditruss", "--up-to-iso"],
            env=env, stdout=out, stderr=err,
        )
        _pid, status, usage = os.wait4(proc.pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    out = (tmp_path / "out").read_bytes()
    assert hashlib.sha256(out).hexdigest() == (
        "a5cb612236dce3d1d1e3d6616310ff5c143b3033c5c80c965aeb6412c84d0e30"
    )
    payload = json.loads(out)
    assert (payload["total_count"], payload["iso_class_count"]) == (65284, 35)
    assert usage.ru_maxrss < 100 * 1024  # KiB


@pytest.mark.parametrize(
    "name, total, classes", [("Z6", 246900, 124036), ("S3", 339654, 57309)],
    ids=["Z6-weak", "S3-weak"],
)
def test_order_six_weak_truss_classification(name, total, classes):
    # the totals pinned on the full search, counted by orbit-stabilizer
    result = enumerate_weak_trusses(builtin_group(name), cap=6)
    assert (result.total_count, result.iso_class_count) == (total, classes)


def test_listing_checks_the_orbit_count():
    # the listing is the union of the representatives' orbits; a total that
    # disagrees with it raises instead of listing a different set
    for group, kind, total in (("V4", "skew-truss", 618), ("D4", "interchange-nr", 560)):
        result = ENUMERATORS[kind](builtin_group(group))
        result.total_count -= 1
        with pytest.raises(
            TrussLabError, match=f"orbits on {group} hold {total} structures, not {total - 1}"
        ):
            result.keys
