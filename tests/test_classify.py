"""Classification against the routes it replaced.

Every kind is classified isomorph-free, from one generator per
automorphism orbit: skew and weak trusses from one leaf of the search that
the orderly test keeps, and interchange near-rings and constant-lambda
ditrusses from one pair of endomorphisms.  The library holds the
representatives only; a listing is the keys of the admissible pairs, or
the union of the representatives' orbits for skew and weak trusses.

The references here are the routes this replaced.  _classify sorts the
structure_bytes() keys of every structure once, takes the first unmarked
one as its class representative and marks its automorphic images.  Below
it, the plain loop it replaced in turn: the orbit minimum of every
structure, and a relabel of the first structure met in each new class.
All must give the same totals, class counts, representatives (in order)
and structure order.  The skew and weak search is held to the unrestricted
joint search with every leaf verified, then _classify, and its leaves to
the full search's leaves least in their orbit; the endomorphism pairs to
every admissible pair verified, then _classify, and their counts to
Burnside's lemma.
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
    automorphisms,
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
        for pull, push in pullbacks:
            j = position.get(bytes(pull(key)).translate(push))
            if j is None:
                raise TrussLabError(
                    f"{kind} classification on {G.name} is not closed under "
                    f"automorphisms: an image of {split_key(kind, G.order, key)} "
                    f"was not enumerated"
                )
            marked[j] = 1
    return ClassificationResult(G, kind, reps, len(keys), stats, listing=lambda: keys)


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
    leaf of the unrestricted joint search verified, then orbit marking.
    Its counters are the search's."""
    n, skew = G.order, kind == "skew-truss"
    search = {}
    keys = [
        verify_key(G, kind, bytes(sigma) + b"".join(map(bytes, circ if skew else dot)))
        for sigma, _digits, dot, circ in _joint_search(
            G, enumerate_endomorphisms(G), [range(n)] * n, skew, counters=search
        )
    ]
    stats = {"sigma_fixes_zero_count": sum(key[0] == 0 for key in keys)} if skew else {}
    result = _classify(G, kind, keys, stats)
    result.counters = search
    return result


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
    # the orderly test only cuts: each node it accepts or prunes is one the
    # full search accepts
    assert counters["nodes"] + counters["pruned"] <= expected.counters["nodes"]
    assert expected.counters["pruned"] == 0


LEAF_CASES = [(g, "skew-truss") for g in ("V4", "Z5", "S3")] + [
    (g, "weak-truss") for g in ("V4", "Z5")
]


@pytest.mark.parametrize("group, kind", LEAF_CASES, ids=[f"{g}-{k}" for g, k in LEAF_CASES])
def test_orderly_search_keeps_the_least_leaves(group, kind):
    # with every automorphism live from the root, the search yields, in
    # order, exactly the full search's leaves that no automorphism makes
    # smaller in coordinate order: h moves (sigma(q), d_q) at q to
    # (h sigma(q), the digit of h lam_q h^-1) at h(q)
    G = builtin_group(group)
    n, skew = G.order, kind == "skew-truss"
    endos = enumerate_endomorphisms(G)
    images = [e.images for e in endos]
    digit = {f: d for d, f in enumerate(images)}
    actions = []
    for aut in automorphisms(G)[1:]:
        h = aut.images
        hinv = [h.index(a) for a in range(n)]
        conj = [digit[tuple(h[f[hinv[x]]] for x in range(n))] for f in images]
        actions.append((h, hinv, conj))

    def least(sigma, digits):
        coordinates = list(zip(sigma, digits))
        for h, hinv, conj in actions:
            image = [(h[sigma[hinv[p]]], conj[digits[hinv[p]]]) for p in range(n)]
            if image < coordinates:
                return False
        return True

    domains = [range(n)] * n
    full = [leaf[:2] for leaf in _joint_search(G, endos, domains, skew)]
    kept = [leaf[:2] for leaf in _joint_search(G, endos, domains, skew, actions)]
    assert kept == [leaf for leaf in full if least(*leaf)]
    assert len(kept) == ENUMERATORS[kind](G, cap=6).iso_class_count < len(full)


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


def admissible(G, kind, flag, e, f):
    """Whether the endomorphism pair (e, f) gives a structure of kind, with
    the kind's optional filter when flag."""
    if kind == "interchange-nr":
        return image_commuting(G, e, f) and (
            not flag or is_idempotent_map(e) and is_idempotent_map(f) and compose_commute(e, f)
        )
    return (
        is_idempotent_map(e) and is_idempotent_map(f) and compose_commute(e, f)
        and (not flag or image_commuting(G, e, f))
    )


PAIR_RUNS = [
    (enumerate_interchange, {"associative_only": flag}) for flag in (False, True)
] + [(enumerate_constant_lambda_ditrusses, {"image_commuting_only": flag}) for flag in (False, True)]
PAIR_RUN_IDS = ["interchange", "interchange-associative", "ditruss", "ditruss-image-commuting"]


@pytest.mark.parametrize("enumerate_kind, kwargs", PAIR_RUNS, ids=PAIR_RUN_IDS)
def test_pair_counts_satisfy_burnside(enumerate_kind, kwargs):
    # sum over h in Aut(G) of the admissible pairs h fixes is |Aut G| times
    # the class count (Cauchy-Frobenius-Burnside); the identity's term is
    # the total
    (flag,) = kwargs.values()
    for name in builtin_names():
        G = builtin_group(name)
        result = enumerate_kind(G, **kwargs)
        endos = [e.images for e in enumerate_endomorphisms(G)]
        pairs = [(e, f) for e in endos for f in endos if admissible(G, result.kind, flag, e, f)]
        auts = [h.images for h in automorphisms(G)]
        fixed = []
        for h in auts:
            commuting = {e for e in endos if all(h[e[x]] == e[h[x]] for x in G.elements)}
            fixed.append(sum(e in commuting and f in commuting for e, f in pairs))
        assert fixed[0] == len(pairs) == result.total_count, name
        assert sum(fixed) == len(auts) * result.iso_class_count, name


@pytest.mark.parametrize("enumerate_kind, kwargs", PAIR_RUNS, ids=PAIR_RUN_IDS)
def test_pair_route_builds_no_orbit_images(monkeypatch, enumerate_kind, kwargs):
    # the least pair's key is the least key of its class, and a listing is
    # the keys of the admissible pairs, so the pair route needs neither the
    # orbit minimum nor the table of key pullbacks, to classify or to list
    expected = {}
    for name in builtin_names():
        result = enumerate_kind(builtin_group(name), **kwargs)
        expected[name] = (result.representative_keys, result.total_count, result.keys)

    def refuse(*args):
        raise AssertionError("the pair route built an image of a key")

    for name in ("_pullbacks", "_images", "_representative"):
        monkeypatch.setattr(enumeration, name, refuse)
    for name in builtin_names():
        result = enumerate_kind(builtin_group(name), **kwargs)
        assert (result.representative_keys, result.total_count, result.keys) == expected[name]


@pytest.mark.parametrize("group, kind", PAIR_CASES, ids=[f"{g}-{k}" for g, k in PAIR_CASES])
def test_pairs_are_listed_in_key_order(monkeypatch, group, kind):
    # the first pair met of an orbit has the least key of its class only if
    # the keys of the pairs increase in the order the pairs are listed
    listed = []
    classify_pairs = enumeration._classify_pairs

    def spy(G, kind, endos, pairs, key_of):
        listed.append([key_of(endos[e], endos[f]) for e, f in pairs()])
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


# trusslab.cli.main, then the VmHWM line of /proc/self/status on stderr:
# the child's own peak, where the ru_maxrss of os.wait4 would report at
# least the caller's, carried into the child across exec
_REPORTS_ITS_PEAK = (
    "import sys\n"
    "from trusslab.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "with open('/proc/self/status') as status:\n"
    "    sys.stderr.writelines(line for line in status if line.startswith('VmHWM:'))\n"
    "sys.exit(code)\n"
)


def _run_cli(tmp_path, *argv):
    """stdout and the peak resident KiB of `trusslab <argv>`, run to exit 0
    in a subprocess that reports its own peak."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    with open(tmp_path / "out", "wb") as out:
        proc = subprocess.run(
            [sys.executable, "-c", _REPORTS_ITS_PEAK, *argv],
            env=env, stdout=out, stderr=subprocess.PIPE, text=True,
        )
    assert proc.returncode == 0, proc.stderr
    (peak,) = [line.split()[1] for line in proc.stderr.splitlines() if line.startswith("VmHWM:")]
    return (tmp_path / "out").read_bytes(), int(peak)


def _inline_z2_fourth_ditrusses(tmp_path, *options):
    """stdout and peak resident KiB of `enumerate --kind ditruss` on the
    inline Z2^4, run in a subprocess."""
    doc = {"name": "Z2xZ2xZ2xZ2", "order": 16, "table": _product(2, 2, 2, 2)}
    path = tmp_path / "z2-fourth.json"
    path.write_text(json.dumps(doc))
    return _run_cli(tmp_path, "enumerate", "--group", str(path), "--kind", "ditruss", *options)


@pytest.mark.slow
def test_inline_z2_fourth_ditruss_in_bounded_memory(tmp_path):
    # 20,160 automorphisms: a table of key pullbacks per automorphism would
    # take ~300 MiB here, and the pair route builds none
    out, peak = _inline_z2_fourth_ditrusses(tmp_path, "--up-to-iso")
    assert hashlib.sha256(out).hexdigest() == (
        "a5cb612236dce3d1d1e3d6616310ff5c143b3033c5c80c965aeb6412c84d0e30"
    )
    payload = json.loads(out)
    assert (payload["total_count"], payload["iso_class_count"]) == (65284, 35)
    assert peak < 100 * 1024  # KiB


@pytest.mark.slow
def test_inline_z2_fourth_ditruss_listing_in_bounded_memory(tmp_path):
    # the listing is the keys of the 65,284 admissible pairs; walking the
    # representatives' orbits through the key pullbacks would take ~335 MiB
    out, peak = _inline_z2_fourth_ditrusses(tmp_path)
    assert hashlib.sha256(out).hexdigest() == (
        "3fa2f00cfd6c6bc32c1a858086ab80c967e7aee22aeaad637890552900932cd6"
    )
    assert peak < 100 * 1024  # KiB


ORDER_EIGHT_SKEW = [
    ("Z8", 152848, 39342, "fe12484d98d9cec083863bd175180cd3e021c468489cde4a71ee175c0fb294eb"),
    ("Q8", 221856, 10285, "17df70f7d8723956af13f9f5af4ca7390c2de4bd3039b196d4db9c9b911cdd64"),
    ("D4", 495664, 65923, "8b4002726944ab559ed46d905c7a47b52e5c4af0a8964471cdafe708f5322dee"),
]


@pytest.mark.slow
@pytest.mark.parametrize(
    "name, total, classes, digest", ORDER_EIGHT_SKEW, ids=[case[0] for case in ORDER_EIGHT_SKEW]
)
def test_order_eight_skew_truss_classification(tmp_path, name, total, classes, digest):
    # the counts equal a Burnside's-lemma count, (1/|Aut G|) sum_h Fix(h),
    # made apart from this search (ROADMAP, Baselines)
    out, peak = _run_cli(
        tmp_path, "enumerate", "--group", name, "--kind", "skew-truss", "--cap", "8", "--up-to-iso"
    )
    assert hashlib.sha256(out).hexdigest() == digest
    payload = json.loads(out)
    assert (payload["total_count"], payload["iso_class_count"]) == (total, classes)
    assert peak < 60 * 1024  # KiB


@pytest.mark.parametrize(
    "name, digest",
    [pytest.param("S3", "5356888e0db5bb1ddfcda524cb3e44ee4034ca035e947e1f7c91783f872d3638", id="S3"),
     pytest.param("Z6", "bd5ff2169dcdaa38d824d6522b00ac17b7c085d23b5fcb9fbfb73ff12130bee9", id="Z6",
                  marks=pytest.mark.slow)],
)
def test_order_six_weak_truss_stdout(tmp_path, name, digest):
    # every byte of the 57,309 (S3) and 124,036 (Z6) weak-truss classes
    out, _ = _run_cli(
        tmp_path, "enumerate", "--group", name, "--kind", "weak-truss", "--cap", "6", "--up-to-iso"
    )
    assert hashlib.sha256(out).hexdigest() == digest


@pytest.mark.slow
@pytest.mark.parametrize(
    "doc, total, classes",
    [({"name": "Z4xZ2", "order": 8, "table": _product(4, 2)}, 328276, 45616),
     (Z2_CUBED, 2975076, 20487)],
    ids=["Z4xZ2", "Z2xZ2xZ2"],
)
def test_inline_order_eight_skew_truss_counts(doc, total, classes):
    # the two abelian groups of order 8 outside the catalog; the counts
    # equal a Burnside's-lemma count made apart from this search
    result = enumerate_skew_trusses(group_from_json(doc), cap=8)
    assert (result.total_count, result.iso_class_count) == (total, classes)


@pytest.mark.parametrize(
    "name, total, classes", [("Z6", 246900, 124036), ("S3", 339654, 57309)],
    ids=["Z6-weak", "S3-weak"],
)
def test_order_six_weak_truss_classification(name, total, classes):
    # the totals pinned on the full search, counted by orbit-stabilizer
    result = enumerate_weak_trusses(builtin_group(name), cap=6)
    assert (result.total_count, result.iso_class_count) == (total, classes)


def test_listing_checks_the_orbit_count():
    # a listing (the union of the representatives' orbits on V4, the keys of
    # the admissible pairs on D4) is counted apart from the orbit-stabilizer
    # total; a total that disagrees with it raises instead of listing
    for group, kind, total in (("V4", "skew-truss", 618), ("D4", "interchange-nr", 560)):
        result = ENUMERATORS[kind](builtin_group(group))
        result.total_count -= 1
        with pytest.raises(
            TrussLabError, match=f"listing on {group} holds {total} structures, not {total - 1}"
        ):
            result.keys
