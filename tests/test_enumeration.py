import functools
import itertools
import random

import pytest

from trusslab import (
    are_isomorphic,
    builtin_group,
    canonical_form,
    enumerate_constant_lambda_ditrusses,
    enumerate_endomorphisms,
    enumerate_interchange,
    enumerate_skew_trusses,
    enumerate_weak_trusses,
    enumeration,
    image_commuting,
    is_idempotent_map,
    lambda_family,
    make_projection_ops,
    make_skew_truss,
    relabel_structure,
    skew_truss_consequence_report,
    truss_to_weak,
    validate_group,
    verify,
)
from trusslab.enumeration import (
    _joint_search,
    raw_constant_lambda_ditruss_search,
    raw_interchange_search,
    raw_skew_truss_search,
    raw_weak_truss_search,
)
from trusslab.errors import CarrierTooLarge, GroupMismatch, InputError


# ---------------------------------------------------------------------------
# oracle agreement: the central anti-bug check

@pytest.mark.parametrize("name", ["Z1", "Z2", "Z3"])
def test_skew_truss_search_matches_oracle(name):
    G = builtin_group(name)
    result = enumerate_skew_trusses(G)
    oracle = raw_skew_truss_search(G)
    assert result.total_count == oracle.count
    assert tuple(sorted(o.structure_key() for o in result.structures)) == oracle.keys


@pytest.mark.parametrize("name", ["Z1", "Z2", "Z3"])
def test_weak_truss_search_matches_oracle(name):
    G = builtin_group(name)
    result = enumerate_weak_trusses(G)
    oracle = raw_weak_truss_search(G)
    assert result.total_count == oracle.count
    assert tuple(sorted(o.structure_key() for o in result.structures)) == oracle.keys


@pytest.mark.parametrize("name", ["Z1", "Z2", "Z3"])
@pytest.mark.parametrize("assoc", [False, True])
def test_interchange_search_matches_oracle(name, assoc):
    G = builtin_group(name)
    result = enumerate_interchange(G, associative_only=assoc)
    oracle = raw_interchange_search(G, associative_only=assoc)
    assert result.total_count == oracle.count
    assert tuple(sorted(o.structure_key() for o in result.structures)) == oracle.keys


@pytest.mark.parametrize("name", ["Z1", "Z2", "Z3"])
@pytest.mark.parametrize("imcomm", [False, True])
def test_constant_lambda_search_matches_oracle(name, imcomm):
    G = builtin_group(name)
    result = enumerate_constant_lambda_ditrusses(G, image_commuting_only=imcomm)
    oracle = raw_constant_lambda_ditruss_search(G, image_commuting_only=imcomm)
    assert result.total_count == oracle.count
    assert tuple(sorted(o.structure_key() for o in result.structures)) == oracle.keys


@functools.lru_cache(maxsize=None)
def _skew_trusses(name):
    """The full skew-truss classification on a built-in group of order <= 7,
    computed once per session."""
    return enumerate_skew_trusses(builtin_group(name), cap=7)


@pytest.mark.parametrize(
    "name, total, classes", [("Z6", 4249, 2211), ("S3", 6178, 1150)]
)
def test_order_six_skew_truss_counts(name, total, classes):
    result = _skew_trusses(name)
    assert (result.total_count, result.iso_class_count) == (total, classes)


def test_z7_skew_truss_counts():
    result = _skew_trusses("Z7")
    assert (result.total_count, result.iso_class_count) == (20449, 3440)


# total/classes per catalog group of the classifications built from pairs of
# endomorphisms: interchange near-rings (all, associative) and constant-lambda
# ditrusses (all, image-commuting)
ENDOMORPHISM_PAIR_COUNTS = {
    "Z1": ((1, 1), (1, 1), (1, 1), (1, 1)),
    "Z2": ((4, 4), (4, 4), (4, 4), (4, 4)),
    "Z3": ((9, 9), (4, 4), (4, 4), (4, 4)),
    "Z4": ((16, 16), (4, 4), (4, 4), (4, 4)),
    "V4": ((256, 56), (40, 10), (40, 10), (40, 10)),
    "Z5": ((25, 25), (4, 4), (4, 4), (4, 4)),
    "Z6": ((36, 36), (16, 16), (16, 16), (16, 16)),
    "S3": ((22, 10), (12, 6), (19, 9), (12, 6)),
    "Z7": ((49, 49), (4, 4), (4, 4), (4, 4)),
    "Z8": ((64, 64), (4, 4), (4, 4), (4, 4)),
    "D4": ((560, 162), (27, 9), (52, 15), (27, 9)),
    "Q8": ((208, 31), (3, 3), (4, 4), (3, 3)),
}


@pytest.mark.parametrize("name", sorted(ENDOMORPHISM_PAIR_COUNTS))
def test_endomorphism_pair_classification_counts(name):
    G = builtin_group(name)
    results = (
        enumerate_interchange(G),
        enumerate_interchange(G, associative_only=True),
        enumerate_constant_lambda_ditrusses(G),
        enumerate_constant_lambda_ditrusses(G, image_commuting_only=True),
    )
    counts = tuple((r.total_count, r.iso_class_count) for r in results)
    assert counts == ENDOMORPHISM_PAIR_COUNTS[name]


# Skew braces are the skew-truss classes with sigma = id and (T, o) a group,
# that is, every row and column of circ a permutation.  Guarnieri and
# Vendramin, "Skew braces and the Yang-Baxter equation", Math. Comp. 86
# (2017), count them by order: 1, 1, 4, 1, 6, 1 for orders 2 to 7.
SKEW_BRACES = {"Z2": 1, "Z3": 1, "Z4": 2, "V4": 2, "Z5": 1, "Z6": 2, "S3": 4, "Z7": 1}


def _is_skew_brace(obj):
    n = obj.order
    table = obj.circ.table
    return obj.sigma == tuple(range(n)) and all(
        len(set(line)) == n for line in itertools.chain(table, zip(*table))
    )


def test_skew_brace_counts_match_guarnieri_vendramin():
    by_order = [0] * 8
    for name, expected in SKEW_BRACES.items():
        result = _skew_trusses(name)
        braces = sum(map(_is_skew_brace, result.representatives))
        assert braces == expected, name
        by_order[result.group.order] += braces
    assert by_order[2:] == [1, 1, 4, 1, 6, 1]


@pytest.mark.parametrize(
    "name, total", [("Z6", 246900), ("S3", 339654)], ids=["Z6-weak", "S3-weak"]
)
def test_order_six_search_totals(name, total):
    # weak trusses through the search alone: no object is built or verified
    G = builtin_group(name)
    hits = _joint_search(G, enumerate_endomorphisms(G), [range(G.order)] * G.order, False)
    assert sum(1 for _ in hits) == total


# ---------------------------------------------------------------------------
# the joint search against a scalar filter over the whole lambda space

def _reference_lambda_filter(G, sigma, skew):
    """Every lambda assignment in End(G)^n, in lexicographic order of endo
    indices, that satisfies (ii) lam_{a o b} = lam_a lam_b, and also
    (i) sigma(a o b) = sigma(a) + lam_a(sigma(b)) when skew, where
    a o b = sigma(a) + lam_a(b).  Scalar loops, no pruning."""
    n = G.order
    add = G.table
    endos = [e.images for e in enumerate_endomorphisms(G)]
    out = []
    for digits in itertools.product(range(len(endos)), repeat=n):
        lam = [endos[d] for d in digits]

        def circ(a, b):
            return add[sigma[a]][lam[a][b]]

        if skew and not all(
            sigma[circ(a, b)] == add[sigma[a]][lam[a][sigma[b]]]
            for a in range(n)
            for b in range(n)
        ):
            continue
        if all(
            lam[circ(a, b)][x] == lam[a][lam[b][x]]
            for a in range(n)
            for b in range(n)
            for x in range(n)
        ):
            rows = tuple(tuple(circ(a, b) for b in range(n)) for a in range(n))
            out.append((sigma, digits, tuple(lam), rows))
    return out


@pytest.mark.parametrize("skew", [True, False], ids=["skew", "weak"])
@pytest.mark.parametrize("name, sample", [("Z4", 32), ("V4", 4), ("Z5", 40)])
def test_lambda_search_matches_reference_filter(name, sample, skew):
    G = builtin_group(name)
    self_maps = list(itertools.product(range(G.order), repeat=G.order))
    sigmas = random.Random(2025).sample(self_maps, sample)
    expected = [
        hit for sigma in sigmas for hit in _reference_lambda_filter(G, sigma, skew)
    ]
    assert expected  # the sample reaches some structures
    endos = enumerate_endomorphisms(G)
    # each sampled sigma as one-value domains
    assert [
        hit
        for sigma in sigmas
        for hit in _joint_search(G, endos, [(s,) for s in sigma], skew)
    ] == expected


def test_fixed_small_counts():
    assert enumerate_skew_trusses(builtin_group("Z1")).total_count == 1
    assert enumerate_interchange(builtin_group("Z2")).total_count == 4
    assert enumerate_interchange(builtin_group("Z1")).total_count == 1
    # raw 16-table count on Z2, frozen
    assert raw_interchange_search(builtin_group("Z2")).count == 4


def test_interchange_s3_excludes_identity_pairs(S3):
    ident = tuple(range(6))
    keys = {
        (tuple(o.circ.table[a][0] for a in range(6)), tuple(o.circ.table[0]))
        for o in enumerate_interchange(S3).structures
    }
    assert (ident, ident) not in keys  # Z(S3) = {0} rules it out
    assert ((0,) * 6, ident) in keys  # zero map image-commutes with anything


def test_klein_idempotent_pairs():
    V4 = builtin_group("V4")
    idem = [e for e in enumerate_endomorphisms(V4) if is_idempotent_map(e)]
    assert len(idem) == 8
    result = enumerate_constant_lambda_ditrusses(V4)
    from trusslab.groups import compose_commute

    expected = sum(
        1 for s, t in itertools.product(idem, repeat=2) if compose_commute(s, t)
    )
    assert result.total_count == expected


def test_every_emitted_object_verifies():
    for name in ("Z2", "Z3", "Z4", "V4"):
        G = builtin_group(name)
        for result in (
            enumerate_skew_trusses(G),
            enumerate_weak_trusses(G),
            enumerate_interchange(G),
            enumerate_constant_lambda_ditrusses(G),
        ):
            assert all(o.verified for o in result.structures)
            assert all(o.verified for o in result.representatives)
            assert result.total_count == len(result.structures)


@pytest.mark.parametrize("name", ["V4", "Z4"])
def test_every_emitted_structure_checked_once(name, monkeypatch):
    # one law check per structure, and none for the objects built
    # afterwards: every kind checks its representatives while it classifies
    # and every other structure when the full list is first asked for.
    # verify_key checks sigma on the key's bytes and builds no object, so
    # check_map, which make_algebra runs on every sigma it is given, is
    # never called
    import trusslab.ops
    import trusslab.structures

    calls = {"laws": 0, "check_map": 0}

    def counting(counter, fn):
        def wrapped(*args, **kwargs):
            calls[counter] += 1
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(
        trusslab.structures, "_law_reports", counting("laws", trusslab.structures._law_reports)
    )
    check_map = counting("check_map", trusslab.ops.check_map)
    for module in (trusslab.ops, trusslab.structures):
        monkeypatch.setattr(module, "check_map", check_map)
    G = builtin_group(name)
    for enumerate_kind in (
        enumerate_skew_trusses,
        enumerate_weak_trusses,
        enumerate_constant_lambda_ditrusses,
        enumerate_interchange,
    ):
        calls.update(laws=0, check_map=0)
        result = enumerate_kind(G)
        classes = result.iso_class_count
        assert calls == {"laws": classes, "check_map": 0}
        assert all(o.verified for o in result.structures)
        assert calls == {"laws": result.total_count, "check_map": 0}


def test_skew_consequences_on_everything_emitted(Z4):
    for obj in enumerate_skew_trusses(Z4).structures:
        report = skew_truss_consequence_report(obj)
        by_name = {c.name: c for c in report.claims}
        assert by_name["lambda-maps-are-endomorphisms"].holds
        assert by_name["circ-by-zero-recovers-sigma"].holds
        if obj.sigma[0] == 0:
            assert report.ok


def test_sigma_fixes_zero_stat(Z3):
    result = enumerate_skew_trusses(builtin_group("Z3"))
    manual = sum(1 for o in result.structures if o.sigma[0] == 0)
    assert result.search_stats["sigma_fixes_zero_count"] == manual
    assert manual < result.total_count  # shifted operations exist


def test_counts_invariant_under_carrier_relabeling():
    # a permutation fixing 0 that is not an automorphism produces a different
    # but isomorphic Cayley table; every classification count must agree
    Z4 = builtin_group("Z4")
    perm = (0, 2, 1, 3)
    inv = [perm.index(x) for x in range(4)]
    table = [[perm[Z4.table[inv[a]][inv[b]]] for b in range(4)] for a in range(4)]
    H = validate_group(table, name="Z4-relabeled")
    assert H.table != Z4.table
    assert enumerate_skew_trusses(H).total_count == enumerate_skew_trusses(Z4).total_count
    assert (
        enumerate_skew_trusses(H).iso_class_count
        == enumerate_skew_trusses(Z4).iso_class_count
    )
    assert enumerate_interchange(H).total_count == enumerate_interchange(Z4).total_count
    assert (
        enumerate_weak_trusses(H).total_count
        == enumerate_weak_trusses(Z4).total_count
    )


# ---------------------------------------------------------------------------
# canonical forms and isomorphism

def test_canonical_form_idempotent(Z4, V4):
    for G in (Z4, V4):
        for obj in enumerate_skew_trusses(G).structures[:50]:
            c1 = canonical_form(obj)
            c2 = canonical_form(c1)
            assert c1.structure_key() == c2.structure_key()


def test_relabeled_objects_are_isomorphic(V4):
    from trusslab.groups import automorphisms

    objs = enumerate_skew_trusses(V4).structures[:20]
    auts = automorphisms(V4)
    for obj in objs:
        for aut in auts:
            assert are_isomorphic(obj, relabel_structure(obj, aut.images))


def test_skew_ring_not_isomorphic_to_near_ring(Z2):
    pi1, pi2 = make_projection_ops(Z2)
    A = verify(make_skew_truss(Z2, pi1, (0, 1)))
    B = verify(make_skew_truss(Z2, pi2, (0, 0)))
    assert not are_isomorphic(A, B)


def test_isomorphism_requires_same_group(Z2, Z4):
    pi2a = make_projection_ops(Z2)[1]
    pi2b = make_projection_ops(Z4)[1]
    A = verify(make_skew_truss(Z2, pi2a, (0, 0)))
    B = verify(make_skew_truss(Z4, pi2b, (0, 0, 0, 0)))
    with pytest.raises(GroupMismatch):
        are_isomorphic(A, B)


def test_isomorphism_requires_same_kind(Z2):
    from trusslab import make_interchange, make_zero_op

    A = verify(make_skew_truss(Z2, make_zero_op(Z2), (0, 0)))
    B = verify(make_interchange(Z2, make_zero_op(Z2)))
    with pytest.raises(InputError):
        are_isomorphic(A, B)


def test_iso_classes_partition_structures(Z3):
    result = enumerate_skew_trusses(builtin_group("Z3"))
    from trusslab.enumeration import canonical_key

    keys = {canonical_key(o) for o in result.structures}
    rep_keys = {canonical_key(o) for o in result.representatives}
    assert keys == rep_keys
    assert len(rep_keys) == result.iso_class_count
    # representatives pairwise non-isomorphic
    reps = result.representatives
    for i, a in enumerate(reps):
        for b in reps[i + 1:]:
            assert not are_isomorphic(a, b)


# ---------------------------------------------------------------------------
# the skew/weak correspondence boundary

def test_weak_truss_transport(Z4, V4):
    # the skew -> weak transport is injective, and its image is exactly the
    # set of weak trusses satisfying the slide identity sigma(a.b) = a.sigma(b)
    for G in (Z4, V4):
        skew = [
            o
            for o in enumerate_skew_trusses(G).structures
            if o.sigma_flags().endomorphism and o.sigma_flags().idempotent
        ]
        transported = {truss_to_weak(o)[0].structure_key() for o in skew}
        assert len(transported) == len(skew)
        sliding = {
            w.structure_key()
            for w in enumerate_weak_trusses(G).structures
            if w.sigma_flags().endomorphism
            and w.sigma_flags().idempotent
            and all(
                w.sigma[w.dot.table[a][b]] == w.dot.table[a][w.sigma[b]]
                for a in G.elements
                for b in G.elements
            )
        }
        assert transported == sliding


# ---------------------------------------------------------------------------
# skew trusses with constant lambda against associative interchange
# near-rings: the general search assumes neither constant lambda nor
# idempotency, so only the filter below selects the family

def _in_constant_lambda_family(G, obj):
    """lambda is constant, and sigma and lam_0 are image-commuting
    idempotent endomorphisms."""
    flags = obj.sigma_flags()
    if not (flags.endomorphism and flags.idempotent):
        return False
    lam = lambda_family(obj)
    lam0 = lam.maps[0]
    return (
        lam.constant
        and lam0.is_endomorphism
        and is_idempotent_map(lam0)
        and image_commuting(G, obj.sigma, lam0)
    )


@pytest.mark.parametrize("name", ["Z2", "Z3", "Z4", "Z5", "V4", "Z6", "S3"])
def test_constant_lambda_skew_trusses_are_associative_interchange(name):
    G = builtin_group(name)
    skew = _skew_trusses(name)
    family = [o for o in skew.structures if _in_constant_lambda_family(G, o)]
    interchange = enumerate_interchange(G, associative_only=True)
    assert family
    assert sorted(o.circ.table for o in family) == sorted(
        o.circ.table for o in interchange.structures
    )
    # the family is closed under automorphisms, so its classes are the
    # skew-truss classes whose representative lies in it
    classes = sum(1 for o in skew.representatives if _in_constant_lambda_family(G, o))
    assert classes == interchange.iso_class_count


# ---------------------------------------------------------------------------
# caps and guards

def test_order_cap_and_guard():
    S3 = builtin_group("S3")
    with pytest.raises(CarrierTooLarge):
        enumerate_skew_trusses(S3)  # order 6: over the default order cap 5
    Z5 = builtin_group("Z5")
    result = enumerate_skew_trusses(Z5)  # order 5 runs at the default cap
    assert result.total_count > 0


def _refuse_endomorphism_search(G):
    raise AssertionError(f"the endomorphisms of {G.name} were searched")


@pytest.mark.parametrize(
    "name, cap",
    list(itertools.product(("Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "V4", "S3"), (1, 4, 5, 6)))
    + [("Z7", 6), ("Z8", 6)],
)
def test_skew_search_runs_iff_order_within_cap(monkeypatch, name, cap):
    # one rule, n <= max(cap, 5); a refusal comes before any endomorphism
    # is searched
    G = builtin_group(name)
    limit = max(cap, 5)
    if G.order <= limit:
        assert enumerate_skew_trusses(G, cap=cap).total_count > 0
        return
    monkeypatch.setattr(enumeration, "enumerate_endomorphisms", _refuse_endomorphism_search)
    refusal = f"order {G.order}, over the order cap {limit}; --cap"
    with pytest.raises(CarrierTooLarge, match=refusal):
        enumerate_skew_trusses(G, cap=cap)


@pytest.mark.parametrize(
    "enumerator",
    [enumerate_skew_trusses, enumerate_weak_trusses, enumerate_interchange],
    ids=["skew-truss", "weak-truss", "interchange"],
)
def test_every_kind_bounds_endomorphism_pairs(monkeypatch, enumerator):
    # V4 has 16 endomorphisms, so 256 pairs; Z4 has 4
    monkeypatch.setattr(enumeration, "CANDIDATE_BUDGET", 255)
    with pytest.raises(CarrierTooLarge, match="needs 256 endomorphism pairs, over the budget 255"):
        enumerator(builtin_group("V4"))
    assert enumerator(builtin_group("Z4")).total_count > 0


@pytest.mark.parametrize(
    "oracle",
    [
        raw_skew_truss_search,
        raw_weak_truss_search,
        raw_interchange_search,
        raw_constant_lambda_ditruss_search,
    ],
    ids=["skew-truss", "weak-truss", "interchange", "ditruss"],
)
def test_oracles_reject_large_carriers(oracle):
    with pytest.raises(CarrierTooLarge):
        oracle(builtin_group("Z4"))


def test_enumeration_deterministic(Z3):
    G = builtin_group("Z3")
    a = enumerate_skew_trusses(G)
    b = enumerate_skew_trusses(G)
    assert [o.structure_key() for o in a.structures] == [
        o.structure_key() for o in b.structures
    ]
    assert [o.structure_key() for o in a.representatives] == [
        o.structure_key() for o in b.representatives
    ]
