import hashlib
import itertools
import json

import pytest

from trusslab import (
    automorphisms,
    builtin_group,
    center,
    compose_commute,
    decomposition_from_idempotent,
    enumerate_endomorphisms,
    group_from_json,
    image_commuting,
    is_idempotent_map,
    normal_subgroups,
    validate_group,
)
from trusslab.catalog import builtin_names, groups_of_order_at_most
from trusslab.errors import (
    CarrierTooLarge,
    NoIdentityAtZero,
    NotAssociative,
    NotEndomorphism,
    NotIdempotent,
    NotLatinSquare,
)
from trusslab.groups import (
    ENDOMORPHISM_CANDIDATE_CAP,
    EndoMap,
    compose_maps,
    image_commuting_masks,
    is_abelian,
    is_endomorphism_images,
    subgroups,
)

from conftest import NONASSOCIATIVE_LOOP


def test_validate_z2():
    G = validate_group([[0, 1], [1, 0]], name="Z2")
    assert G.order == 2
    assert G.inverse == (0, 1)


def test_validate_rejects_repeated_entry():
    with pytest.raises(NotLatinSquare) as exc:
        validate_group([[0, 1], [1, 1]])
    assert exc.value.witness == ("row", 1)


def test_validate_rejects_nonassociative_loop():
    with pytest.raises(NotAssociative) as exc:
        validate_group(NONASSOCIATIVE_LOOP)
    a, b, c = exc.value.witness
    t = NONASSOCIATIVE_LOOP
    assert t[t[a][b]][c] != t[a][t[b][c]]


def test_validate_requires_identity_at_zero():
    # swap the roles of 0 and 1 in Z2: identity is 1
    with pytest.raises(NoIdentityAtZero):
        validate_group([[1, 0], [0, 1]])


def test_s3_from_permutation_composition_oracle():
    # independent construction: compose permutations directly
    perms = sorted(itertools.permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}
    table = [
        [idx[tuple(p[q[k]] for k in range(3))] for q in perms] for p in perms
    ]
    G = validate_group(table, name="S3-oracle")
    assert G.order == 6
    assert not is_abelian(G)
    assert G.table == builtin_group("S3").table


def test_group_from_json_relabels_identity():
    G = group_from_json({"name": "shifted", "order": 2, "table": [[1, 0], [0, 1]]})
    assert G.table == ((0, 1), (1, 0))


def test_group_from_json_rejects_wrong_order():
    from trusslab.errors import InputError

    with pytest.raises(InputError):
        group_from_json({"order": 3, "table": [[0, 1], [1, 0]]})


def test_builtin_catalog():
    assert builtin_names() == ["D4", "Q8", "S3", "V4", "Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z8"]
    assert builtin_group("klein4").name == "V4"
    for name in builtin_names():
        G = builtin_group(name)
        assert G.table == validate_group(G.table).table


def test_catalog_tables_digest():
    # one pin over every catalog table, in name order: the stdout pins and
    # the fixtures depend on where each element sits
    tables = json.dumps([[name, builtin_group(name).table] for name in builtin_names()])
    digest = hashlib.sha256(tables.encode()).hexdigest()
    assert digest == "7894edf62a6690ceb7e509f857a23bbb8f9b5415fcd957349474fcc12fef80c0"


# ---------------------------------------------------------------------------
# endomorphisms

def test_endomorphisms_z2(Z2):
    assert [e.images for e in enumerate_endomorphisms(Z2)] == [(0, 0), (0, 1)]


def test_endomorphisms_z4_are_multiplications(Z4):
    endos = enumerate_endomorphisms(Z4)
    expected = sorted(tuple(m * a % 4 for a in range(4)) for m in range(4))
    assert [e.images for e in endos] == expected


def test_endomorphisms_s3_against_raw_scan(S3):
    endos = enumerate_endomorphisms(S3)
    assert len(endos) == 10
    # independent oracle: scan all maps fixing 0
    raw = []
    for images in itertools.product(range(6), repeat=5):
        f = (0,) + images
        if is_endomorphism_images(S3, f):
            raw.append(f)
    assert sorted(raw) == [e.images for e in endos]


def test_endomorphisms_reverified_posthoc():
    for G in groups_of_order_at_most(8):
        for e in enumerate_endomorphisms(G):
            assert is_endomorphism_images(G, e.images)


def test_is_idempotent_map(Z2, Z4):
    assert is_idempotent_map(tuple(range(4)))
    assert not is_idempotent_map((1, 0))
    # multiply-by-2 on Z4: 2*2 = 0 != 2 at input 1
    assert not is_idempotent_map((0, 2, 0, 2))


def test_compose_commute(V4):
    proj_first = (0, 0, 2, 2)
    assert compose_commute(proj_first, proj_first)
    assert compose_commute((0, 0), (0, 1))
    # rank-1 idempotent fixing 3 and killing 1 vs projection-to-first
    fix_three = (0, 0, 3, 3)

    def commute_oracle(f, g):
        return all(f[g[a]] == g[f[a]] for a in range(4))

    assert compose_commute(proj_first, fix_three) == commute_oracle(proj_first, fix_three)
    assert not compose_commute(proj_first, fix_three)


def test_image_commuting(Z4, S3):
    for f in itertools.product(range(4), repeat=4):
        assert image_commuting(Z4, f, (0, 1, 2, 3))
    ident = tuple(range(6))
    assert not image_commuting(S3, ident, ident)
    assert image_commuting(S3, (0,) * 6, ident)


def test_decomposition_identity_and_zero(Z4):
    full = decomposition_from_idempotent(Z4, tuple(range(4)))
    assert full.image_part == (0, 1, 2, 3) and full.kernel_part == (0,)
    triv = decomposition_from_idempotent(Z4, (0, 0, 0, 0))
    assert triv.image_part == (0,) and triv.kernel_part == (0, 1, 2, 3)


def test_decomposition_s3_semidirect(S3):
    # endomorphism with image an order-2 subgroup and kernel A3
    proj = next(
        e
        for e in enumerate_endomorphisms(S3)
        if len(set(e.images)) == 2 and is_idempotent_map(e)
    )
    dec = decomposition_from_idempotent(S3, proj)
    assert len(dec.image_part) == 2
    assert dec.kernel_part == (0, 3, 4)
    assert dec.kind == "semidirect"
    # brute-force factorization check
    t = S3.table
    assert sorted(t[k][i] for k in dec.kernel_part for i in dec.image_part) == list(range(6))


def test_decomposition_rejects_bad_maps(Z4):
    with pytest.raises(NotEndomorphism):
        decomposition_from_idempotent(Z4, (0, 0, 1, 1))
    with pytest.raises(NotIdempotent):
        decomposition_from_idempotent(Z4, (0, 3, 2, 1))


# ---------------------------------------------------------------------------
# subgroups, center, automorphisms

def test_center(S3, Z4):
    assert center(S3) == (0,)
    assert center(Z4) == (0, 1, 2, 3)


def test_normal_subgroups_s3(S3):
    assert normal_subgroups(S3) == [(0,), (0, 3, 4), (0, 1, 2, 3, 4, 5)]


def test_subgroups_s3(S3):
    subs = subgroups(S3)
    assert [len(h) for h in subs] == [1, 2, 2, 2, 3, 6]


def test_subgroup_cap():
    Z13 = validate_group([[(a + b) % 13 for b in range(13)] for a in range(13)])
    with pytest.raises(CarrierTooLarge):
        subgroups(Z13)


def test_endomorphism_candidate_cap():
    # Z2^4 (16^4 candidate maps) and every catalog group are allowed; Z2^5
    # (32^5) is refused before any map is tried
    assert 16 ** 4 <= ENDOMORPHISM_CANDIDATE_CAP < 32 ** 5
    for name in builtin_names():
        enumerate_endomorphisms(builtin_group(name))
    Z2_5 = validate_group([[a ^ b for b in range(32)] for a in range(32)], name="Z2^5")
    with pytest.raises(CarrierTooLarge, match="33554432 candidate maps"):
        enumerate_endomorphisms(Z2_5)


def test_endomorphisms_searched_once_per_group(monkeypatch):
    G = validate_group([[(a + b) % 9 for b in range(9)] for a in range(9)], name="Z9")
    endos = enumerate_endomorphisms(G)
    endos.clear()  # a fresh list: the cached search is untouched
    monkeypatch.setattr("trusslab.groups._search_endomorphisms", None)
    assert len(enumerate_endomorphisms(G)) == 9
    assert len(automorphisms(G)) == 6


def test_carrier_bound_comes_before_the_entry_scan():
    # 257 rows of junk: the order alone refuses the table
    with pytest.raises(CarrierTooLarge):
        validate_group([["x"]] * 257)
    with pytest.raises(CarrierTooLarge):
        group_from_json({"table": [["x"]] * 257})


def test_image_commuting_masks_agree_with_image_commuting():
    for name in builtin_names():
        G = builtin_group(name)
        endos = enumerate_endomorphisms(G)
        images, centralizers = image_commuting_masks(G, endos)
        for f, centralizer in zip(endos, centralizers):
            for g, image in zip(endos, images):
                assert (image & ~centralizer == 0) == image_commuting(G, f, g), (name, f, g)


def test_automorphisms_structure():
    for G in groups_of_order_at_most(8):
        auts = automorphisms(G)
        endo_images = {e.images for e in enumerate_endomorphisms(G)}
        closed = {a.images for a in auts}
        assert closed <= endo_images
        # automorphisms form a group under composition
        assert tuple(G.elements) in closed
        for f in auts:
            inv = [0] * G.order
            for a, v in enumerate(f.images):
                inv[v] = a
            assert tuple(inv) in closed
            for g in auts:
                assert compose_maps(f, g) in closed


def test_automorphism_counts(V4, S3):
    assert len(automorphisms(V4)) == 6  # GL(2, F2)
    assert len(automorphisms(S3)) == 6
    assert len(automorphisms(builtin_group("Z8"))) == 4


def test_klein_idempotent_endomorphism_count_matrix_oracle(V4):
    # independent oracle: idempotent 2x2 matrices over F2 acting on (x, y) bits
    def mat_to_map(m):
        out = []
        for v in range(4):
            x, y = v >> 1, v & 1
            nx = (m[0][0] * x + m[0][1] * y) % 2
            ny = (m[1][0] * x + m[1][1] * y) % 2
            out.append(nx * 2 + ny)
        return tuple(out)

    mats = [
        ((a, b), (c, d))
        for a in (0, 1)
        for b in (0, 1)
        for c in (0, 1)
        for d in (0, 1)
    ]
    idem_maps = {
        mat_to_map(m)
        for m in mats
        if is_idempotent_map(mat_to_map(m))
    }
    assert len(idem_maps) == 8
    ours = {
        e.images
        for e in enumerate_endomorphisms(V4)
        if is_idempotent_map(e)
    }
    assert ours == idem_maps


def test_image_commuting_with_identity_iff_central_image():
    # for every idempotent endomorphism s on built-ins of order <= 8:
    # s image-commutes with the identity iff s(G) lies in the center,
    # and then the split is direct with abelian image part
    for G in groups_of_order_at_most(8):
        ident = tuple(G.elements)
        z = set(center(G))
        for e in enumerate_endomorphisms(G):
            if not is_idempotent_map(e):
                continue
            central = set(e.images) <= z
            assert image_commuting(G, e, ident) == central
            if central:
                dec = decomposition_from_idempotent(G, e)
                assert dec.kind == "direct"
                t = G.table
                assert all(
                    t[x][y] == t[y][x] for x in dec.image_part for y in dec.image_part
                )


def test_decomposition_unique_factorization_everywhere():
    for G in groups_of_order_at_most(8):
        for e in enumerate_endomorphisms(G):
            if not is_idempotent_map(e):
                continue
            dec = decomposition_from_idempotent(G, e)
            t = G.table
            hits = [t[k][i] for k in dec.kernel_part for i in dec.image_part]
            assert sorted(hits) == list(G.elements)


def test_endomap_call():
    e = EndoMap(images=(0, 1, 2, 3), is_endomorphism=True)
    assert e(2) == 2 and len(e) == 4


def test_idempotent_endos_biject_with_semidirect_splits():
    # pairs (subgroup B, normal N) with trivial intersection and |B||N| = |G|
    # correspond exactly to idempotent endomorphisms via (im e, ker e)
    from trusslab.groups import is_normal

    for G in groups_of_order_at_most(8):
        from_endos = set()
        for e in enumerate_endomorphisms(G):
            if is_idempotent_map(e):
                dec = decomposition_from_idempotent(G, e)
                from_endos.add((dec.image_part, dec.kernel_part))
        assert len(from_endos) == sum(
            1 for e in enumerate_endomorphisms(G) if is_idempotent_map(e)
        )
        splits = set()
        for B in subgroups(G):
            for N in normal_subgroups(G):
                if len(B) * len(N) == G.order and set(B) & set(N) == {0}:
                    splits.add((B, N))
        assert from_endos == splits


def test_self_image_commuting_iff_abelian_image():
    for G in groups_of_order_at_most(8):
        t = G.table
        for e in enumerate_endomorphisms(G):
            if not is_idempotent_map(e):
                continue
            img = sorted(set(e.images))
            abelian_image = all(t[x][y] == t[y][x] for x in img for y in img)
            assert image_commuting(G, e, e) == abelian_image


def test_endomorphism_certification(Z4):
    from trusslab.groups import endomorphism_of, identity_map, zero_map

    e = endomorphism_of(Z4, (0, 2, 0, 2))
    assert e.is_endomorphism
    with pytest.raises(NotEndomorphism):
        endomorphism_of(Z4, (0, 1, 1, 1))
    with pytest.raises(NotEndomorphism):
        endomorphism_of(Z4, (0, 1))  # wrong carrier size
    assert identity_map(Z4).images == (0, 1, 2, 3)
    assert zero_map(Z4).images == (0, 0, 0, 0)


def test_group_morphism_predicate(Z2, Z4):
    from trusslab.transforms import is_group_morphism

    assert is_group_morphism((0, 2), Z2, Z4)   # doubling embeds Z2 in Z4
    assert not is_group_morphism((0, 1), Z2, Z4)
