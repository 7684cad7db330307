import itertools

import pytest

from trusslab import (
    build_conjugation_ditruss,
    builtin_group,
    congruence_from_ideal,
    congruences,
    enumerate_endomorphisms,
    ideal_from_congruence,
    ideals,
    is_ideal,
    is_idempotent_map,
    is_zero_symmetric,
    make_ditruss,
    make_projection_ops,
    make_sigma_pi1,
    make_skew_truss,
    make_tau_pi2,
    normal_subgroups,
    op_add,
    quotient,
    validate_group,
    verify,
    zero_symmetric_constant_decomposition,
)
from trusslab.enumeration import enumerate_skew_trusses
from trusslab.errors import CarrierTooLarge, NotAnIdeal, SigmaDoesNotFixZero

def skew_ring(G):
    pi1, _ = make_projection_ops(G)
    return verify(make_skew_truss(G, pi1, tuple(G.elements)))


def near_ring(G):
    _, pi2 = make_projection_ops(G)
    return verify(make_skew_truss(G, pi2, (0,) * G.order))


# ---------------------------------------------------------------------------
# ideals

def test_trivial_and_full_ideals(Z4):
    T = near_ring(Z4)
    assert is_ideal(T, (0,)).holds
    assert is_ideal(T, (0, 1, 2, 3)).holds


def test_ideals_of_skew_ring_are_normal_subgroups(S3):
    T = skew_ring(S3)
    assert is_ideal(T, (0, 3, 4)).holds  # the order-3 normal subgroup
    assert ideals(T) == normal_subgroups(S3)


def test_non_normal_subgroup_rejected(S3):
    T = skew_ring(S3)
    order2 = next(h for h in [(0, 1), (0, 2), (0, 5)])
    report = is_ideal(T, order2)
    assert not report.holds
    assert report.law == "ideal-normal-subgroup"


def test_ideal_condition_can_fail_on_normal_subgroup(Z4):
    # near-ring on Z4 whose row 3 acts as the identity: the translation
    # condition (i+a)ob - aob in I fails for the normal subgroup {0, 2}
    circ = [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 1, 2, 3]]
    T = verify(make_skew_truss(Z4, circ, (0,) * 4))
    report = is_ideal(T, (0, 2))
    assert not report.holds and report.law == "ideal-translation"
    assert report.witness == (2, 1, 1)


def test_left_right_ideal_conditions_agree(Z4, S3):
    # (a+i)ob - aob lands in I for all i exactly when (i+a)ob - aob does
    for G, structures in (
        (Z4, enumerate_skew_trusses(Z4).structures[:40]),
        (S3, [skew_ring(S3), near_ring(S3)]),
    ):
        add, inv = G.table, G.inverse
        for T in structures:
            c = T.circ.table
            for I in normal_subgroups(G):
                members = set(I)

                def shifted(i, a, b, left):
                    x = add[i][a] if left else add[a][i]
                    return add[c[x][b]][inv[c[a][b]]]

                left_ok = all(
                    shifted(i, a, b, True) in members
                    for i in I
                    for a in G.elements
                    for b in G.elements
                )
                right_ok = all(
                    shifted(i, a, b, False) in members
                    for i in I
                    for a in G.elements
                    for b in G.elements
                )
                assert left_ok == right_ok


# ---------------------------------------------------------------------------
# congruences and the bijection

def test_congruence_counts_match_ideals_on_enumerated(Z4):
    for T in enumerate_skew_trusses(Z4).structures:
        ids = ideals(T)
        cgs = congruences(T)
        assert len(ids) == len(cgs)
        assert sorted(congruence_from_ideal(T, I) for I in ids) == list(cgs)
        for I in ids:
            assert ideal_from_congruence(T, congruence_from_ideal(T, I)) == I


def test_congruence_bijection_nonabelian(S3):
    ident = tuple(range(6))
    conj = build_conjugation_ditruss(S3, ident, ident)
    T = verify(make_skew_truss(S3, conj.circ, ident))
    ids = ideals(T)
    cgs = congruences(T)
    assert len(ids) == len(cgs)
    assert sorted(congruence_from_ideal(T, I) for I in ids) == list(cgs)


def test_congruence_cap():
    Z13 = validate_group([[(a + b) % 13 for b in range(13)] for a in range(13)])
    T = skew_ring(Z13)
    with pytest.raises(CarrierTooLarge):
        congruences(T)


def test_trivial_truss_single_ideal():
    Z1 = builtin_group("Z1")
    T = skew_ring(Z1)
    assert ideals(T) == [(0,)]
    assert congruences(T) == [((0,),)]


# ---------------------------------------------------------------------------
# quotients

def test_quotient_by_trivial_is_same(Z4):
    T = near_ring(Z4)
    Q = quotient(T, (0,))
    assert Q.group.table == T.group.table
    assert Q.structure_key() == T.structure_key()


def test_quotient_by_full_is_trivial(Z4):
    T = near_ring(Z4)
    Q = quotient(T, (0, 1, 2, 3))
    assert Q.group.order == 1


def test_quotient_by_order_two_ideal(Z4):
    T = skew_ring(Z4)
    Q = quotient(T, (0, 2))
    assert Q.group.order == 2
    assert Q.verified
    # induced operations: cosets {0,2}, {1,3}; circ stays pi1
    assert Q.circ.table == ((0, 0), (1, 1))


def test_quotient_rejects_non_ideal(S3):
    T = skew_ring(S3)
    with pytest.raises(NotAnIdeal):
        quotient(T, (0, 1))  # not normal


def test_quotient_reverifies_axioms(Z4):
    # every quotient of every enumerated Z4 skew truss by every ideal verifies
    for T in enumerate_skew_trusses(Z4).structures[:60]:
        for I in ideals(T):
            Q = quotient(T, I)
            assert Q.verified
            assert Q.group.order == 4 // len(I)


# ---------------------------------------------------------------------------
# 0-symmetric / constant decomposition

def test_split_constant_lambda_family(V4):
    # T0 = ker(tau) and Tc = tau(G) for the split-circ family
    idem = [
        e for e in enumerate_endomorphisms(V4) if is_idempotent_map(e)
    ]
    from trusslab import compose_commute

    for s, t in itertools.product(idem, repeat=2):
        if not compose_commute(s, t):
            continue
        circ = op_add(make_sigma_pi1(V4, s), make_tau_pi2(V4, t))
        d = verify(make_ditruss(V4, s.images, circ, make_tau_pi2(V4, t)))
        t0, tc = zero_symmetric_constant_decomposition(d)
        assert t0 == tuple(a for a in range(4) if t.images[a] == 0)
        assert tc == tuple(sorted(set(t.images)))


def test_split_near_ring_and_skew_ring(V4):
    t0, tc = zero_symmetric_constant_decomposition(near_ring(V4))
    assert t0 == (0,) and tc == (0, 1, 2, 3)
    t0, tc = zero_symmetric_constant_decomposition(skew_ring(V4))
    assert t0 == (0, 1, 2, 3) and tc == (0,)


def test_split_requires_zero_fixed(Z4):
    sigma = (1, 1, 3, 3)
    T = verify(make_skew_truss(Z4, make_sigma_pi1(Z4, sigma), sigma))
    with pytest.raises(SigmaDoesNotFixZero):
        zero_symmetric_constant_decomposition(T)


def test_split_parts_are_subtrusses(Z4, V4):
    for G in (Z4, V4):
        for T in enumerate_skew_trusses(G).structures:
            if T.sigma[0] != 0:
                continue
            t0, tc = zero_symmetric_constant_decomposition(T)
            c = T.circ.table
            t0s, tcs = set(t0), set(tc)
            assert all(c[a][b] in t0s and T.sigma[a] in t0s for a in t0 for b in t0)
            assert all(c[a][b] in tcs and T.sigma[a] in tcs for a in tc for b in tc)


def test_zero_symmetric_examples(V4):
    assert is_zero_symmetric(skew_ring(V4))
    assert not is_zero_symmetric(near_ring(V4))


def test_zero_symmetric_biconditional_sweep(Z4, V4):
    for G in (Z4, V4):
        for T in enumerate_skew_trusses(G).structures:
            if T.sigma[0] != 0:
                continue
            zs = is_zero_symmetric(T)  # raises if the equivalence breaks
            c = T.circ.table
            assert zs == all(c[0][a] == 0 for a in G.elements)


def test_zero_symmetric_requires_zero_fix(Z4):
    sigma = (1, 1, 3, 3)
    T = verify(make_skew_truss(Z4, make_sigma_pi1(Z4, sigma), sigma))
    with pytest.raises(SigmaDoesNotFixZero):
        is_zero_symmetric(T)


def test_split_requires_idempotent_lambda0(Z4):
    # ditrusses whose every circ row is lambda_0: the automorphism x -> 3x
    # (an endomorphism, not idempotent) and an idempotent self-map that does
    # not preserve +; both splits are refused with one message
    from trusslab import binop, op_left_difference
    from trusslab.errors import PreconditionFailed

    sigma = (0,) * 4
    for lam0 in [(0, 3, 2, 1), (0, 1, 1, 0)]:
        circ = binop(Z4, [list(lam0) for _ in range(4)])
        dot = op_left_difference(circ, make_sigma_pi1(Z4, sigma))
        obj = verify(make_ditruss(Z4, sigma, circ, dot))
        with pytest.raises(PreconditionFailed, match=r"^lambda_0 is not an idempotent endomorphism$"):
            zero_symmetric_constant_decomposition(obj)
