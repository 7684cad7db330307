import itertools

import pytest

from trusslab import (
    builtin_group,
    builtin_names,
    carrier_bijections,
    check,
    convert,
    ditruss_involution,
    ditruss_to_interchange,
    enumerate_endomorphisms,
    image_commuting,
    interchange_opposite,
    interchange_to_ditruss,
    is_idempotent_map,
    is_skew_truss_morphism,
    is_weak_truss_morphism,
    make_ditruss,
    make_interchange,
    make_projection_ops,
    make_sigma_pi1,
    make_skew_truss,
    make_tau_pi2,
    make_weak_truss,
    make_zero_op,
    op_add,
    op_opposite,
    truss_to_weak,
    verify,
    weak_to_truss,
)
from trusslab.enumeration import (
    canonical_key,
    enumerate_constant_lambda_ditrusses,
    enumerate_interchange,
    enumerate_skew_trusses,
)
from trusslab.errors import (
    DotNotColumnConstant,
    HypothesisFailed,
    InputError,
    NotVerified,
    SigmaNotIdempotentEndo,
    VerificationFailed,
)


def idempotent_endos(G):
    return [e for e in enumerate_endomorphisms(G) if is_idempotent_map(e)]


# ---------------------------------------------------------------------------
# skew truss <-> weak truss

def test_pairing_sigma_of_sum():
    # sigma = tau: circ is a o b = sigma(a+b); the weak side is sigma-pi2
    Z6 = builtin_group("Z6")
    sigma = tuple(3 * a % 6 for a in range(6))  # idempotent endomorphism
    circ = [[3 * (a + b) % 6 for b in range(6)] for a in range(6)]
    truss = verify(make_skew_truss(Z6, circ, sigma))
    weak, record = truss_to_weak(truss)
    assert weak.dot.table == make_tau_pi2(Z6, sigma).table
    back, _ = weak_to_truss(weak)
    assert back.structure_key() == truss.structure_key()
    assert record.parameters["sigma"] == sigma


def test_pairing_near_ring(Z4):
    # (G, pi2, 0) transforms with sigma kept at 0; the object with the
    # identity in the sigma slot is a valid weak truss in its own right
    _, pi2 = make_projection_ops(Z4)
    truss = verify(make_skew_truss(Z4, pi2, (0,) * 4))
    weak, _ = truss_to_weak(truss)
    assert weak.dot.table == pi2.table
    assert weak.sigma == (0, 0, 0, 0)
    assert check(make_weak_truss(Z4, pi2, tuple(range(4)))).ok
    back, _ = weak_to_truss(weak)
    assert back.structure_key() == truss.structure_key()


def test_pairing_skew_ring(Z4):
    pi1, _ = make_projection_ops(Z4)
    truss = verify(make_skew_truss(Z4, pi1, tuple(range(4))))
    weak, _ = truss_to_weak(truss)
    assert weak.dot.table == make_zero_op(Z4).table
    back, _ = weak_to_truss(weak)
    assert back.structure_key() == truss.structure_key()


def test_round_trip_on_all_enumerated(V4, Z4):
    for G in (Z4, V4):
        for obj in enumerate_skew_trusses(G).structures:
            flags = obj.sigma_flags()
            if not (flags.endomorphism and flags.idempotent):
                continue
            weak, _ = truss_to_weak(obj)
            assert weak.verified
            back, _ = weak_to_truss(weak)
            assert back.structure_key() == obj.structure_key()


def test_truss_to_weak_rejects_non_endo_sigma(Z4):
    sigma = (1, 1, 3, 3)  # idempotent but not an endomorphism
    truss = verify(make_skew_truss(Z4, make_sigma_pi1(Z4, sigma), sigma))
    with pytest.raises(SigmaNotIdempotentEndo):
        truss_to_weak(truss)


def test_transforms_refuse_unverified(Z4):
    pi1, _ = make_projection_ops(Z4)
    obj = make_skew_truss(Z4, pi1, tuple(range(4)))  # never checked
    with pytest.raises(NotVerified):
        truss_to_weak(obj)


def test_weak_truss_whose_completion_is_not_associative(V4):
    # weak truss axioms do not force the completed circ to be associative:
    # this one fails sigma(a.b) = a.sigma(b), so the skew side breaks.
    sigma = (0, 0, 2, 2)
    dot = ((0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 2, 0, 2))
    weak = verify(make_weak_truss(V4, dot, sigma))
    assert sigma[dot[3][1]] != dot[3][sigma[1]]
    with pytest.raises(VerificationFailed) as exc:
        weak_to_truss(weak)
    assert exc.value.report.law == "associativity"


def test_weak_completion_associative_iff_sigma_slides(V4):
    # machine-checked boundary of the skew/weak correspondence
    from trusslab.enumeration import enumerate_weak_trusses
    from trusslab.ops import is_associative

    for w in enumerate_weak_trusses(V4).structures:
        if not (w.sigma_flags().endomorphism and w.sigma_flags().idempotent):
            continue
        s, d = w.sigma, w.dot.table
        slides = all(
            s[d[a][b]] == d[a][s[b]] for a in range(4) for b in range(4)
        )
        circ = op_add(make_sigma_pi1(V4, s), w.dot)
        assert is_associative(circ).holds == slides


# ---------------------------------------------------------------------------
# ditruss involution

def test_involution_formula(Z4):
    ident = tuple(range(4))
    zero = (0,) * 4
    pi1, pi2 = make_projection_ops(Z4)
    obj = verify(make_ditruss(Z4, ident, pi1, make_zero_op(Z4)))
    out, record = ditruss_involution(obj)
    assert out.sigma == zero
    assert out.circ.table == pi2.table  # tau-pi1 + sigma-pi2 with tau = 0
    assert out.dot.table == pi2.table  # sigma-pi2 with sigma = id
    again, _ = ditruss_involution(out)
    assert again.structure_key() == obj.structure_key()


def test_involution_fixed_point(V4):
    sigma = (0, 1, 0, 1)
    circ = op_add(make_sigma_pi1(V4, sigma), make_tau_pi2(V4, sigma))
    obj = verify(make_ditruss(V4, sigma, circ, make_tau_pi2(V4, sigma)))
    out, _ = ditruss_involution(obj)
    assert out.structure_key() == obj.structure_key()


def test_involution_squares_to_identity_everywhere():
    for name in ("Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "V4", "S3"):
        G = builtin_group(name)
        for obj in enumerate_constant_lambda_ditrusses(G).structures:
            once, _ = ditruss_involution(obj)
            twice, _ = ditruss_involution(once)
            assert twice.structure_key() == obj.structure_key()


# classes of constant-lambda ditrusses that the involution fixes, per group
INVOLUTION_FIXED_CLASSES = {
    "Z1": 1, "Z2": 2, "Z3": 2, "Z4": 2, "V4": 4, "Z5": 2,
    "Z6": 4, "S3": 3, "Z7": 2, "Z8": 2, "D4": 5, "Q8": 2,
}


@pytest.mark.parametrize("name", sorted(INVOLUTION_FIXED_CLASSES))
def test_involution_permutes_the_classes(name):
    """The sigma <-> tau duality on whole classifications: isomorphic
    ditrusses have isomorphic images, so the involution induces a map on
    the classes, and it is a bijection of the classes onto themselves."""
    result = enumerate_constant_lambda_ditrusses(builtin_group(name))
    on_classes = {}
    for obj in result.structures:
        image = canonical_key(ditruss_involution(obj)[0])
        assert on_classes.setdefault(canonical_key(obj), image) == image
    classes = {canonical_key(rep) for rep in result.representatives}
    assert set(on_classes) == classes
    assert sorted(on_classes.values()) == sorted(classes)
    fixed = sum(key == image for key, image in on_classes.items())
    assert fixed == INVOLUTION_FIXED_CLASSES[name]


def test_involution_requires_column_constant_dot(Z4):
    ident = tuple(range(4))
    rows = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    circ = [[(a + rows[a][b]) % 4 for b in range(4)] for a in range(4)]
    obj = verify(make_ditruss(Z4, ident, circ, rows))
    with pytest.raises(DotNotColumnConstant):
        ditruss_involution(obj)


# ---------------------------------------------------------------------------
# ditruss <-> interchange near-ring

def test_forward_z2(Z2):
    ident = (0, 1)
    circ = op_add(make_sigma_pi1(Z2, ident), make_tau_pi2(Z2, ident))
    obj = verify(make_ditruss(Z2, ident, circ, make_tau_pi2(Z2, ident)))
    nr, record = ditruss_to_interchange(obj)
    assert nr.circ.table == Z2.table  # a o b = a + b
    assert record.parameters == {"sigma": ident, "tau": ident}


def test_forward_hypothesis_flags(S3):
    ident = tuple(range(6))
    circ = op_add(make_sigma_pi1(S3, ident), make_tau_pi2(S3, ident))
    obj = verify(make_ditruss(S3, ident, circ, make_tau_pi2(S3, ident)))
    with pytest.raises(HypothesisFailed) as exc:
        ditruss_to_interchange(obj)
    assert exc.value.flag == "sigma-lambda0-image-commuting"

    # non-constant lambda: derive dot from a non-split circ
    from trusslab.ops import op_left_difference

    Z4 = builtin_group("Z4")
    ident4 = tuple(range(4))
    circ4 = make_sigma_pi1(Z4, ident4)  # skew ring circ = pi1
    dot4 = op_left_difference(circ4, make_sigma_pi1(Z4, ident4))
    mixed = [
        list(r) for r in dot4.table
    ]
    mixed[0] = [0, 1, 2, 3]  # row 0 becomes the identity map, others zero
    circ_mixed = [
        [(a + mixed[a][b]) % 4 for b in range(4)] for a in range(4)
    ]
    obj4 = verify(make_ditruss(Z4, ident4, circ_mixed, mixed))
    with pytest.raises(HypothesisFailed) as exc:
        ditruss_to_interchange(obj4)
    assert exc.value.flag in ("circ-associative", "lambda-constant")


def test_forward_s3_zero_tau_passes(S3):
    ident = tuple(range(6))
    zero = (0,) * 6
    circ = op_add(make_sigma_pi1(S3, ident), make_tau_pi2(S3, zero))
    obj = verify(make_ditruss(S3, ident, circ, make_tau_pi2(S3, zero)))
    nr, _ = ditruss_to_interchange(obj)
    assert nr.verified


def test_backward_zero_op(S3):
    nr = verify(make_interchange(S3, make_zero_op(S3)))
    dit, record = interchange_to_ditruss(nr)
    assert dit.sigma == (0,) * 6
    assert dit.circ.table == make_zero_op(S3).table
    assert dit.dot.table == make_zero_op(S3).table
    assert record.parameters["tau"] == (0,) * 6


def test_transforms_compose_to_identity_everywhere():
    for name in ("Z1", "Z2", "Z3", "Z4", "V4", "S3", "D4", "Q8", "Z6", "Z8"):
        G = builtin_group(name)
        dits = enumerate_constant_lambda_ditrusses(G, image_commuting_only=True)
        for d in dits.structures:
            nr, _ = ditruss_to_interchange(d)
            back, _ = interchange_to_ditruss(nr)
            assert back.structure_key() == d.structure_key()
        nrs = enumerate_interchange(G, associative_only=True)
        for o in nrs.structures:
            d, _ = interchange_to_ditruss(o)
            nr2, _ = ditruss_to_interchange(d)
            assert nr2.structure_key() == o.structure_key()


@pytest.mark.parametrize("name", builtin_names())
def test_backward_refuses_only_on_idempotency_or_commuting(name):
    """A verified interchange near-ring already splits into endomorphisms
    with commuting images, so interchange_to_ditruss converts it or names
    sigma-idempotent, tau-idempotent or sigma-tau-commute; it converts
    exactly the associative ones."""
    G = builtin_group(name)
    converted = 0
    for o in enumerate_interchange(G).structures:
        try:
            interchange_to_ditruss(o)
        except HypothesisFailed as exc:
            assert exc.flag in ("sigma-idempotent", "tau-idempotent", "sigma-tau-commute")
        else:
            converted += 1
    assert converted == enumerate_interchange(G, associative_only=True).total_count


@pytest.mark.parametrize("name", builtin_names())
def test_forward_refuses_only_on_a_hypothesis(name):
    """ditruss_to_interchange marks its output verified without a check:
    on every constant-lambda ditruss it either names a hypothesis flag or
    returns an interchange near-ring that passes one, and it converts as
    many as there are associative interchange near-rings."""
    G = builtin_group(name)
    converted = 0
    for d in enumerate_constant_lambda_ditrusses(G).structures:
        try:
            nr, _ = ditruss_to_interchange(d)
        except HypothesisFailed as exc:
            assert exc.flag in ("circ-associative", "sigma-lambda0-image-commuting")
        else:
            assert check(nr).ok
            converted += 1
    assert converted == enumerate_interchange(G, associative_only=True).total_count


# ---------------------------------------------------------------------------
# opposite operation

def test_opposite_zero_op_fixed(Z4):
    nr = verify(make_interchange(Z4, make_zero_op(Z4)))
    out, _ = interchange_opposite(nr)
    assert out.circ.table == nr.circ.table


@pytest.mark.parametrize("name", ["V4", "D4", "Q8"])
def test_opposite_of_every_interchange_near_ring_verifies(name):
    # interchange_opposite marks its output verified without a check; the
    # transpose of an interchange near-ring must pass one
    for o in enumerate_interchange(builtin_group(name)).structures:
        op, _ = interchange_opposite(o)
        assert op.verified
        assert check(make_interchange(op.group, op.circ)).ok


def test_opposite_swaps_parameters(S3):
    # opposite corresponds to exchanging the two recovered endomorphisms
    for o in enumerate_interchange(S3, associative_only=True).structures:
        op, record = interchange_opposite(o)
        d1, r1 = interchange_to_ditruss(o)
        d2, r2 = interchange_to_ditruss(op)
        assert r2.parameters["sigma"] == r1.parameters["tau"]
        assert r2.parameters["tau"] == r1.parameters["sigma"]
        twice, _ = interchange_opposite(op)
        assert twice.structure_key() == o.structure_key()


def test_opposite_preserves_associativity():
    from trusslab.ops import is_associative

    for name in ("Z4", "S3"):
        G = builtin_group(name)
        for o in enumerate_interchange(G, associative_only=True).structures:
            op, _ = interchange_opposite(o)
            assert is_associative(op.circ).holds


def test_opposite_equals_swapped_split_iff_image_commuting():
    # circ' = circ-op exactly when the defining pair is image-commuting
    for name in ("V4", "S3"):
        G = builtin_group(name)
        idem = [e for e in enumerate_endomorphisms(G) if is_idempotent_map(e)]
        for s, t in itertools.product(idem, repeat=2):
            circ = op_add(make_sigma_pi1(G, s), make_tau_pi2(G, t))
            swapped = op_add(make_sigma_pi1(G, t), make_tau_pi2(G, s))
            assert (swapped.table == op_opposite(circ).table) == image_commuting(
                G, s, t
            )


# ---------------------------------------------------------------------------
# convert dispatcher

def test_convert_dispatch(Z4):
    pi1, _ = make_projection_ops(Z4)
    truss = verify(make_skew_truss(Z4, pi1, tuple(range(4))))
    weak, record = convert(truss, "weak-truss")
    assert weak.kind == "weak-truss"
    assert record.forward_name == "truss_to_weak"
    with pytest.raises(InputError):
        convert(truss, "interchange-nr")


# ---------------------------------------------------------------------------
# morphisms

def test_morphism_sets_correspond_at_small_order(Z4, V4):
    # h preserves (+, circ) between skew trusses exactly when it preserves
    # (+, dot, sigma) between their weak-truss images
    for G in (Z4, V4):
        trusses = [
            o
            for o in enumerate_skew_trusses(G).structures
            if o.sigma_flags().endomorphism and o.sigma_flags().idempotent
        ]
        reps = trusses[:12]
        for A in reps:
            WA, _ = truss_to_weak(A)
            for B in reps:
                WB, _ = truss_to_weak(B)
                for h in carrier_bijections(G.order):
                    assert is_skew_truss_morphism(h, A, B) == is_weak_truss_morphism(
                        h, WA, WB
                    )


def test_skew_morphisms_preserve_sigma_automatically(Z4, V4):
    # sigma is definable as a o 0, so (+, circ)-preservation carries it along
    for G in (Z4, V4):
        trusses = enumerate_skew_trusses(G).structures[:25]
        for A in trusses:
            for B in trusses:
                for h in carrier_bijections(G.order):
                    if is_skew_truss_morphism(h, A, B):
                        assert all(
                            h[A.sigma[a]] == B.sigma[h[a]] for a in G.elements
                        )
