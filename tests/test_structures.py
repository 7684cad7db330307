import itertools

import pytest

from trusslab import (
    build_conjugation_ditruss,
    builtin_group,
    check,
    ditruss_consequence_report,
    enumerate_endomorphisms,
    is_idempotent_map,
    lambda_family,
    make_ditruss,
    make_interchange,
    make_skew_truss,
    make_weak_truss,
    make_sigma_pi1,
    make_tau_pi2,
    make_projection_ops,
    make_zero_op,
    op_add,
    sigma_from_circ,
    skew_truss_consequence_report,
    structure_from_json,
    structure_to_json,
    verify,
)
from trusslab.enumeration import enumerate_skew_trusses
from trusslab.errors import (
    CarrierMismatch,
    DotNotDistributive,
    InputError,
    MissingComponent,
    NotVerified,
    PreconditionFailed,
    VerificationFailed,
)
from trusslab.structures import make_algebra


def skew_ring(G):
    """(G, pi1, id): the sigma = identity case."""
    pi1, _ = make_projection_ops(G)
    return verify(make_skew_truss(G, pi1, tuple(G.elements)))


def near_ring(G):
    """(G, pi2, 0): the sigma = 0 case."""
    _, pi2 = make_projection_ops(G)
    return verify(make_skew_truss(G, pi2, (0,) * G.order))


# ---------------------------------------------------------------------------
# check()

def test_row_constant_skew_truss_verifies(Z4):
    sigma = (1, 1, 3, 3)  # idempotent, not an endomorphism
    obj = make_skew_truss(Z4, make_sigma_pi1(Z4, sigma), sigma)
    assert check(obj).ok and obj.verified


def test_ditruss_with_zero_dot_verifies(V4):
    sigma = (0, 0, 2, 2)
    obj = make_ditruss(V4, sigma, make_sigma_pi1(V4, sigma), make_zero_op(V4))
    assert check(obj).ok


def test_skew_truss_failure_witness(Z4):
    _, pi2 = make_projection_ops(Z4)
    obj = make_skew_truss(Z4, pi2, (1, 0, 3, 2))
    result = check(obj)
    assert not result.ok and not obj.verified
    bad = [r for r in result.reports if not r.holds]
    assert bad[0].law == "left-skew-sigma-distributivity"
    assert bad[0].witness == (0, 0, 0)


def test_weak_truss_axioms(Z4):
    _, pi2 = make_projection_ops(Z4)
    # (Z4, pi2, sigma) is a weak truss for ANY sigma: both axioms ignore it
    for sigma in [(0, 0, 0, 0), tuple(range(4)), (3, 3, 3, 3)]:
        assert check(make_weak_truss(Z4, pi2, sigma)).ok


def test_sigma_validated_once_per_object(Z4, monkeypatch):
    # make_algebra passes sigma through check_map; check() does not repeat it
    import trusslab.ops
    import trusslab.structures

    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return check_map(*args, **kwargs)

    check_map = trusslab.ops.check_map
    for module in (trusslab.ops, trusslab.structures):
        monkeypatch.setattr(module, "check_map", counting)
    _, pi2 = make_projection_ops(Z4)
    for make in (make_skew_truss, make_weak_truss):
        calls.clear()
        obj = make(Z4, pi2, (0, 1, 2, 3))
        check(obj)
        check(obj)
        assert calls == [(0, 1, 2, 3)]


def test_interchange_check(Z2, S3):
    add_op = lambda G: make_algebra(G, "interchange-nr", circ=G.table)
    assert check(add_op(Z2)).ok
    assert not check(add_op(S3)).ok


def test_component_enforcement(Z2):
    pi1, _ = make_projection_ops(Z2)
    with pytest.raises(MissingComponent):
        make_algebra(Z2, "skew-truss", circ=pi1)
    with pytest.raises(InputError):
        make_algebra(Z2, "interchange-nr", circ=pi1, sigma=(0, 0))
    with pytest.raises(InputError):
        make_algebra(Z2, "no-such-kind", circ=pi1)


def test_carrier_mismatch(Z2, Z4):
    with pytest.raises(CarrierMismatch):
        make_skew_truss(Z2, make_zero_op(Z4), (0, 0))


def test_verify_raises_with_report(Z4):
    _, pi2 = make_projection_ops(Z4)
    with pytest.raises(VerificationFailed) as exc:
        verify(make_skew_truss(Z4, pi2, (1, 0, 3, 2)))
    assert exc.value.report.witness == (0, 0, 0)


# ---------------------------------------------------------------------------
# lambda family and sigma recovery

def test_lambda_family_of_verified_skew_truss(Z4):
    # skew ring (circ = pi1): lam_a(b) = -a + a = 0
    lam = lambda_family(skew_ring(Z4))
    assert lam.all_endomorphisms and lam.constant
    assert lam[0].images == (0, 0, 0, 0)
    # near-ring (circ = pi2): lam_a(b) = -0 + b = b
    lam = lambda_family(near_ring(Z4))
    assert lam.all_endomorphisms and lam.constant
    assert lam[0].images == (0, 1, 2, 3)


def test_lambda_family_of_zero_dot_ditruss(V4):
    sigma = (0, 0, 2, 2)
    obj = verify(make_ditruss(V4, sigma, make_sigma_pi1(V4, sigma), make_zero_op(V4)))
    lam = lambda_family(obj)
    assert lam.constant and lam.all_endomorphisms
    assert lam[0].images == (0, 0, 0, 0)
    assert lam[0].images != obj.sigma  # lambda_0 differs from sigma here


def test_lambda_family_of_split_circ(V4):
    sigma, tau = (0, 0, 2, 2), (0, 1, 0, 1)
    circ = op_add(make_sigma_pi1(V4, sigma), make_tau_pi2(V4, tau))
    obj = verify(make_skew_truss(V4, circ, sigma))
    lam = lambda_family(obj)
    assert lam.constant
    assert lam[0].images == tau


def test_lambda_family_requires_components(Z2):
    obj = make_interchange(Z2, make_zero_op(Z2))
    with pytest.raises(MissingComponent):
        lambda_family(obj)


def test_sigma_from_circ(Z4):
    sigma = (0, 2, 0, 2)
    assert sigma_from_circ(Z4, make_sigma_pi1(Z4, sigma)) == sigma
    _, pi2 = make_projection_ops(Z4)
    assert sigma_from_circ(Z4, pi2) == (0, 0, 0, 0)
    tau = (0, 3, 2, 1)
    both = op_add(make_sigma_pi1(Z4, sigma), make_tau_pi2(Z4, tau))
    assert sigma_from_circ(Z4, both) == sigma


# ---------------------------------------------------------------------------
# consequence reports

def test_consequences_row_constant_with_zero_fix(Z4):
    sigma = (0, 0, 2, 2)  # idempotent map fixing 0 (not an endomorphism)
    obj = verify(make_skew_truss(Z4, make_sigma_pi1(Z4, sigma), sigma))
    report = skew_truss_consequence_report(obj)
    assert report.ok
    assert lambda_family(obj)[0].images == (0, 0, 0, 0)


def test_consequences_near_ring(Z4):
    report = skew_truss_consequence_report(near_ring(Z4))
    assert report.ok
    lam0 = lambda_family(near_ring(Z4))[0]
    assert lam0.images == (0, 1, 2, 3)


def test_consequences_require_verified(Z4):
    _, pi2 = make_projection_ops(Z4)
    obj = make_skew_truss(Z4, pi2, (0,) * 4)
    with pytest.raises(NotVerified):
        skew_truss_consequence_report(obj)


def test_shifted_operation_is_skew_truss_with_nonidempotent_sigma(Z4):
    # a o b = a + 1 + b is associative and skew distributive with
    # sigma(a) = a + 1; sigma is a translation, so not idempotent.  lambda_0
    # does not kill sigma(0), so the report skips the idempotency claim.
    circ = [[(a + 1 + b) % 4 for b in range(4)] for a in range(4)]
    sigma = tuple((a + 1) % 4 for a in range(4))
    obj = verify(make_skew_truss(Z4, circ, sigma))
    assert is_idempotent_map(obj.sigma) is False  # pinned counterexample
    assert lambda_family(obj)[0](obj.sigma[0]) != 0
    report = skew_truss_consequence_report(obj)
    by_name = {c.name: c for c in report.claims}
    assert by_name["lambda-maps-are-endomorphisms"].holds
    assert by_name["circ-by-zero-recovers-sigma"].holds
    assert by_name["sigma-idempotent"].holds is None  # hypothesis not met
    assert by_name["lambda0-idempotent-endomorphism"].holds is None  # sigma(0) != 0
    assert report.ok


def test_sigma_idempotency_characterization(Z3):
    # for every skew truss: sigma idempotent  <=>  lam_a(sigma(0)) = 0 for all a;
    # the report's sigma-idempotent claim applies exactly under that hypothesis
    applicable_off_zero = 0
    for obj in enumerate_skew_trusses(Z3).structures:
        lam = lambda_family(obj)
        annihilated = all(
            lam[a](obj.sigma[0]) == 0 for a in obj.group.elements
        )
        assert is_idempotent_map(obj.sigma) == annihilated
        report = skew_truss_consequence_report(obj)
        claim = {c.name: c for c in report.claims}["sigma-idempotent"]
        assert claim.applicable == annihilated
        if claim.applicable:
            assert claim.holds
            applicable_off_zero += obj.sigma[0] != 0
    # a gate on sigma(0) = 0 alone would skip these
    assert applicable_off_zero > 0


def test_consequences_pass_when_sigma_fixes_zero(Z4, V4):
    for G in (Z4, V4):
        for obj in enumerate_skew_trusses(G).structures:
            report = skew_truss_consequence_report(obj)
            by_name = {c.name: c for c in report.claims}
            assert by_name["lambda-maps-are-endomorphisms"].holds
            assert by_name["circ-by-zero-recovers-sigma"].holds
            if obj.sigma[0] == 0:
                assert report.ok  # all claims, (c) and (d) included


# ---------------------------------------------------------------------------
# ditruss consequence report

def test_ditruss_consequences_split_form(V4):
    sigma, tau = (0, 0, 2, 2), (0, 1, 0, 1)
    circ = op_add(make_sigma_pi1(V4, sigma), make_tau_pi2(V4, tau))
    obj = verify(make_ditruss(V4, sigma, circ, make_tau_pi2(V4, tau)))
    report = ditruss_consequence_report(obj)
    assert report.ok
    by_name = {c.name: c for c in report.claims}
    assert by_name["circ-associative-iff-dot-weak-sigma-associative"].holds
    assert by_name["lambda-respects-circ"].holds
    assert by_name["lambda0-idempotent"].holds


def test_ditruss_consequences_conjugation_s3(S3):
    ident = tuple(range(6))
    obj = build_conjugation_ditruss(S3, ident, ident)
    report = ditruss_consequence_report(obj)
    assert report.ok
    lam = lambda_family(obj)
    assert lam[0].images == ident  # lambda_0 = tau


def test_ditruss_consequences_zero_sigma(Z4):
    # sigma = 0 reduces to near-ring identities a.0 = 0, a.(-b) = -(a.b)
    zero = (0,) * 4
    dot = make_tau_pi2(Z4, (0, 3, 2, 1))
    obj = verify(make_ditruss(Z4, zero, dot, dot))
    report = ditruss_consequence_report(obj)
    by_name = {c.name: c for c in report.claims}
    assert by_name["dot-by-zero-is-zero"].holds
    assert by_name["dot-negates-second-argument"].holds
    assert report.ok


def test_ditruss_consequences_require_distributive_dot(Z4):
    # dot with non-endomorphism rows is not left distributive
    rows = [[1, 0, 0, 0] for _ in range(4)]
    sigma = tuple(range(4))
    circ = [[(a + rows[a][b]) % 4 for b in range(4)] for a in range(4)]
    obj = verify(make_ditruss(Z4, sigma, circ, rows))
    with pytest.raises(DotNotDistributive):
        ditruss_consequence_report(obj)


# ---------------------------------------------------------------------------
# conjugation ditruss

def test_conjugation_collapses_on_abelian(Z4):
    ident = tuple(range(4))
    obj = build_conjugation_ditruss(Z4, ident, ident)
    assert obj.dot.table == make_tau_pi2(Z4, ident).table


def test_conjugation_s3_identity_pair_not_constant(S3):
    ident = tuple(range(6))
    obj = build_conjugation_ditruss(S3, ident, ident)
    lam = lambda_family(obj)
    assert not lam.constant  # identity is not image-commuting with itself on S3


def test_conjugation_s3_zero_tau(S3):
    ident = tuple(range(6))
    zero = (0,) * 6
    obj = build_conjugation_ditruss(S3, ident, zero)
    assert obj.dot.table == make_zero_op(S3).table
    pi1, _ = make_projection_ops(S3)
    assert obj.circ.table == pi1.table
    lam = lambda_family(obj)
    assert lam.constant and lam[0].images == zero


def test_conjugation_preconditions(S3, Z4):
    ident6 = tuple(range(6))
    with pytest.raises(PreconditionFailed):
        build_conjugation_ditruss(S3, (0, 0, 0, 0, 3, 3), ident6)  # not endo
    with pytest.raises(PreconditionFailed):
        build_conjugation_ditruss(Z4, (0, 3, 2, 1), (0, 0, 0, 0))  # not idempotent


def test_conjugation_lambda_constant_iff_image_commuting():
    from trusslab import compose_commute, image_commuting

    for name in ("S3", "V4", "D4"):
        G = builtin_group(name)
        idem = [
            e for e in enumerate_endomorphisms(G) if is_idempotent_map(e)
        ]
        for s, t in itertools.product(idem, repeat=2):
            if not compose_commute(s, t):
                continue
            obj = build_conjugation_ditruss(G, s, t)
            lam = lambda_family(obj)
            assert lam.constant == image_commuting(G, s, t)
            assert lam[0].images == t.images  # lambda_0 = tau always


# ---------------------------------------------------------------------------
# JSON round trips

def test_structure_json_round_trip(Z4):
    obj = skew_ring(Z4)
    data = structure_to_json(obj)
    back = structure_from_json(data)
    assert back.structure_key() == obj.structure_key()
    assert back.kind == obj.kind


def test_structure_json_inline_group(Z4):
    obj = near_ring(Z4)
    data = structure_to_json(obj, inline_group=True)
    assert data["group"]["table"] == [list(r) for r in Z4.table]
    back = structure_from_json(data)
    assert back.structure_key() == obj.structure_key()


def test_structure_json_kind_alias(Z2):
    data = {"kind": "interchange", "group": "Z2", "circ": [[0, 0], [0, 0]]}
    obj = structure_from_json(data)
    assert obj.kind == "interchange-nr"


def test_structure_json_requires_fields():
    with pytest.raises(InputError):
        structure_from_json({"kind": "skew-truss"})
    with pytest.raises(InputError):
        structure_from_json({"group": "Z2"})


def test_structure_json_rejects_shifted_inline_group():
    from trusslab.errors import NoIdentityAtZero

    data = {
        "kind": "interchange-nr",
        "group": {"name": "shifted", "order": 2, "table": [[1, 0], [0, 1]]},
        "circ": [[0, 0], [0, 0]],
    }
    with pytest.raises(NoIdentityAtZero):
        structure_from_json(data)
