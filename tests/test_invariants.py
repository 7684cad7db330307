"""Cross-cutting structural properties that tie several modules together."""

import itertools
import random

from trusslab import (
    builtin_group,
    check,
    compose_commute,
    depends_only_on_first,
    depends_only_on_second,
    enumerate_constant_lambda_ditrusses,
    enumerate_endomorphisms,
    is_associative,
    is_idempotent_map,
    is_left_distributive,
    is_left_skew_sigma_distributive,
    is_right_skew_sigma_distributive,
    lambda_family,
    make_ditruss,
    make_sigma_pi1,
    make_skew_truss,
    make_tau_pi2,
    op_add,
    op_sub,
    binop,
    sigma_from_circ,
    verify,
)
from trusslab.groups import is_endomorphism_images


def test_lambda_constant_iff_dot_column_constant():
    # for any ditruss: constant lambda family == dot depends only on its
    # second factor == dot equals the column map of lambda_0
    rng = random.Random(7)
    for name in ("Z3", "Z4", "V4", "S3"):
        G = builtin_group(name)
        n = G.order
        objs = list(enumerate_constant_lambda_ditrusses(G).structures)
        for _ in range(40):  # random ditrusses: dot derived from random circ
            circ = binop(G, [[rng.randrange(n) for _ in range(n)] for _ in range(n)])
            sigma = tuple(rng.randrange(n) for _ in range(n))
            from trusslab import op_left_difference

            dot = op_left_difference(circ, make_sigma_pi1(G, sigma))
            objs.append(verify(make_ditruss(G, sigma, circ, dot)))
        for obj in objs:
            lam = lambda_family(obj)
            col = depends_only_on_second(obj.dot)
            assert lam.constant == col
            if lam.constant:
                assert obj.dot.table == make_tau_pi2(G, lam[0].images).table


def test_first_factor_difference_characterization():
    # with dot left distributive: circ - dot depends only on the first
    # factor  iff  a circ b - a dot b = a circ 0 for all a, b; and then
    # sigma(a) := a circ 0 makes a ditruss whose circ is skew distributive
    rng = random.Random(11)
    for name in ("Z3", "Z4", "V4"):
        G = builtin_group(name)
        n = G.order
        endos = enumerate_endomorphisms(G)
        for trial in range(120):
            rows = [endos[rng.randrange(len(endos))].images for _ in range(n)]
            dot = binop(G, rows)
            assert is_left_distributive(dot).holds
            if trial % 2 == 0:
                sigma_seed = tuple(rng.randrange(n) for _ in range(n))
                circ = op_add(make_sigma_pi1(G, sigma_seed), dot)
            else:
                circ = binop(G, [[rng.randrange(n) for _ in range(n)] for _ in range(n)])
            diff = op_sub(circ, dot)
            lhs = depends_only_on_first(diff)
            rhs = all(
                diff.at(a, b) == circ.at(a, 0) for a in range(n) for b in range(n)
            )
            assert lhs == rhs
            if lhs:
                sigma = sigma_from_circ(G, circ)
                obj = verify(make_ditruss(G, sigma, circ, dot))
                assert is_left_skew_sigma_distributive(obj.circ, sigma).holds


def test_split_circ_associativity_forces_idempotents():
    # for zero-fixing maps s, t: associativity of s-pi1 + t-pi2 forces both
    # maps idempotent and composition-commuting; the converse holds for
    # commuting idempotent endomorphisms
    for name in ("Z3", "Z4"):
        G = builtin_group(name)
        n = G.order
        zero_fixing = [
            (0,) + rest for rest in itertools.product(range(n), repeat=n - 1)
        ]
        for s in zero_fixing:
            for t in zero_fixing:
                circ = op_add(make_sigma_pi1(G, s), make_tau_pi2(G, t))
                if is_associative(circ).holds:
                    assert is_idempotent_map(s) and is_idempotent_map(t)
                    assert compose_commute(s, t)


def test_commuting_idempotent_endos_give_associative_split():
    # all built-in groups of order <= 8
    for name in ("Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z8", "V4", "S3", "D4", "Q8"):
        G = builtin_group(name)
        idem = [
            e for e in enumerate_endomorphisms(G) if is_idempotent_map(e)
        ]
        for s, t in itertools.product(idem, repeat=2):
            circ = op_add(make_sigma_pi1(G, s), make_tau_pi2(G, t))
            obj = make_skew_truss(G, circ, s.images)
            a_holds = check(obj).ok and lambda_family(obj).constant
            b_holds = compose_commute(s, t)
            assert a_holds == b_holds
            if a_holds:
                assert is_right_skew_sigma_distributive(circ, t.images).holds


def test_emitted_structures_connect_to_endomorphism_rows(Z4):
    # every enumerated skew truss has lambda rows drawn from End(G)
    from trusslab.enumeration import enumerate_skew_trusses

    endo_images = {e.images for e in enumerate_endomorphisms(Z4)}
    for obj in enumerate_skew_trusses(Z4).structures:
        for m in lambda_family(obj).maps:
            assert m.images in endo_images
            assert is_endomorphism_images(Z4, m.images)
