"""Acceptance gate: one test per criterion, one printed line per criterion.

Run with  pytest tests/test_acceptance.py -v -s  to see the pass/fail lines.

Criterion 2 asserts, for every enumerated skew truss on Z1-Z4 and V4, that
every applicable claim of the consequence report holds.  Idempotency of the
canonical unary map is one of them, reported under its exact hypothesis:
sigma(sigma(a)) = sigma(a) + lambda_a(sigma(0)), so sigma o sigma = sigma
exactly when every lambda_a kills sigma(0).  Shifted group operations
(a o b = a + u + b with sigma(a) = a + u, u != 0) are skew trusses whose
sigma is a translation; the report skips the claim on them.  All criteria
pass.
"""

import itertools
import json
import random
import time
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path

from trusslab import (
    builtin_group,
    canonical_form,
    carrier_bijections,
    check,
    compose_commute,
    ditruss_involution,
    ditruss_to_interchange,
    enumerate_constant_lambda_ditrusses,
    enumerate_endomorphisms,
    enumerate_interchange,
    enumerate_skew_trusses,
    interchange_opposite,
    interchange_to_ditruss,
    is_idempotent_map,
    is_left_distributive,
    is_left_skew_sigma_distributive,
    is_associative,
    is_right_skew_sigma_distributive,
    is_skew_truss_morphism,
    is_weak_truss_morphism,
    is_zero_symmetric,
    lambda_family,
    make_ditruss,
    make_sigma_pi1,
    make_skew_truss,
    make_tau_pi2,
    op_add,
    op_left_difference,
    binop,
    congruence_from_ideal,
    congruences,
    ideal_from_congruence,
    ideals,
    skew_truss_consequence_report,
    truss_to_weak,
    verify,
    weak_to_truss,
)
from trusslab.enumeration import (
    raw_interchange_search,
    raw_skew_truss_search,
)
from trusslab.cli import main as cli_main

FIXTURES = Path(__file__).parent / "fixtures"

ORDER_LE_4 = ["Z1", "Z2", "Z3", "Z4", "V4"]
ORDER_LE_6 = ["Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "V4", "S3"]
ORDER_LE_8 = ["Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z8", "V4", "S3", "D4", "Q8"]


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} ({description}): FAIL")
        raise
    print(f"criterion {number:02d} ({description}): PASS")


@lru_cache(maxsize=None)
def skew_structures(name: str):
    return enumerate_skew_trusses(builtin_group(name)).structures


@lru_cache(maxsize=None)
def order_six_representatives():
    """One skew truss per isomorphism class on Z6 and S3: 3,361 classes.
    Ideals and congruences are invariant under automorphisms, so the
    representatives stand for every order-6 skew truss."""
    return [
        obj
        for name in ("Z6", "S3")
        for obj in enumerate_skew_trusses(builtin_group(name), cap=6).representatives
    ]


@lru_cache(maxsize=None)
def order_six_extras():
    """Skew trusses on order-6 carriers from two endomorphism-pair
    constructions: the split-circ family and the conjugation family, each
    structure as built rather than as the representative of its class."""
    out = []
    for name in ("Z6", "S3"):
        G = builtin_group(name)
        idem = [e for e in enumerate_endomorphisms(G) if is_idempotent_map(e)]
        for s, t in itertools.product(idem, repeat=2):
            if not compose_commute(s, t):
                continue
            split = op_add(make_sigma_pi1(G, s), make_tau_pi2(G, t))
            out.append(verify(make_skew_truss(G, split, s.images)))
            conj = op_add(make_tau_pi2(G, t), make_sigma_pi1(G, s))
            if is_associative(conj).holds:
                obj = make_skew_truss(G, conj, s.images)
                if check(obj).ok:
                    out.append(obj)
    return out


def test_c01_row_constant_associativity_iff_idempotent():
    with criterion(1, "sigma-pi1 associative iff sigma idempotent, n <= 4"):
        start = time.perf_counter()
        from trusslab.ops import is_associative as assoc

        for name in ORDER_LE_4:
            G = builtin_group(name)
            for sigma in itertools.product(G.elements, repeat=G.order):
                lhs = assoc(make_sigma_pi1(G, sigma)).holds
                rhs = all(sigma[sigma[a]] == sigma[a] for a in G.elements)
                assert lhs == rhs, (name, sigma)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s, bound is 1s"


def test_c02_consequence_sweep_all_enumerated():
    with criterion(2, "consequence sweep (a)-(d) on Z1-Z4 and V4"):
        start = time.perf_counter()
        failures = []
        for name in ORDER_LE_4:
            for obj in skew_structures(name):
                report = skew_truss_consequence_report(obj)
                for claim in report.claims:
                    if claim.applicable and not claim.holds:
                        failures.append((name, obj.sigma, claim.name, claim.witness))
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"sweep took {elapsed:.2f}s, bound is 60s"
        assert not failures, (
            f"{len(failures)} consequence failures "
            f"(group, sigma, claim, witness), first: {failures[0]}"
        )


def test_c03_parametrization_oracle():
    with criterion(3, "raw-axiom oracle equals parametrized search on Z2, Z3"):
        for name in ("Z2", "Z3"):
            G = builtin_group(name)
            skew = enumerate_skew_trusses(G)
            oracle = raw_skew_truss_search(G)
            assert skew.total_count == oracle.count
            assert (
                tuple(sorted(o.structure_key() for o in skew.structures))
                == oracle.keys
            )
            inter = enumerate_interchange(G)  # embeds its own oracle check
            assert inter.total_count == raw_interchange_search(G).count
        assert enumerate_interchange(builtin_group("Z2")).total_count == 4


def test_c04_distributivity_biconditional_random_ditrusses():
    with criterion(4, "left distributivity of dot iff skew distributivity of circ"):
        rng = random.Random(20240811)
        groups = [builtin_group(n) for n in ORDER_LE_6]
        endos = {g.name: enumerate_endomorphisms(g) for g in groups}
        positives = 0
        for i in range(10_000):
            G = groups[rng.randrange(len(groups))]
            n = G.order
            if i % 3 == 0:
                # circ built from endomorphism rows: dot comes out distributive
                rows = [endos[G.name][rng.randrange(len(endos[G.name]))].images for _ in range(n)]
                sigma = tuple(rng.randrange(n) for _ in range(n))
                circ = binop(G, [[G.add(sigma[a], rows[a][b]) for b in range(n)] for a in range(n)])
            else:
                circ = binop(G, [[rng.randrange(n) for _ in range(n)] for _ in range(n)])
                sigma = tuple(rng.randrange(n) for _ in range(n))
            dot = op_left_difference(circ, make_sigma_pi1(G, sigma))
            obj = make_ditruss(G, sigma, circ, dot)
            assert check(obj).ok  # Eq-of-kinds holds by construction
            left = is_left_distributive(dot).holds
            skew = is_left_skew_sigma_distributive(circ, sigma).holds
            assert left == skew, (G.name, sigma, circ.table)
            positives += left
        assert positives > 100  # both directions genuinely exercised


def test_c05_skew_weak_round_trip_and_morphism_sets():
    with criterion(5, "skew<->weak round trip and morphism-set bijection, n <= 4"):
        for name in ORDER_LE_4:
            G = builtin_group(name)
            eligible = [
                o
                for o in skew_structures(name)
                if o.sigma_flags().endomorphism and o.sigma_flags().idempotent
            ]
            images = []
            for obj in eligible:
                weak, _ = truss_to_weak(obj)
                assert weak.verified
                back, _ = weak_to_truss(weak)
                assert back.structure_key() == obj.structure_key()
                images.append((obj, weak))
            # morphism sets match pairwise (capped deterministically)
            pairs = images[:12]
            for A, WA in pairs:
                for B, WB in pairs:
                    skew_morphisms = {
                        h
                        for h in carrier_bijections(G.order)
                        if is_skew_truss_morphism(h, A, B)
                    }
                    weak_morphisms = {
                        h
                        for h in carrier_bijections(G.order)
                        if is_weak_truss_morphism(h, WA, WB)
                    }
                    assert skew_morphisms == weak_morphisms


def test_c06_split_circ_equivalences():
    with criterion(6, "split-circ skew-truss equivalences on Z4, V4, S3, D4"):
        for name in ("Z4", "V4", "S3", "D4"):
            G = builtin_group(name)
            idem = [
                e for e in enumerate_endomorphisms(G) if is_idempotent_map(e)
            ]
            for s, t in itertools.product(idem, repeat=2):
                circ = op_add(make_sigma_pi1(G, s), make_tau_pi2(G, t))
                obj = make_skew_truss(G, circ, s.images)
                a_holds = check(obj).ok and lambda_family(obj).constant
                b_holds = compose_commute(s, t)
                swapped = op_add(make_sigma_pi1(G, t), make_tau_pi2(G, s))
                d_holds = check(make_skew_truss(G, swapped, t.images)).ok
                assert a_holds == b_holds == d_holds, (name, s.images, t.images)
                if a_holds:
                    assert is_right_skew_sigma_distributive(circ, t.images).holds
                    assert is_right_skew_sigma_distributive(swapped, s.images).holds


def test_c07_interchange_correspondence_counts():
    with criterion(7, "constant-lambda ditrusses match associative interchange"):
        for name in ORDER_LE_8:
            G = builtin_group(name)
            dits = enumerate_constant_lambda_ditrusses(G, image_commuting_only=True)
            nrs = enumerate_interchange(G, associative_only=True)
            assert dits.total_count == nrs.total_count, name
            forward_keys = []
            for d in dits.structures:
                nr, _ = ditruss_to_interchange(d)
                back, _ = interchange_to_ditruss(nr)
                assert back.structure_key() == d.structure_key()
                forward_keys.append(nr.structure_key())
            assert sorted(forward_keys) == sorted(
                o.structure_key() for o in nrs.structures
            )
            for o in nrs.structures:
                d, _ = interchange_to_ditruss(o)
                nr2, _ = ditruss_to_interchange(d)
                assert nr2.structure_key() == o.structure_key()


def test_c08_involutions():
    with criterion(8, "involutions square to the identity; canonical form stable"):
        for name in ORDER_LE_8:
            G = builtin_group(name)
            for d in enumerate_constant_lambda_ditrusses(G).structures:
                once, _ = ditruss_involution(d)
                twice, _ = ditruss_involution(once)
                assert twice.structure_key() == d.structure_key()
                c = canonical_form(d)
                assert canonical_form(c).structure_key() == c.structure_key()
            for o in enumerate_interchange(G).structures:
                once, _ = interchange_opposite(o)
                twice, _ = interchange_opposite(once)
                assert twice.structure_key() == o.structure_key()
                c = canonical_form(o)
                assert canonical_form(c).structure_key() == c.structure_key()
        for name in ORDER_LE_4:
            for obj in skew_structures(name):
                c = canonical_form(obj)
                assert canonical_form(c).structure_key() == c.structure_key()


def test_c09_ideal_congruence_bijection():
    with criterion(9, "ideals biject with congruences on order <= 6 corpus"):
        corpus = []
        for name in ("Z1", "Z2", "Z3", "Z4", "Z5", "V4"):
            corpus.extend(skew_structures(name))
        corpus.extend(order_six_representatives())
        corpus.extend(order_six_extras())
        assert sum(o.group.order == 6 for o in corpus) > 3361
        for T in corpus:
            ids = ideals(T)
            cgs = congruences(T)
            assert len(ids) == len(cgs), (T.group.name, T.sigma)
            derived = sorted(congruence_from_ideal(T, I) for I in ids)
            assert derived == list(cgs)
            for I in ids:
                assert ideal_from_congruence(T, congruence_from_ideal(T, I)) == I


def test_c10_zero_symmetric_characterization():
    with criterion(10, "0-symmetric iff sigma-absorbing, all sigma(0)=0 trusses"):
        checked = 0
        for name in ("Z1", "Z2", "Z3", "Z4", "Z5", "V4"):
            for T in skew_structures(name):
                if T.sigma[0] != 0:
                    continue
                is_zero_symmetric(T)  # raises if the biconditional breaks
                checked += 1
        for T in order_six_representatives():
            if T.sigma[0] == 0:
                is_zero_symmetric(T)
                checked += 1
        for T in order_six_extras():
            is_zero_symmetric(T)
            checked += 1
        assert checked > 3000


def test_c11_fixtures_reproduce_via_cli(capsys, tmp_path):
    with criterion(11, "checked-in fixtures reproduce via the CLI"):
        def run_json(*argv):
            code = cli_main(list(argv))
            out = capsys.readouterr().out
            return code, json.loads(out)

        # pairing 1: circ(a,b) = sigma(a+b) corresponds to dot = sigma-pi2
        code, payload = run_json(
            "convert", "--input", str(FIXTURES / "pairing_sum_skew.json"),
            "--to", "weak-truss",
        )
        assert code == 0
        assert payload["result"]["dot"] == [[3 * b % 6 for b in range(6)]] * 6
        assert payload["result"]["sigma"] == [3 * a % 6 for a in range(6)]

        # pairing 2: near-ring (pi2, 0); transformed dot stays pi2, and the
        # identity-sigma weak truss verifies in its own right
        code, payload = run_json(
            "convert", "--input", str(FIXTURES / "pairing_near_ring_skew.json"),
            "--to", "weak-truss",
        )
        assert code == 0
        assert payload["result"]["dot"] == [[0, 1, 2, 3]] * 4
        code, payload = run_json(
            "verify", "--input", str(FIXTURES / "pairing_weak_identity_sigma.json")
        )
        assert code == 0 and payload["verified"]

        # pairing 3: skew ring (pi1, id) corresponds to the zero dot
        code, payload = run_json(
            "convert", "--input", str(FIXTURES / "pairing_skew_ring.json"),
            "--to", "weak-truss",
        )
        assert code == 0
        assert payload["result"]["dot"] == [[0] * 4] * 4

        # split-circ ditruss decomposes as T0 = ker(tau), Tc = tau(G)
        code, payload = run_json(
            "decompose", "--input", str(FIXTURES / "split_ditruss.json")
        )
        assert code == 0
        assert payload["T0"] == [0, 2] and payload["Tc"] == [0, 1]

        # zero-dot ditruss: constant lambda family at 0, differing from sigma
        code, payload = run_json(
            "report", "--input", str(FIXTURES / "zero_dot_ditruss.json")
        )
        assert code == 0
        assert payload["lambda"]["constant"] is True
        assert payload["lambda"]["maps"][0] == [0, 0, 0, 0]
        fixture = json.loads((FIXTURES / "zero_dot_ditruss.json").read_text())
        assert fixture["sigma"] == [0, 0, 2, 2] != payload["lambda"]["maps"][0]
