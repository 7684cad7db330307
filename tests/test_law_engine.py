"""The bytes law engine against its scalar reference.

Every library predicate must return the same LawReport (law, holds,
witness, lhs, rhs) as the plain scan in law_reference.py.  Inputs are random
tables and maps, valid structures from the enumerators, and the same
structures with one or two cells of a table (or one entry of sigma)
changed, so that passing laws, failures at the first tuples and failures
deep in the scan all occur.  The witness-edge cases change only the last
or only the first cell (or entry of sigma), on Z1, Z8, Q8 and Z13.  The
interchange law, decided by its split into two endomorphisms with
commuting images, is also run on inline Z16, Z17 and Z32, and on tables
that split but break the law.

The left skew law is decided once per (row, shift) pair and group table,
and the passing pairs are kept: the same bytes are sent to two groups of
one order in turn, with the memo cold and then warm, and the one-cell
corruptions of enumerated keys go through verify_key, which must raise
the first failing report of check().
"""

import functools
import itertools
import random

import law_reference as ref
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trusslab import (
    binop,
    builtin_group,
    builtin_names,
    enumerate_constant_lambda_ditrusses,
    enumerate_endomorphisms,
    enumerate_interchange,
    enumerate_skew_trusses,
    enumerate_weak_trusses,
    make_sigma_pi1,
    ops,
)
from trusslab.errors import InputError, VerificationFailed
from trusslab.groups import validate_group
from trusslab.structures import (
    DITRUSS,
    SKEW_TRUSS,
    WEAK_TRUSS,
    check,
    make_algebra,
    split_key,
    verify_key,
)

GROUPS = ["Z1", "Z2", "Z3", "V4", "S3", "D4", "Q8", "Z8"]
# the witness-edge cases: order 1, two groups of order 8, and Z13
EDGE_GROUPS = ["Z1", "Z8", "Q8", "Z13"]
# cyclic groups built inline; the catalog stops at order 8
INLINE_CYCLIC = {"Z13": 13, "Z16": 16, "Z17": 17, "Z32": 32}

# (name, takes sigma) for every law predicate of trusslab.ops
LAWS = [
    ("is_associative", False),
    ("is_left_distributive", False),
    ("is_right_distributive", False),
    ("is_left_skew_sigma_distributive", True),
    ("is_right_skew_sigma_distributive", True),
    ("is_left_weak_sigma_associative", True),
    ("satisfies_interchange", False),
]


@functools.lru_cache(maxsize=None)
def group(name):
    """A built-in group, or one of INLINE_CYCLIC."""
    if name in INLINE_CYCLIC:
        n = INLINE_CYCLIC[name]
        return validate_group([[(a + b) % n for b in range(n)] for a in range(n)], name)
    return builtin_group(name)


def law_reports(f, sigma):
    """(library report, reference report) for every law on (f, sigma)."""
    out = []
    for name, takes_sigma in LAWS:
        args = (f, sigma) if takes_sigma else (f,)
        out.append((getattr(ops, name)(*args), getattr(ref, name)(*args)))
    return out


@functools.lru_cache(maxsize=None)
def valid_structures(name):
    """(sigma, circ rows, dot rows) of valid structures on the group; circ
    or dot is None where the kind has none.  Skew and weak trusses come from
    the full searches on the groups of order <= 4 (weak: <= 3), constant-
    lambda ditrusses and interchange near-rings from their enumerators on
    every group."""
    G = group(name)
    out = []
    if G.order <= 4:
        for o in enumerate_skew_trusses(G).structures:
            out.append((o.sigma, o.circ.table, None))
    if G.order <= 3:
        for o in enumerate_weak_trusses(G).structures:
            out.append((o.sigma, None, o.dot.table))
    for o in enumerate_constant_lambda_ditrusses(G).structures:
        out.append((o.sigma, o.circ.table, o.dot.table))
    for o in enumerate_interchange(G).structures:
        out.append((tuple(row[0] for row in o.circ.table), o.circ.table, None))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def valid_law_cases(name):
    """(table, sigma) pairs on which some laws hold: each valid structure's
    tables with its sigma, a split circ sigma-pi1 + tau-pi2 with its column
    map tau (right skew tau-distributive), and sigma-pi1 for every
    endomorphism sigma (right distributive)."""
    G = group(name)
    cases = []
    for sigma, circ, dot in valid_structures(name):
        for table in (circ, dot):
            if table is not None:
                cases.append((table, sigma))
        if circ is not None and dot is not None:
            cases.append((circ, dot[0]))
    for e in enumerate_endomorphisms(G):
        cases.append((make_sigma_pi1(G, e).table, e.images))
    return tuple(cases)


def corrupt(below, table, n, cells):
    """table with `cells` entries overwritten; below(k) picks from 0..k-1."""
    rows = [list(r) for r in table]
    for _ in range(cells):
        a, b, v = (below(n) for _ in range(3))
        rows[a][b] = v
    return rows


def drawn_below(draw):
    return lambda k: draw(st.integers(0, k - 1))


@st.composite
def law_inputs(draw):
    name = draw(st.sampled_from(GROUPS))
    G = builtin_group(name)
    n = G.order
    element = st.integers(0, n - 1)
    source = draw(st.sampled_from(["random", "valid", "corrupt-table", "corrupt-sigma"]))
    if source == "random":
        table = draw(st.lists(st.lists(element, min_size=n, max_size=n), min_size=n, max_size=n))
        sigma = tuple(draw(st.lists(element, min_size=n, max_size=n)))
    else:
        table, sigma = draw(st.sampled_from(valid_law_cases(name)))
        if source == "corrupt-table":
            cells = draw(st.integers(1, 2))
            table = corrupt(drawn_below(draw), table, n, cells)
        elif source == "corrupt-sigma":
            sigma = list(sigma)
            sigma[draw(element)] = draw(element)
            sigma = tuple(sigma)
    return binop(G, table), sigma


@settings(max_examples=400, deadline=None)
@given(law_inputs())
def test_law_reports_match_scalar_reference(case):
    f, sigma = case
    for library, reference in law_reports(f, sigma):
        assert library == reference


@functools.lru_cache(maxsize=None)
def valid_ditrusses(name):
    """(sigma, circ, dot) with sigma(a) + a.b = a o b, from every valid
    structure with a circ table (the dot derived where it has none)."""
    G = group(name)
    add, inv, n = G.table, G.inverse, G.order
    out = []
    for sigma, circ, dot in valid_structures(name):
        if circ is not None:
            if dot is None:
                dot = tuple(
                    tuple(add[inv[sigma[a]]][circ[a][b]] for b in range(n)) for a in range(n)
                )
            out.append((sigma, circ, dot))
    return tuple(out)


@st.composite
def ditruss_inputs(draw):
    name = draw(st.sampled_from(GROUPS))
    G = builtin_group(name)
    n = G.order
    element = st.integers(0, n - 1)
    sigma, circ, dot = draw(st.sampled_from(valid_ditrusses(name)))
    source = draw(st.sampled_from(["valid", "corrupt-circ", "corrupt-dot", "random-dot"]))
    if source == "corrupt-circ":
        circ = corrupt(drawn_below(draw), circ, n, draw(st.integers(1, 2)))
    elif source == "corrupt-dot":
        dot = corrupt(drawn_below(draw), dot, n, draw(st.integers(1, 2)))
    elif source == "random-dot":
        dot = draw(st.lists(st.lists(element, min_size=n, max_size=n), min_size=n, max_size=n))
    return make_algebra(G, DITRUSS, sigma=sigma, circ=circ, dot=dot)


@settings(max_examples=200, deadline=None)
@given(ditruss_inputs())
def test_ditruss_compatibility_matches_scalar_reference(obj):
    assert check(obj).reports[0] == ref.ditruss_compatibility(obj)


def test_reports_cover_holds_early_and_late_failures():
    """A seeded sweep over every group: each law passes somewhere, fails at
    a witness starting with 0 somewhere, and fails at a witness starting in
    the second half of the carrier somewhere, with identical reports."""
    rng = random.Random(6)
    seen = {name: set() for name, _ in LAWS}
    for group in GROUPS:
        G = builtin_group(group)
        n = G.order
        cases = valid_law_cases(group)
        for table, sigma in rng.sample(cases, min(len(cases), 60)):
            for cells in (0, 1, 2):
                f = binop(G, corrupt(rng.randrange, table, n, cells))
                for (name, _), (library, reference) in zip(LAWS, law_reports(f, sigma)):
                    assert library == reference
                    if library.holds:
                        seen[name].add("holds")
                    elif library.witness[0] == 0:
                        seen[name].add("early")
                    elif library.witness[0] >= n // 2:
                        seen[name].add("late")
    assert all(kinds == {"holds", "early", "late"} for kinds in seen.values()), seen


def test_order_one_every_law_holds():
    G = builtin_group("Z1")
    f = binop(G, [[0]])
    for library, reference in law_reports(f, (0,)):
        assert library == reference
        assert library.holds and library.witness is None
    obj = make_algebra(G, DITRUSS, sigma=(0,), circ=[[0]], dot=[[0]])
    assert check(obj).reports[0] == ref.ditruss_compatibility(obj)
    assert check(obj).reports[0].holds


def test_order_two_exhaustive():
    """Every table and map on Z2, and every (sigma, circ, dot) triple."""
    G = builtin_group("Z2")
    tables = [[list(t[:2]), list(t[2:])] for t in itertools.product(range(2), repeat=4)]
    maps = list(itertools.product(range(2), repeat=2))
    failures = 0
    for rows in tables:
        f = binop(G, rows)
        for sigma in maps:
            for library, reference in law_reports(f, sigma):
                assert library == reference
                failures += not library.holds
    assert failures
    for sigma, circ, dot in itertools.product(maps, tables, tables):
        obj = make_algebra(G, DITRUSS, sigma=sigma, circ=circ, dot=dot)
        assert check(obj).reports[0] == ref.ditruss_compatibility(obj)


def edge_changes(n, tables, sigma):
    """For i = n - 1, then i = 0: each table with only cell (i, i) changed,
    then sigma with only sigma(i) changed.  Yields (end, tables, sigma)."""
    for i in (n - 1, 0):
        for k in range(len(tables)):
            changed = [[list(row) for row in t] for t in tables]
            changed[k][i][i] = (changed[k][i][i] + 1) % n
            yield i, changed, sigma
        s = list(sigma)
        s[i] = (s[i] + 1) % n
        yield i, [[list(row) for row in t] for t in tables], tuple(s)


def spread(cases, k=8):
    """k cases spread evenly over the list, first and last included."""
    step = max(1, (len(cases) - 1) // (k - 1))
    return list(cases[::step]) + [cases[-1]]


@pytest.mark.parametrize("name", EDGE_GROUPS)
def test_witness_edges(name):
    """Valid structures with only the last cell of a table (or the last
    entry of sigma) changed, so that the first violation sits late in the
    scan, and with only the first one changed.  Every law and the ditruss
    axiom report exactly what the scalar scan reports."""
    G = group(name)
    n = G.order
    first = {"late": set(), "early": set()}
    for table, sigma in spread(valid_law_cases(name)):
        for i, (rows,), s in edge_changes(n, [table], sigma):
            f = binop(G, rows)
            for (law, _), (library, reference) in zip(LAWS, law_reports(f, s)):
                assert library == reference, (law, rows, s)
                if not library.holds:
                    first["late" if i else "early"].add(library.witness[0])
    for sigma, circ, dot in spread(valid_ditrusses(name)):
        for _, (c, d), s in edge_changes(n, [circ, dot], sigma):
            obj = make_algebra(G, DITRUSS, sigma=s, circ=c, dot=d)
            assert check(obj).reports[0] == ref.ditruss_compatibility(obj)
    if n > 1:  # both ends of the scan were reached
        assert n - 1 in first["late"] and 0 in first["early"], first


@pytest.mark.parametrize("name", ["Z16", "Z17", "Z32"])
def test_interchange_route_boundary(name):
    """Interchange near-rings a o b = alpha*a + beta*b on Z16, Z17 and Z32:
    as they are, with only the last or only the first cell changed, and
    with the last row shifted, which first fails at w = 1.  Every report
    is the scalar scan's.  No route boundary remains: every carrier is
    decided by the split test, and a failing one scanned per w."""
    G = group(name)
    n = G.order

    def report(rows):
        f = binop(G, rows)
        library = ops.satisfies_interchange(f)
        assert library == ref.satisfies_interchange(f)
        return library

    for alpha, beta in ((1, 1), (3, n - 2), (0, 5)):
        table = [[(alpha * a + beta * b) % n for b in range(n)] for a in range(n)]
        assert report(table).holds
        for i in (n - 1, 0):
            changed = [list(row) for row in table]
            changed[i][i] = (changed[i][i] + 1) % n
            assert not report(changed).holds
        shifted = table[:-1] + [[(x + 1) % n for x in table[-1]]]
        assert report(shifted).witness[0] == 1


def split_table(G, eps, eta):
    """The rows of a o b = eps(a) + eta(b)."""
    n = G.order
    flat = ops.sum_of_projections(G, eps, eta)
    return [list(flat[a * n:(a + 1) * n]) for a in range(n)]


def test_split_test_decides_valid_tables(monkeypatch):
    """With the witness scan made to raise, every interchange near-ring of
    every catalog group, and a o b = alpha*a + beta*b on inline Z16, Z17
    and Z32, still passes: the split test alone decides them."""
    tables = [(o.group, o.circ.table) for name in builtin_names()
              for o in enumerate_interchange(group(name)).structures]
    for name in ("Z16", "Z17", "Z32"):
        G = group(name)
        n = G.order
        for alpha, beta in ((1, 1), (3, n - 2), (0, 5), (0, 0)):
            tables.append((G, [[(alpha * a + beta * b) % n for b in range(n)] for a in range(n)]))

    def scan(G, rows):
        raise AssertionError("the witness scan ran on a valid table")

    monkeypatch.setattr(ops, "_interchange_witness", scan)
    for G, rows in tables:
        assert ops.satisfies_interchange(binop(G, rows)).holds


def test_split_tables_that_break_the_law():
    """Tables a o b = eps(a) + eta(b) that fail the law: on S3 with
    eps = eta = id (the images do not commute), on Z4 with a non-homomorphic
    eps or eta, on Z5 with a non-homomorphic eta, and every one-cell change
    of each interchange near-ring on V4 and S3.  Every report is the scalar
    scan's."""
    cases = []
    S3, Z4, Z5 = group("S3"), group("Z4"), group("Z5")
    cases.append((S3, split_table(S3, range(6), range(6))))
    cases.append((Z4, split_table(Z4, (0, 1, 1, 0), range(4))))
    cases.append((Z4, split_table(Z4, range(4), (0, 1, 1, 0))))
    cases.append((Z5, split_table(Z5, (0, 2, 4, 1, 3), (0, 1, 1, 2, 2))))
    for name in ("V4", "S3"):
        G = group(name)
        n = G.order
        for o in enumerate_interchange(G).structures:
            for a, b in itertools.product(range(n), repeat=2):
                rows = [list(r) for r in o.circ.table]
                rows[a][b] = (rows[a][b] + 1) % n
                cases.append((G, rows))
    for G, rows in cases:
        f = binop(G, rows)
        library = ops.satisfies_interchange(f)
        assert not library.holds
        assert library == ref.satisfies_interchange(f), rows


def test_right_laws_stop_at_a_violation_at_zero(monkeypatch):
    """No later column beats a violation at (a, b) = (0, 0), since ties
    keep the smaller c: a table failing at (0, 0, 0) builds the blocks of
    one column, and a passing one those of all n.  The reports are the
    scalar scan's."""
    columns = []
    blocks = ops._skew_blocks

    def counted(*args):
        for pair in blocks(*args):
            columns.append(pair)
            yield pair

    monkeypatch.setattr(ops, "_skew_blocks", counted)
    for name in ("Z4", "S3", "Q8"):
        G = group(name)
        n = G.order
        ones, zero = binop(G, [[1] * n] * n), binop(G, [[0] * n] * n)
        for law, args, fails in (
            ("is_right_distributive", (ones,), True),  # (0+0)*0 = 1 != 1 + 1
            ("is_right_skew_sigma_distributive", (zero, (1,) * n), True),  # 0 != 0 - 1 + 0
            ("is_right_distributive", (zero,), False),
        ):
            columns.clear()
            library = getattr(ops, law)(*args)
            assert library == getattr(ref, law)(*args)
            assert library.holds is not fails
            assert len(columns) == (1 if fails else n), (name, law)


def memo(G):
    """The passing (row, shift) pairs the law engine keeps for G's table."""
    return ops.addition_maps(G).endomorphic


def shared_rows(G, H):
    """Rows as bytes that G and H, two groups of one order, both read: the
    endomorphisms of each, and each shifted by 1 in each group."""
    endos = {bytes(e.images) for K in (G, H) for e in enumerate_endomorphisms(K)}
    shifted = {bytes(K.table[1][x] for x in e) for K in (G, H) for e in endos}
    return sorted(endos | shifted)


@pytest.mark.parametrize("pair", [("Z4", "V4"), ("Z6", "S3")], ids=["Z4-V4", "Z6-S3"])
def test_row_memo_is_kept_per_group_table(pair):
    """Each row, under shift 0 and shift 1, in a table whose row 0 is zero
    (so a failure is witnessed at a = 1), on the two groups in turn: every
    law reports what the scalar scan reports, with the memo emptied first
    and then with the memo the first pass left.  Some row passes the left
    skew law on one group and fails it on the other."""
    G, H = group(pair[0]), group(pair[1])
    n = G.order
    cases = []
    for row in shared_rows(G, H):
        for shift in (0, 1):
            for K in (G, H):
                cases.append((K, [bytes(n), *[row] * (n - 1)], (0,) + (shift,) * (n - 1)))
    memo(G).clear()
    memo(H).clear()
    verdicts = {}
    for warm in (False, True):
        for K, rows, sigma in cases:
            f = binop(K, [list(r) for r in rows])
            for library, reference in law_reports(f, sigma):
                assert library == reference, (K.name, rows, sigma, warm)
            verdict = ops.is_left_skew_sigma_distributive(f, sigma).holds
            assert verdicts.setdefault((K.name, rows[1], sigma[1]), verdict) == verdict
        assert memo(G) and memo(H)
    split = {(row, shift) for (name, row, shift), holds in verdicts.items()
             if holds != verdicts[(H.name if name == G.name else G.name, row, shift)]}
    assert split
    assert {shift for _, shift in split} == {0, 1}


def test_row_memo_is_bounded(monkeypatch):
    """A memo that reaches ROW_MEMO_SIZE pairs is emptied before it grows,
    and the reports stay the scalar scan's."""
    monkeypatch.setattr(ops, "ROW_MEMO_SIZE", 5)
    G = group("Z8")
    n = G.order
    memo(G).clear()
    for e in enumerate_endomorphisms(G):
        for shift in range(n):
            row = bytes(G.table[shift][x] for x in e.images)
            f = binop(G, [list(row)] * n)
            assert ops.is_left_skew_sigma_distributive(f, (shift,) * n).holds
            assert len(memo(G)) <= 5
    assert memo(G)


def object_of(G, kind, key):
    """The unverified object of a structure_bytes() key of kind."""
    n = G.order
    sigma, table = split_key(kind, n, key)
    rows = [table[i:i + n] for i in range(0, n * n, n)]
    return make_algebra(G, kind, sigma=sigma, **{"circ" if kind == SKEW_TRUSS else "dot": rows})


@pytest.mark.parametrize(
    "name, kind",
    [("V4", SKEW_TRUSS), ("Z5", SKEW_TRUSS), ("V4", WEAK_TRUSS)],
    ids=["V4-skew", "Z5-skew", "V4-weak"],
)
def test_verify_key_raises_the_first_failing_report(name, kind):
    """Every one-cell change of some representatives' keys, in sigma or
    in the table, with the memo emptied first and then with the memo the
    first pass left: verify_key raises VerificationFailed with the first
    failing report of check() on the same object, or, where check()
    passes, returns the key.  Every change of a table cell fails, since on
    three or more elements an endomorphism changed at one element is
    none."""
    G = group(name)
    n = G.order
    enumerate_kind = enumerate_skew_trusses if kind == SKEW_TRUSS else enumerate_weak_trusses
    keys = spread(enumerate_kind(G).representative_keys, 12)
    memo(G).clear()
    for key in keys + keys:
        for i, v in itertools.product(range(len(key)), range(n)):
            if v == key[i]:
                continue
            changed = key[:i] + bytes([v]) + key[i + 1:]
            reports = check(object_of(G, kind, changed)).reports
            failing = [r for r in reports if not r.holds]
            assert failing or i < n, (key, i, v)
            if not failing:
                assert verify_key(G, kind, changed) == changed
                continue
            with pytest.raises(VerificationFailed) as raised:
                verify_key(G, kind, changed)
            assert raised.value.report == failing[0], (key, i, v)


@pytest.mark.parametrize("kind", [SKEW_TRUSS, WEAK_TRUSS])
def test_verify_key_refuses_sigma_as_make_algebra_does(kind):
    """A sigma entry outside the carrier, or a key cut short inside sigma,
    raises the InputError that make_algebra raises for that sigma."""
    G = group("V4")
    table = {"circ" if kind == SKEW_TRUSS else "dot": [[0] * 4] * 4}
    key = bytes(20)
    for bad in (b"\x04" + key[1:], key[:3] + b"\xff" + key[4:], key[:3]):
        with pytest.raises(InputError) as expected:
            make_algebra(G, kind, sigma=tuple(bad[:4]), **table)
        with pytest.raises(InputError) as raised:
            verify_key(G, kind, bad)
        assert str(raised.value) == str(expected.value)
