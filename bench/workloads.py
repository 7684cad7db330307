"""The three workloads: set-up, one round of operations, and the check of
a round's outputs against the reference checker.

Nothing here imports trusslab at module level: ``setup`` does, so that the
set-up time includes the import.

* enum-search: ``trusslab enumerate --up-to-iso`` for skew trusses on V4
  (few sigma, large lambda space) and Z5 (many sigma, small lambda space),
  through ``trusslab.cli.main``.
* enum-canon: the same command for interchange near-rings on D4 and Q8,
  where canonical forms take nearly all of the time.
* queries: the per-object path (parse, check, reports, convert, decompose,
  ideals, congruences, isomorphism, serialisation) over a seeded corpus of
  all four kinds on groups of order 4-8, plus one-cell corruptions that must
  fail and four malformed documents that must be refused as input errors.

For the enumeration workloads the seed relabels the carrier (a permutation
fixing 0), so the command gets a different but isomorphic input each time;
the counts are isomorphism invariants and stay pinned.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import sys

import checker as ck

# (group, kind, total_count, iso_class_count); the counts come from the
# program (see README), the class equation is the independent check
ENUM_JOBS = {
    "enum-search": (("V4", ck.SKEW, 618, 126), ("Z5", ck.SKEW, 622, 164)),
    "enum-canon": (("D4", ck.INTERCHANGE, 560, 162), ("Q8", ck.INTERCHANGE, 208, 31)),
}

QUERY_GROUPS = ("Z4", "V4", "Z5", "Z6", "S3", "Z7", "Z8", "D4", "Q8")
KINDS = (ck.SKEW, ck.WEAK, ck.DITRUSS, ck.INTERCHANGE)
# Per (group, kind): valid objects, and one-cell corruptions of them that
# must fail. The corruptions are cheap checks on failing objects; their
# number also places the 99th percentile of a round's 1,588 operations (the
# 16th slowest) among the 12 order-8 congruence scans, below the 8
# isomorphism tests of Q8 interchange near-rings, rather than on the edge
# between two unlike groups of operations.
VALID_PER_CELL = 4
CORRUPTIONS_PER_CELL = 18
OPS = {
    ck.SKEW: ("load", "report", "convert", "decompose", "ideals", "iso_same", "iso_diff", "to_json"),
    ck.WEAK: ("load", "report", "convert", "iso_same", "iso_diff", "to_json"),
    ck.DITRUSS: ("load", "report", "convert", "decompose", "iso_same", "iso_diff", "to_json"),
    ck.INTERCHANGE: ("load", "convert", "iso_same", "iso_diff", "to_json"),
}
CONVERT_TARGET = {
    ck.SKEW: ck.WEAK,
    ck.WEAK: ck.SKEW,
    ck.DITRUSS: ck.DITRUSS,
    ck.INTERCHANGE: ck.DITRUSS,
}


def _shifted_z4(**change) -> dict:
    """The shifted Z4 truss a o b = a + 1 + b, sigma(a) = a + 1."""
    doc = {
        "kind": ck.SKEW,
        "group": "Z4",
        "sigma": [1, 2, 3, 0],
        "circ": [[(a + 1 + b) % 4 for b in range(4)] for a in range(4)],
    }
    doc.update(change)
    return doc


def _malformed() -> list[dict]:
    """Documents whose correct outcome is an input error. Today the string
    sigma crashes with a TypeError and the other three are coerced by int()
    and verify as PASS, so each counts as a failed operation."""
    base = _shifted_z4()
    cell_float = [row[:] for row in base["circ"]]
    cell_float[0][0] = 1.2
    cell_string = [row[:] for row in base["circ"]]
    cell_string[0][0] = "1"
    return [
        _shifted_z4(sigma="1230"),
        _shifted_z4(circ=cell_float),
        _shifted_z4(sigma=[1, 2, 3, False]),
        _shifted_z4(circ=cell_string),
    ]


class Lib:
    """The trusslab modules, imported during set-up."""

    def __init__(self):
        self.cli = importlib.import_module("trusslab.cli")
        self.catalog = importlib.import_module("trusslab.catalog")
        self.groups = importlib.import_module("trusslab.groups")
        self.structures = importlib.import_module("trusslab.structures")
        self.transforms = importlib.import_module("trusslab.transforms")
        self.substructure = importlib.import_module("trusslab.substructure")
        self.enumeration = importlib.import_module("trusslab.enumeration")
        self.errors = importlib.import_module("trusslab.errors")


def install_patches(lib: Lib, tracer) -> None:
    """Trace the calls between trusslab modules that the spans need, as the
    calling modules see them."""
    E = lib.enumeration
    for attr in (
        "enumerate_skew_trusses",
        "enumerate_weak_trusses",
        "enumerate_interchange",
        "enumerate_constant_lambda_ditrusses",
    ):
        tracer.patch(E, attr, "enumeration.enumerate", info=_enum_info)
    tracer.patch(E, "canonical_form", "enumeration.canonical_form")
    tracer.patch(E, "canonical_key", "enumeration.canonical_key")
    tracer.patch(E, "relabel_structure", "enumeration.relabel")
    for original, name in (
        (lib.structures.verify, "structures.verify"),
        (lib.groups.enumerate_endomorphisms, "groups.endomorphisms"),
    ):
        for mod in [m for k, m in sys.modules.items() if k.startswith("trusslab")]:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    tracer.patch(mod, attr, name)


def _enum_info(result):
    return {
        "candidates": result.search_stats["candidates"],
        "structures": result.total_count,
        "classes": result.iso_class_count,
    }


def _out_dir(root: str) -> str:
    path = os.path.join(root, "bench", "out", "inputs")
    os.makedirs(path, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# enumeration workloads

def setup_enum(workload: str, seed: int, root: str, tracer, clock) -> dict:
    t0 = clock()
    lib = Lib()
    install_patches(lib, tracer)
    rng = random.Random(seed)
    jobs = []
    for name, kind, total, classes in ENUM_JOBS[workload]:
        table = lib.catalog.builtin_group(name).table
        n = len(table)
        h = [0] + rng.sample(range(1, n), n - 1)
        add = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                add[h[a]][h[b]] = h[table[a][b]]
        doc = {"name": name, "order": n, "table": add}
        path = os.path.join(_out_dir(root), f"{workload}-{seed}-{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        tracer.call("groups.load", lib.groups.group_from_json, doc)
        argv = ["enumerate", "--group", path, "--kind", kind, "--up-to-iso"]
        jobs.append({"argv": argv, "add": add, "name": name, "kind": kind,
                     "total": total, "classes": classes})
    tracer.unpatch()
    return {"lib": lib, "jobs": jobs, "checked": {}, "setup_s": clock() - t0}


def round_enum(state: dict, tracer, clock) -> list:
    """One round, the workload's only operation: every job once, one after
    the other. Returns [("jobs", seconds, [(job, rc or exception, stdout)])]."""
    jobs = []
    t0 = clock()
    for i, job in enumerate(state["jobs"]):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = tracer.call("cli.job", state["lib"].cli.main, job["argv"])
            except Exception as exc:  # the outcome is checked, not raised
                rc = exc
        jobs.append((i, rc, stdout.getvalue()))
    return [("jobs", clock() - t0, jobs)]


def check_enum(state: dict, results) -> tuple[list[str], int]:
    """(problems, failed operations) of one round."""
    problems, failed = [], 0
    for _key, _latency, jobs in results:
        crashed = False
        for i, rc, text in jobs:
            job = state["jobs"][i]
            label = f"{job['name']}/{job['kind']}"
            if isinstance(rc, Exception):
                crashed = True
                continue
            if state["checked"].get(i) == (rc, text):
                continue
            found = _check_job(job, rc, text)
            problems += [f"{label}: {p}" for p in found]
            if not found:
                state["checked"][i] = (rc, text)
        failed += crashed
    return problems, failed


def _check_job(job: dict, rc, text: str) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}"]
    data = json.loads(text)
    problems = []
    if data["kind"] != job["kind"]:
        problems.append(f"payload kind {data['kind']}")
    if (data["total_count"], data["iso_class_count"]) != (job["total"], job["classes"]):
        problems.append(
            f"{data['total_count']}/{data['iso_class_count']} structures/classes, "
            f"pinned {job['total']}/{job['classes']}"
        )
    reps = [_plain(d) for d in data["representatives"]]
    if len(reps) != data["iso_class_count"]:
        problems.append(f"{len(reps)} representatives for {data['iso_class_count']} classes")
    return problems + ck.check_classification(job["add"], reps, job["total"])


def _plain(doc: dict) -> dict:
    out = {"kind": doc["kind"], "sigma": None, "circ": None, "dot": None}
    if doc.get("sigma") is not None:
        out["sigma"] = tuple(doc["sigma"])
    for part in ("circ", "dot"):
        if doc.get(part) is not None:
            out[part] = tuple(tuple(r) for r in doc[part])
    return out


def _plain_obj(obj) -> dict:
    return {
        "kind": obj.kind,
        "sigma": obj.sigma,
        "circ": None if obj.circ is None else obj.circ.table,
        "dot": None if obj.dot is None else obj.dot.table,
    }


def _doc(kind: str, group: str, sigma=None, circ=None, dot=None) -> dict:
    doc = {"kind": kind, "group": group}
    if sigma is not None:
        doc["sigma"] = list(sigma)
    if circ is not None:
        doc["circ"] = [list(r) for r in circ]
    if dot is not None:
        doc["dot"] = [list(r) for r in dot]
    return doc


# ---------------------------------------------------------------------------
# queries workload

def _families(rng, name, add, endos, kind) -> dict:
    """A random valid object of ``kind`` on the group, from one of a few
    families whose axioms hold by construction."""
    n = len(add)
    inv = ck.inverses(add)
    rng_n = range(n)
    idem = [e for e in endos if ck.is_idempotent(e)]
    pairs = [(s, t) for s in idem for t in idem if ck.commute(s, t)]

    def table(f):
        return [[f(a, b) for b in rng_n] for a in rng_n]

    if kind == ck.SKEW:
        family = rng.randrange(4)
        if family < 2:
            s, t = rng.choice(pairs)
            if family == 0:  # constant lambda: a o b = sigma(a) + tau(b)
                return _doc(kind, name, s, table(lambda a, b: add[s[a]][t[b]]))
            return _doc(kind, name, s, table(lambda a, b: add[t[b]][s[a]]))
        u = rng.randrange(n)
        if family == 2:  # shifted group operation a + u + b
            return _doc(kind, name, [add[a][u] for a in rng_n], table(lambda a, b: add[add[a][u]][b]))
        return _doc(kind, name, [add[u][a] for a in rng_n], table(lambda a, b: add[add[b][u]][a]))
    if kind == ck.WEAK:
        family = rng.randrange(3)
        if family < 2:
            s, t = rng.choice(pairs)
            if family == 0:
                return _doc(kind, name, s, dot=table(lambda a, b: t[b]))
            return _doc(kind, name, s, dot=table(lambda a, b: add[add[inv[s[a]]][t[b]]][s[a]]))
        t = rng.choice(idem)  # dot = tau-pi2 with any sigma
        return _doc(kind, name, [rng.randrange(n) for _ in rng_n], dot=table(lambda a, b: t[b]))
    if kind == ck.DITRUSS:
        family = rng.randrange(3)
        if family == 0:  # conjugation ditruss
            s, t = rng.choice(pairs)
            return _doc(kind, name, s, table(lambda a, b: add[t[b]][s[a]]),
                        table(lambda a, b: add[add[inv[s[a]]][t[b]]][s[a]]))
        if family == 1:
            s, t = rng.choice(pairs)
        else:  # any sigma, any endomorphism tau
            s, t = [rng.randrange(n) for _ in rng_n], rng.choice(endos)
        return _doc(kind, name, s, table(lambda a, b: add[s[a]][t[b]]), table(lambda a, b: t[b]))
    commuting = [(e, f) for e in endos for f in endos if ck.images_commute(add, e, f)]
    e, f = rng.choice(commuting)
    return _doc(kind, name, circ=table(lambda a, b: add[e[a]][f[b]]))


def _corrupt(rng, add, doc: dict) -> dict:
    """Change one cell of one component until the raw axioms fail."""
    n = len(add)
    while True:
        bad = json.loads(json.dumps(doc))
        part = rng.choice([p for p in ("sigma", "circ", "dot") if p in bad])
        if part == "sigma":
            i = rng.randrange(n)
            bad["sigma"][i] = (bad["sigma"][i] + rng.randrange(1, n)) % n
        else:
            a, b = rng.randrange(n), rng.randrange(n)
            bad[part][a][b] = (bad[part][a][b] + rng.randrange(1, n)) % n
        if not ck.satisfies(add, _plain(bad)):
            return bad


def setup_queries(seed: int, root: str, tracer, clock) -> dict:
    """Program set-up (import, groups, endomorphisms, automorphisms), timed
    as ``setup_s``; then the corpus, which is the benchmark's own work."""
    t0 = clock()
    lib = Lib()
    install_patches(lib, tracer)
    groups = {}
    for name in QUERY_GROUPS:
        G = tracer.call("groups.load", lib.catalog.builtin_group, name)
        groups[name] = (
            G,
            [e.images for e in lib.groups.enumerate_endomorphisms(G)],
            [a.images for a in lib.groups.automorphisms(G)],
        )
    tracer.unpatch()
    setup_s = clock() - t0

    rng = random.Random(seed)
    items = []
    adds = {}
    for name, (G, endos, auts) in groups.items():
        add = [list(r) for r in G.table]
        adds[name] = add
        for kind in KINDS:
            pool = []
            while len(pool) < VALID_PER_CELL + 1:
                doc = _families(rng, name, add, endos, kind)
                if all(ck.key(_plain(doc)) not in ck.orbit_keys(_plain(p), auts) for p in pool):
                    pool.append(doc)
            for i, doc in enumerate(pool[:VALID_PER_CELL]):
                other = pool[VALID_PER_CELL] if i == 0 else pool[0]
                same = _doc(kind, name, **{
                    k: v for k, v in ck.push(_plain(doc), rng.choice(auts)).items() if k != "kind"
                })
                items.append({"group": name, "doc": doc, "ops": OPS[kind],
                              "same": same, "other": other})
            for i in range(CORRUPTIONS_PER_CELL):
                items.append({"group": name, "doc": _corrupt(rng, add, pool[i % VALID_PER_CELL]),
                              "ops": ("load",)})
    for doc in _malformed():
        items.append({"group": "Z4", "doc": doc, "ops": ("load",), "malformed": True})
    return {"lib": lib, "items": items, "adds": adds, "checked": {}, "auts": {},
            "setup_s": setup_s}


def _run_op(lib: Lib, tracer, item: dict, op: str, current: dict):
    S, X, U, E = lib.structures, lib.transforms, lib.substructure, lib.enumeration
    call = tracer.call
    if op == "load":
        obj = call("structures.parse", S.structure_from_json, item["doc"])
        current["obj"] = obj
        res = call("structures.check", S.check, obj)
        return [(r.law, r.holds, r.witness, r.lhs, r.rhs) for r in res.reports]
    obj = current["obj"]
    if op == "report":
        return call("structures.report", _report, lib, obj)
    if op == "convert":
        target = CONVERT_TARGET[obj.kind]
        mid, _ = call("transforms.convert", X.convert, obj, target)
        back, _ = call("transforms.convert", X.convert, mid, obj.kind)
        return _plain_obj(mid), _plain_obj(back)
    if op == "decompose":
        return call("substructure.decompose", U.zero_symmetric_constant_decomposition, obj)
    if op == "ideals":
        return (call("substructure.ideals", U.ideals, obj),
                call("substructure.congruences", U.congruences, obj))
    if op in ("iso_same", "iso_diff"):
        partner = call("structures.parse", S.structure_from_json,
                       item["same" if op == "iso_same" else "other"])
        return call("enumeration.isomorphic", E.are_isomorphic, obj, partner)
    if op == "to_json":
        return call("structures.to_json", S.structure_to_json, obj)
    raise ValueError(op)


def _report(lib: Lib, obj):
    S = lib.structures
    claims = None
    if obj.kind == ck.SKEW:
        claims = [(c.name, c.holds) for c in S.skew_truss_consequence_report(obj).claims]
    elif obj.kind == ck.DITRUSS:
        try:
            claims = [(c.name, c.holds) for c in S.ditruss_consequence_report(obj).claims]
        except lib.errors.DotNotDistributive:
            claims = "refused"
    lam = S.lambda_family(obj)
    return claims, [m.images for m in lam.maps], lam.all_endomorphisms, lam.constant


def round_queries(state: dict, tracer, clock) -> list:
    """One pass over the corpus. Returns [((item, op), seconds, outcome)];
    an outcome is ("ok", value) or ("raise", exception)."""
    lib = state["lib"]
    out = []
    for i, item in enumerate(state["items"]):
        current: dict = {}
        for op in item["ops"]:
            t0 = clock()
            try:
                outcome = ("ok", _run_op(lib, tracer, item, op, current))
            except Exception as exc:  # the outcome is checked, not raised
                outcome = ("raise", exc)
            out.append(((i, op), clock() - t0, outcome))
            if outcome[0] == "raise" and op == "load":
                break
    return out


def _summary(outcome):
    kind, value = outcome
    if kind == "raise":
        return ("raise", type(value).__name__)
    return ("ok", repr(value))


def check_queries(state: dict, results) -> tuple[list[str], int]:
    """(problems, failed operations) of one round. An operation fails when
    it crashes with an exception that is not a trusslab error, or when a
    malformed document is not refused as an input error; any other
    disagreement with the checker is a problem."""
    errors = state["lib"].errors
    problems, failed = [], 0
    for (i, op), _latency, outcome in results:
        item = state["items"][i]
        if outcome[0] == "raise" and not isinstance(outcome[1], errors.TrussLabError):
            failed += 1
            continue
        if item.get("malformed"):
            if not (outcome[0] == "raise" and isinstance(outcome[1], errors.InputError)):
                failed += 1
            continue
        summary = _summary(outcome)
        if state["checked"].get((i, op)) == summary:
            continue
        problem = _expect(state, item, op, outcome)
        if problem:
            problems.append(f"item {i} ({item['doc']['kind']} on {item['group']}) {op}: {problem}")
        else:
            state["checked"][(i, op)] = summary
    return problems, failed


def _expect(state, item, op, outcome) -> str | None:
    """Compare one outcome with the checker; a message if they disagree."""
    add = state["adds"][item["group"]]
    obj = _plain(item["doc"])
    kind, value = outcome
    if op == "load":
        want = ck.law_reports(add, obj)
        got = value if kind == "ok" else None
        return None if got == want else f"check gave {got}, the checker {want}"
    if kind == "raise" and op in ("iso_same", "iso_diff", "to_json", "ideals"):
        return f"raised {value!r}"
    if op == "report":
        if kind == "raise":
            return f"raised {value!r}"
        claims, maps, all_endo, constant = value
        lam = ck.lambda_rows(add, obj)
        if obj["kind"] == ck.SKEW:
            want = ck.skew_claims(add, obj)
        elif obj["kind"] == ck.DITRUSS:
            want = ck.ditruss_claims(add, obj)
            want = "refused" if want is None else want
        else:
            want = None
        if claims != want:
            return f"claims {claims}, the checker {want}"
        if (tuple(maps), all_endo, constant) != (
            lam, all(ck.is_endo(add, r) for r in lam), all(r == lam[0] for r in lam)
        ):
            return "lambda family differs from the checker"
        return None
    if op == "convert":
        want = ck.expected_round_trip(add, obj)
        if want is None:
            return None if kind == "raise" else f"converted {value}, the checker refuses"
        if kind == "raise":
            return f"refused with {value!r}, the checker converts"
        return None if value == want else f"round trip gave {value}, the checker {want}"
    if op == "decompose":
        want = ck.expected_decomposition(add, obj)
        if want is None:
            return None if kind == "raise" else f"decomposed {value}, the checker refuses"
        if kind == "raise":
            return f"refused with {value!r}, the checker decomposes"
        return None if tuple(value) == want else f"split {value}, the checker {want}"
    if op == "ideals":
        ideals, congruences = value
        if len(ideals) != len(congruences):
            return f"{len(ideals)} ideals but {len(congruences)} congruences"
        if not all(ck.is_ideal(add, obj, i) for i in ideals):
            return "a returned ideal is not an ideal"
        if not all(ck.is_congruence(add, obj, c) for c in congruences):
            return "a returned partition is not a congruence"
        zero_blocks = {tuple(sorted(next(b for b in c if 0 in b))) for c in congruences}
        if zero_blocks != {tuple(sorted(i)) for i in ideals}:
            return "ideals and congruence classes of 0 differ"
        return None
    if op in ("iso_same", "iso_diff"):
        if item["group"] not in state["auts"]:
            state["auts"][item["group"]] = ck.automorphisms(add)
        auts = state["auts"][item["group"]]
        partner = _plain(item["same" if op == "iso_same" else "other"])
        built = op == "iso_same"
        if ck.isomorphic(obj, partner, auts) != built:
            return "benchmark input is not built as intended"
        return None if value is built else f"are_isomorphic gave {value}, built as {built}"
    if op == "to_json":
        return None if value == item["doc"] else f"serialised as {value}"
    raise ValueError(op)


def _stdout_bytes(results) -> int:
    return sum(len(text.encode()) for _k, _t, jobs in results for _i, _rc, text in jobs)


# name -> (setup, one round, check a round, bytes the CLI wrote in a round)
WORKLOADS = {
    "enum-search": (lambda *a: setup_enum("enum-search", *a), round_enum, check_enum,
                    _stdout_bytes),
    "enum-canon": (lambda *a: setup_enum("enum-canon", *a), round_enum, check_enum,
                   _stdout_bytes),
    "queries": (setup_queries, round_queries, check_queries, lambda results: 0),
}
