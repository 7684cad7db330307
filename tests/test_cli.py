import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from trusslab.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
SRC = str(Path(__file__).resolve().parents[1] / "src")
# subprocesses find the package from a bare checkout, as the tests do
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


# ---------------------------------------------------------------------------
# verify

def test_verify_valid_skew_truss(capsys):
    code, payload, err = run_json(
        capsys, "verify", "--input", str(FIXTURES / "pairing_skew_ring.json")
    )
    assert code == 0
    assert payload["verified"] is True
    assert payload["group"] == "Z4"
    assert all(a["holds"] for a in payload["axioms"])
    assert payload["consequences"][0]["ok"] is True
    assert "PASS" in err


def test_verify_axiom_failure_gives_exit_1_and_witness(capsys):
    code, payload, err = run_json(
        capsys, "verify", "--input", str(FIXTURES / "bad_skew.json")
    )
    assert code == 1
    assert payload["verified"] is False
    failing = [a for a in payload["axioms"] if not a["holds"]]
    assert failing and "witness" in failing[0]


def test_verify_malformed_input_gives_exit_2(capsys):
    code, out, err = run(
        capsys, "verify", "--input", str(FIXTURES / "malformed.json")
    )
    assert code == 2


def test_verify_missing_file_gives_exit_2(capsys):
    code, out, err = run(capsys, "verify", "--input", "no-such-file.json")
    assert code == 2


def _shifted_z4(**change):
    """The shifted Z4 truss a o b = a + 1 + b, sigma(a) = a + 1."""
    doc = {
        "kind": "skew-truss",
        "group": "Z4",
        "sigma": [1, 2, 3, 0],
        "circ": [[(a + 1 + b) % 4 for b in range(4)] for a in range(4)],
    }
    doc.update(change)
    return doc


def _with_cell(value):
    circ = _shifted_z4()["circ"]
    circ[0][0] = value
    return circ


def _inline_z4(cell=None, value=None, **change):
    """Z4 as an inline group document, with table[cell] set to value."""
    group = {
        "name": "Z4",
        "order": 4,
        "table": [[(a + b) % 4 for b in range(4)] for a in range(4)],
    }
    if cell is not None:
        group["table"][cell[0]][cell[1]] = value
    group.update(change)
    return group


MALFORMED = {
    "string-sigma": _shifted_z4(sigma="1230"),
    "float-entry": _shifted_z4(circ=_with_cell(1.2)),
    "bool-sigma-image": _shifted_z4(sigma=[1, 2, 3, False]),
    "string-entry": _shifted_z4(circ=_with_cell("1")),
    "integral-float-entry": _shifted_z4(circ=_with_cell(1.0)),
    "nested-sigma": _shifted_z4(sigma=[[1], [2], [3], [0]]),
    "scalar-circ": _shifted_z4(circ=5),
    "string-rows": _shifted_z4(circ=["1230", "2301", "3012", "0123"]),
    "bool-group-entry": _shifted_z4(group=_inline_z4((0, 0), False)),
    "integral-float-group-entry": _shifted_z4(group=_inline_z4((0, 1), 1.0)),
    "float-group-order": _shifted_z4(group=_inline_z4(order=4.0)),
    "coerced-inline-group": _shifted_z4(
        group={"name": "Z4", "order": 4.0,
               "table": [[False, 1.0, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]]}
    ),
}


def test_shifted_z4_base_document_verifies(capsys, tmp_path):
    path = tmp_path / "doc.json"
    for group in ("Z4", _inline_z4()):
        path.write_text(json.dumps(_shifted_z4(group=group)))
        code, out, err = run(capsys, "verify", "--input", str(path))
        assert code == 0


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_components_give_exit_2_without_traceback(capsys, tmp_path, name):
    # the first four are the malformed documents of the benchmark's queries
    # corpus; none may be coerced into a verifying structure
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(MALFORMED[name]))
    for command in ("verify", "report", "decompose"):
        code, out, err = run(capsys, command, "--input", str(path))
        assert code == 2
        assert out == ""
        assert "input error" in err
        assert "Traceback" not in err


# ---------------------------------------------------------------------------
# convert

def test_convert_pairings(capsys):
    code, payload, _ = run_json(
        capsys,
        "convert",
        "--input", str(FIXTURES / "pairing_sum_skew.json"),
        "--from", "skew-truss",
        "--to", "weak-truss",
    )
    assert code == 0
    sigma = payload["result"]["sigma"]
    assert payload["result"]["dot"] == [[3 * b % 6 for b in range(6)]] * 6
    assert sigma == [3 * a % 6 for a in range(6)]
    assert payload["record"]["forward_name"] == "truss_to_weak"

    code, payload, _ = run_json(
        capsys,
        "convert",
        "--input", str(FIXTURES / "pairing_skew_ring.json"),
        "--to", "weak-truss",
    )
    assert code == 0
    assert payload["result"]["dot"] == [[0] * 4] * 4  # zero operation

    code, payload, _ = run_json(
        capsys,
        "convert",
        "--input", str(FIXTURES / "pairing_near_ring_skew.json"),
        "--to", "weak-truss",
    )
    assert code == 0
    assert payload["result"]["dot"] == [[0, 1, 2, 3]] * 4
    assert payload["result"]["sigma"] == [0, 0, 0, 0]


def test_convert_round_trip_byte_identical(capsys, tmp_path):
    src = FIXTURES / "pairing_skew_ring.json"
    code, payload, _ = run_json(
        capsys, "convert", "--input", str(src), "--to", "weak-truss"
    )
    assert code == 0
    middle = tmp_path / "weak.json"
    middle.write_text(json.dumps(payload["result"]))
    code, payload2, _ = run_json(
        capsys, "convert", "--input", str(middle), "--to", "skew-truss"
    )
    assert code == 0
    # byte-identical to the canonical re-serialization of the input
    original = json.loads(src.read_text())
    assert json.dumps(payload2["result"], indent=2, sort_keys=True) == json.dumps(
        original, indent=2, sort_keys=True
    )


def test_convert_kind_mismatch(capsys):
    code, out, err = run(
        capsys,
        "convert",
        "--input", str(FIXTURES / "pairing_skew_ring.json"),
        "--from", "ditruss",
        "--to", "interchange",
    )
    assert code == 2


def test_convert_rejects_invalid_input_structure(capsys):
    code, payload, _ = run_json(
        capsys,
        "convert",
        "--input", str(FIXTURES / "bad_skew.json"),
        "--to", "weak-truss",
    )
    assert code == 1
    assert payload["error"] == "VerificationFailed"
    code, decomposed, _ = run_json(
        capsys, "decompose", "--input", str(FIXTURES / "bad_skew.json")
    )
    assert code == 1
    assert decomposed == payload  # both report verify's first failure


def test_convert_ditruss_involution_and_interchange(capsys):
    code, payload, _ = run_json(
        capsys,
        "convert",
        "--input", str(FIXTURES / "split_ditruss.json"),
        "--to", "ditruss",
    )
    assert code == 0
    assert payload["record"]["forward_name"] == "ditruss_involution"
    assert payload["result"]["sigma"] == [0, 1, 0, 1]  # roles swapped

    code, payload, _ = run_json(
        capsys,
        "convert",
        "--input", str(FIXTURES / "split_ditruss.json"),
        "--to", "interchange",
    )
    assert code == 0
    assert payload["record"]["parameters"] == {"sigma": [0, 0, 2, 2], "tau": [0, 1, 0, 1]}


# ---------------------------------------------------------------------------
# enumerate

def test_enumerate_z2_interchange_oracle(capsys):
    code, payload, _ = run_json(
        capsys,
        "enumerate", "--group", "Z2", "--kind", "interchange", "--oracle",
    )
    assert code == 0
    assert payload["oracle_count"] == 4
    assert payload["parametrized_count"] == 4
    assert payload["agreement"] is True


def test_enumerate_skew_oracle_agreement(capsys):
    code, payload, _ = run_json(
        capsys,
        "enumerate", "--group", "Z3", "--kind", "skew-truss", "--oracle",
    )
    assert code == 0
    assert payload["agreement"] is True
    assert payload["oracle_count"] == payload["parametrized_count"]


def test_enumerate_output_is_deterministic(capsys):
    args = ["enumerate", "--group", "Z3", "--kind", "skew-truss", "--up-to-iso"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["iso_class_count"] == len(payload["representatives"])
    assert "seconds" not in payload["search_stats"]


SUMMARY_CASES = [
    ("V4", "skew-truss", "618 structures, 126 up to isomorphism; "
                         "leaves kept 126, nodes 295, pruned 181, |Aut G| = 6"),
    ("Z5", "skew-truss", "622 structures, 164 up to isomorphism; "
                         "leaves kept 164, nodes 363, pruned 134, |Aut G| = 4"),
    ("V4", "weak-truss", "3996 structures, 717 up to isomorphism; "
                         "leaves kept 717, nodes 1086, pruned 412, |Aut G| = 6"),
    ("V4", "interchange-nr", "256 structures, 56 up to isomorphism; admissible pairs "
                             "256 of 256, |Aut G| = 6"),
    ("D4", "ditruss", "52 structures, 15 up to isomorphism; admissible pairs "
                      "52 of 100, |Aut G| = 8"),
]


@pytest.mark.parametrize(
    "group, kind, summary", SUMMARY_CASES, ids=[f"{group}-{kind}" for group, kind, _ in SUMMARY_CASES]
)
def test_enumerate_summary_counts_the_search(capsys, group, kind, summary):
    # the counters go to stderr alone, the same with and without a listing
    for listing in ([], ["--up-to-iso"]):
        code, out, err = run(
            capsys, "enumerate", "--group", group, "--kind", kind, "--cap", "5", *listing
        )
        assert code == 0
        assert err == f"{group}/{kind}: {summary}\n"
        assert "leaves_kept" not in out and "admissible_pairs" not in out


def test_enumerate_full_listing(capsys):
    code, payload, _ = run_json(
        capsys, "enumerate", "--group", "Z2", "--kind", "weak-truss"
    )
    assert code == 0
    assert payload["total_count"] == len(payload["structures"]) == 10
    assert payload["iso_class_count"] == len(payload["representatives"])


def test_enumerate_oracle_too_large(capsys):
    code, out, err = run(
        capsys, "enumerate", "--group", "Z4", "--kind", "skew-truss", "--oracle"
    )
    assert code == 2


def test_carrier_above_256_exits_2(capsys, tmp_path):
    """The law engine stores elements as bytes: an inline group of order
    257 is refused as too large before its table is scanned."""
    n = 257
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    doc = tmp_path / "z257.json"
    doc.write_text(json.dumps({
        "kind": "interchange-nr",
        "group": {"name": "Z257", "order": n, "table": table},
        "circ": table,
    }))
    code, out, err = run(capsys, "verify", "--input", str(doc))
    assert code == 2
    assert out == ""
    assert "257" in err and "Traceback" not in err


def test_enumerate_inline_group_file(capsys, tmp_path):
    gfile = tmp_path / "group.json"
    gfile.write_text(
        json.dumps({"name": "C3", "order": 3, "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]})
    )
    code, payload, _ = run_json(
        capsys, "enumerate", "--group", str(gfile), "--kind", "interchange"
    )
    assert code == 0
    assert payload["group"] == "C3"
    assert payload["total_count"] == 9


@pytest.mark.parametrize(
    "group",
    [
        {"order": 3.0, "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]},
        {"order": True, "table": [[0]]},
        {"table": [[0, 1, 2], [1, 2, 0], [2, 0, True]]},
        # identity at index 1, so the loader would relabel with a float
        {"table": [[1, 0, 2], [0, 1, 2], [2, 2.0, 0]]},
        {"table": [[0, 1], "10"]},
    ],
)
def test_enumerate_malformed_group_file_gives_exit_2(capsys, tmp_path, group):
    gfile = tmp_path / "group.json"
    gfile.write_text(json.dumps(group))
    code, out, err = run(capsys, "enumerate", "--group", str(gfile), "--kind", "interchange")
    assert code == 2
    assert out == ""
    assert "input error" in err


@pytest.mark.parametrize("cap", ["0", "-1"])
@pytest.mark.parametrize("extra", [[], ["--oracle"]])
def test_enumerate_cap_below_one_gives_exit_2(capsys, cap, extra):
    code, out, err = run(
        capsys, "enumerate", "--group", "Z2", "--kind", "skew-truss", "--cap", cap, *extra
    )
    assert code == 2
    assert out == ""
    assert "--cap must be at least 1" in err


@pytest.mark.parametrize(
    "kind, extra",
    [
        ("skew-truss", []),
        ("skew-truss", ["--cap", "32"]),
        ("weak-truss", []),
        ("interchange-nr", []),
        ("ditruss", []),
    ],
    ids=["skew-truss", "skew-truss-cap-32", "weak-truss", "interchange-nr", "ditruss"],
)
def test_enumerate_refuses_order_32_before_searching(tmp_path, kind, extra):
    # Z2^5 has 32^5 candidate endomorphisms; every kind is refused before
    # they are tried, by the order cap or by the endomorphism cap
    doc = {"name": "Z2^5", "order": 32, "table": [[a ^ b for b in range(32)] for a in range(32)]}
    path = tmp_path / "z2_5.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "trusslab.cli", "enumerate", "--group", str(path),
         "--kind", kind, "--up-to-iso", *extra],
        env=ENV,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "error: " in proc.stderr


# ---------------------------------------------------------------------------
# decompose / report

def test_decompose_split_ditruss(capsys):
    code, payload, _ = run_json(
        capsys, "decompose", "--input", str(FIXTURES / "split_ditruss.json")
    )
    assert code == 0
    assert payload["T0"] == [0, 2]  # kernel of tau
    assert payload["Tc"] == [0, 1]  # image of tau


def test_decompose_skew_ring_lists_ideals(capsys):
    code, payload, _ = run_json(
        capsys, "decompose", "--input", str(FIXTURES / "pairing_skew_ring.json")
    )
    assert code == 0
    assert payload["T0"] == [0, 1, 2, 3] and payload["Tc"] == [0]
    assert payload["ideals"] == [[0], [0, 2], [0, 1, 2, 3]]
    assert payload["congruence_count"] == 3


def test_report_zero_dot_ditruss(capsys):
    code, payload, _ = run_json(
        capsys, "report", "--input", str(FIXTURES / "zero_dot_ditruss.json")
    )
    assert code == 0
    assert payload["verified"] is True
    lam = payload["lambda"]
    assert lam["constant"] is True
    assert lam["maps"][0] == [0, 0, 0, 0]  # lambda_0 is the zero map ...
    assert payload["sigma_flags"]["idempotent"] is True
    # ... and differs from sigma
    obj = json.loads((FIXTURES / "zero_dot_ditruss.json").read_text())
    assert obj["sigma"] != lam["maps"][0]


def test_report_weak_truss_with_identity_sigma(capsys):
    code, payload, _ = run_json(
        capsys, "report", "--input", str(FIXTURES / "pairing_weak_identity_sigma.json")
    )
    assert code == 0
    assert payload["verified"] is True


def test_output_to_file(capsys, tmp_path):
    out = tmp_path / "report.json"
    code, stdout, _ = run(
        capsys,
        "verify", "--input", str(FIXTURES / "pairing_skew_ring.json"),
        "--output", str(out),
    )
    assert code == 0
    assert stdout == ""
    assert json.loads(out.read_text())["verified"] is True


@pytest.mark.parametrize(
    "argv, target",
    [
        (["verify", "--input", str(FIXTURES / "pairing_skew_ring.json")], "missing"),
        (["enumerate", "--group", "Z2", "--kind", "interchange"], "directory"),
        # the SemanticError payload is written outside the command's own try
        (["convert", "--input", str(FIXTURES / "bad_skew.json"), "--to", "weak-truss"], "missing"),
    ],
    ids=["verify-missing-dir", "enumerate-directory", "convert-failure-missing-dir"],
)
def test_unwritable_output_gives_exit_2(capsys, tmp_path, argv, target):
    output = tmp_path / "no-such-dir" / "x.json" if target == "missing" else tmp_path
    code, out, err = run(capsys, *argv, "--output", str(output))
    assert code == 2
    assert out == ""
    assert f"cannot write {output}" in err
    assert "Traceback" not in err


def test_closed_stdout_gives_exit_2():
    # the D4 listing (~780 KB) fills the pipe long before it is written, so
    # the reader's close reaches the CLI while it writes
    proc = subprocess.Popen(
        [sys.executable, "-m", "trusslab.cli", "enumerate", "--group", "D4", "--kind", "interchange"],
        env=ENV,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert "Traceback" not in err
    assert "cannot write stdout" in err


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "trusslab.cli", "verify", "--input",
         str(FIXTURES / "pairing_skew_ring.json")],
        env=ENV,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verified"] is True


def test_decompose_requires_zero_fixing_sigma(capsys, tmp_path):
    structure = {
        "kind": "skew-truss",
        "group": "Z4",
        "sigma": [1, 1, 3, 3],
        "circ": [[1, 1, 1, 1], [1, 1, 1, 1], [3, 3, 3, 3], [3, 3, 3, 3]],
    }
    path = tmp_path / "shifted.json"
    path.write_text(json.dumps(structure))
    code, payload, _ = run_json(capsys, "decompose", "--input", str(path))
    assert code == 1
    assert payload["error"] == "SigmaDoesNotFixZero"


def test_report_failing_structure_exits_1(capsys):
    code, payload, _ = run_json(
        capsys, "report", "--input", str(FIXTURES / "bad_skew.json")
    )
    assert code == 1
    assert payload["verified"] is False


def test_convert_involution_needs_column_constant_dot(capsys, tmp_path):
    # valid ditruss whose dot depends on both arguments: the involution
    # hypothesis fails, which is a semantic error, not an input error
    add = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    circ = [[(2 * a + b) % 4 for b in range(4)] for a in range(4)]
    structure = {
        "kind": "ditruss", "group": "Z4",
        "sigma": [0, 1, 2, 3], "circ": circ, "dot": add,
    }
    path = tmp_path / "dit.json"
    path.write_text(json.dumps(structure))
    code, payload, _ = run_json(capsys, "convert", "--input", str(path), "--to", "ditruss")
    assert code == 1
    assert payload["error"] == "DotNotColumnConstant"


# ---------------------------------------------------------------------------
# exit codes follow the error hierarchy

SEMANTIC_ERROR_NAMES = [
    "VerificationFailed",
    "HypothesisFailed",
    "NotAnIdeal",
    "NotVerified",
    "SigmaNotIdempotentEndo",
    "SigmaDoesNotFixZero",
    "DotNotColumnConstant",
    "DotNotDistributive",
    "PreconditionFailed",
    "NotIdempotent",
    "NotEndomorphism",
]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_semantic_errors_are_exactly_the_eleven():
    from trusslab.errors import SemanticError

    assert sorted(c.__name__ for c in _subclasses(SemanticError)) == sorted(
        SEMANTIC_ERROR_NAMES
    )


def _raise_from_load(monkeypatch, exc):
    def load(path):
        raise exc

    monkeypatch.setattr("trusslab.cli._load_structure", load)


@pytest.mark.parametrize("name", SEMANTIC_ERROR_NAMES)
def test_semantic_error_exits_1_with_its_name(name, monkeypatch, capsys):
    from trusslab import errors

    _raise_from_load(monkeypatch, getattr(errors, name)("boom"))
    code, payload, _ = run_json(capsys, "verify", "--input", "unused.json")
    assert code == 1
    assert payload["error"] == name


@pytest.mark.parametrize("name", ["InputError", "CarrierTooLarge"])
def test_input_errors_exit_2(name, monkeypatch, capsys):
    from trusslab import errors

    _raise_from_load(monkeypatch, getattr(errors, name)("boom"))
    code, out, err = run(capsys, "verify", "--input", "unused.json")
    assert code == 2
    assert out == ""
    assert "boom" in err
