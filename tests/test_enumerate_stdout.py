"""`trusslab enumerate` stdout, byte for byte.

Each case pins the sha256 of the whole JSON payload: counts, search stats,
representatives and (without --up-to-iso) every structure in order.  A
change to the search, the law engine or canonical forms that alters any
byte of the output fails here.  To inspect a mismatch, run the same
command and diff its stdout against a checkout where the test passes.
The `--oracle` cases pin the raw-axiom comparison the same way.

`enumerate` writes its payload from the structure_bytes() keys alone: the
tests below hold that text equal to json.dumps of the payload built from
objects, check that no object is built on the way, and that a failure
found while listing leaves only the error payload on the output.
"""

import hashlib
import json
import sys

import pytest

import trusslab.enumeration
import trusslab.structures
from trusslab import builtin_group
from trusslab.cli import main
from trusslab.errors import VerificationFailed
from trusslab.groups import group_from_json
from trusslab.structures import KINDS, structure_texts, structure_to_json

ENUMERATORS = {
    "skew-truss": trusslab.enumeration.enumerate_skew_trusses,
    "weak-truss": trusslab.enumeration.enumerate_weak_trusses,
    "ditruss": trusslab.enumeration.enumerate_constant_lambda_ditrusses,
    "interchange-nr": trusslab.enumeration.enumerate_interchange,
}

# (group, kind, --up-to-iso, --cap or None), digest
CASES = [
    (("V4", "skew-truss", False, None), "5988d42502c0bdf6fb1ef2155f5f5a4119da0ae684ff84bd4871aebd22be299c"),
    (("V4", "skew-truss", True, None), "b1b26cced78d9654d7f7e5b62d08a2fbbd3bcecc785a281f286985037c2f9602"),
    (("Z3", "weak-truss", False, None), "87b370c929d1482b8acd3b474c223cb4c375c75ca9599fd36c45180b57de35e9"),
    (("Z4", "ditruss", False, None), "edf7d32c776005d742f7ed41665a227d3dada2011a212484e5e95050bcb94995"),
    (("D4", "interchange", True, None), "2358331209983544438074b9242b4e09dd9d383a4b211e8189975e0ff5540361"),
    (("Q8", "interchange", True, None), "72a3ae349501bf4332a4ffd5b65ce765730ec42601aea30b9b2aec1130b962a7"),
    (("Z5", "skew-truss", True, 5), "25aeddc6b0b153518aaaa92ba0993e16aba02f91ff8ab1f7c0b44647fb77c7bc"),
    (("V4", "weak-truss", True, None), "8dd04bdd86047c41bf1882d7292e71ac00bda6a8b4d1018bb293ee2e991feb8a"),
    (("V4", "ditruss", True, None), "2010595355bd2a8ec056dc2f77b2b3e3288a336fea01fbc7e7608e3c4bab1b31"),
    (("V4", "interchange", True, None), "22d811cd02b3bd181a796f05d99291797fd6a3ba4082a812f4b8de068490fb18"),
    (("Z6", "skew-truss", True, 6), "87e270cd472b17744b8283bc431253d8648a2def4d58a3c76998baa90623865c"),
    (("Z5", "skew-truss", False, None), "972cf884cff312c6bf4d89a4bc8ecf47dbec1900a3632b7e5922b2bcb308ee03"),
    (("D4", "ditruss", True, None), "a84e6a3a4f175459cf4a438c3b1539309c6237e076df8fa6abc2a54d66f84cb0"),
    (("Z4", "weak-truss", True, None), "bc5422b5fc25d35cead773ad5c623cf7d66faa4b48254ddc741c1c77ef2f6154"),
    (("D4", "interchange", False, None), "18de72385074595ee8de1356fca4f2847cd491e66f5fc513f25b8385af166aea"),
    (("Q8", "ditruss", False, None), "fb73c54a19033bb41d67a2b14fc3432acfc8d8a430815cfe00670e7efdf29be1"),
]


@pytest.mark.parametrize(
    "args, digest", CASES, ids=[f"{g}-{k}{'-iso' if iso else ''}" for (g, k, iso, _), _ in CASES]
)
def test_enumerate_stdout_digest(capsys, args, digest):
    assert _stdout_digest(capsys, args) == digest


def _stdout_digest(capsys, args):
    group, kind, up_to_iso, cap = args
    argv = ["enumerate", "--group", group, "--kind", kind]
    if up_to_iso:
        argv.append("--up-to-iso")
    if cap is not None:
        argv += ["--cap", str(cap)]
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


# (group, kind), digest of `enumerate --oracle`
ORACLE_CASES = [
    (("Z3", "skew-truss"), "aa8d678df3d7ce57610598d71e61faa27ca88842ba260c33cf1a4bd53679bd02"),
    (("Z3", "weak-truss"), "3e337f0a695bd8fe809e2fec2224f5e4c302622949f8785b60ad2adc16bbc2af"),
    (("Z3", "ditruss"), "ebd7db5cc9a594b629b97501f0fe122ed853418ec244d5af0faa2ce0c39ff8f5"),
    (("Z3", "interchange"), "2cf0623bc2ef7224daaa3b0c9df17f824e7df00ec2b8243651865761f91e3466"),
    (("Z2", "interchange"), "68c9a21dbffccff1f3f30f31fdf2532d68353ac325a27f10c9f143a9b2ba34ce"),
]


@pytest.mark.parametrize("args, digest", ORACLE_CASES, ids=[f"{g}-{k}" for (g, k), _ in ORACLE_CASES])
def test_enumerate_oracle_stdout_digest(capsys, args, digest):
    group, kind = args
    assert main(["enumerate", "--group", group, "--kind", kind, "--oracle"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_enumerate_builds_no_objects(capsys, monkeypatch):
    # the payload is written from the keys: no object is built for it, and
    # no object is turned into a dict
    def refuse(*args, **kwargs):
        raise AssertionError("enumerate built an object")

    originals = (trusslab.structures.algebra_from_key, trusslab.structures.structure_to_json)
    for name, module in list(sys.modules.items()):
        if name == "trusslab" or name.startswith("trusslab."):
            for attr, value in list(vars(module).items()):
                if any(value is f for f in originals):
                    monkeypatch.setattr(module, attr, refuse)
    pinned = dict(CASES)
    for args in [("V4", "skew-truss", False, None), ("V4", "skew-truss", True, None),
                 ("D4", "interchange", True, None)]:
        assert _stdout_digest(capsys, args) == pinned[args]


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output-file"])
def test_listing_failure_writes_only_the_error(capsys, monkeypatch, tmp_path, to_file):
    # a key that fails while the listing is checked raises before the first
    # byte of the payload, so the output holds the error payload alone
    result = trusslab.enumeration.enumerate_skew_trusses(builtin_group("V4"))
    reps = set(result.representative_keys)
    bad = next(key for key in result.keys if key not in reps)
    original = trusslab.enumeration.verify_key

    def failing(G, kind, key):
        if key == bad:
            raise VerificationFailed("planted failure")
        return original(G, kind, key)

    monkeypatch.setattr(trusslab.enumeration, "verify_key", failing)
    argv = ["enumerate", "--group", "V4", "--kind", "skew-truss"]
    path = tmp_path / "listing.json"
    if to_file:
        argv += ["--output", str(path)]
    assert main(argv) == 1
    out = capsys.readouterr().out
    if to_file:
        assert out == ""
        out = path.read_text(encoding="utf-8")
    error = {"error": "VerificationFailed", "message": "planted failure"}
    assert out == json.dumps(error, indent=2, sort_keys=True) + "\n"
    assert json.loads(out) == error


@pytest.mark.parametrize("group", ["Z1", "Z3", "V4"])
@pytest.mark.parametrize("kind", KINDS)
def test_structure_texts_equal_json_dumps(group, kind):
    result = ENUMERATORS[kind](builtin_group(group))
    for pad in ("\n", "\n    "):
        texts = list(structure_texts(result.group, kind, result.keys, pad))
        assert texts == [
            json.dumps(structure_to_json(o), indent=2, sort_keys=True).replace("\n", pad)
            for o in result.structures
        ]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("up_to_iso", [False, True], ids=["listing", "iso"])
def test_inline_group_payload_equals_json_dumps(capsys, tmp_path, kind, up_to_iso):
    # a group name the encoder escapes, written the way json.dumps writes it
    doc = {"name": 'Z3 "é"', "order": 3, "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}
    path = tmp_path / "group.json"
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    argv = ["enumerate", "--group", str(path), "--kind", kind]
    assert main(argv + ["--up-to-iso"] * up_to_iso) == 0
    result = ENUMERATORS[kind](group_from_json(doc))
    payload = {
        "group": doc["name"],
        "kind": kind,
        "total_count": result.total_count,
        "iso_class_count": result.iso_class_count,
        "representatives": [structure_to_json(o) for o in result.representatives],
        "search_stats": result.search_stats,
    }
    if not up_to_iso:
        payload["structures"] = [structure_to_json(o) for o in result.structures]
    assert capsys.readouterr().out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
