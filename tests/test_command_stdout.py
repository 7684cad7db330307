"""stdout of the other commands, byte for byte.

Each case pins the sha256 of what one command writes, and its exit code:
`verify` passing and failing, `report`, `convert`, `decompose`, the payload
of a `SemanticError`, and one payload written with `--output`.  Together
with tests/test_enumerate_stdout.py this covers every path through the
JSON writer of trusslab.cli.
"""

import hashlib
from pathlib import Path

import pytest

from trusslab.cli import main

FIXTURES = Path(__file__).parent / "fixtures"

# (argv, exit code), digest; fixture names are relative to tests/fixtures
CASES = [
    ((("verify", "pairing_skew_ring.json"), 0), "1cc101f9278e93ddc19b1ad0764b6148ab38f6c1fd4bba5108eae416c298d032"),
    ((("verify", "bad_skew.json"), 1), "c86fbd0bd75a4b3191ceff3efe1c921651be0bb3dc35d91b8929587f6615d67e"),
    ((("report", "zero_dot_ditruss.json"), 0), "470827fcf4488bd479dae7e7452daf3c277c0cf399158c87df505723a5ac89ea"),
    ((("report", "pairing_weak_identity_sigma.json"), 0), "58b00bf486fcb509aeb086669c8b55a6a251dbd127e91a15291bdb7623c19ab0"),
    ((("convert", "pairing_skew_ring.json", "--to", "weak-truss"), 0), "4a32ab1e3aee580ac8c970a7cf02ee42bd0e8c4eae7ee83d9303c6ff18318b54"),
    ((("convert", "split_ditruss.json", "--to", "interchange"), 0), "3a779d5fbb832f1481f6ae4f8412103e39d1210dccdb29c15176aef1ae120f44"),
    ((("decompose", "pairing_skew_ring.json"), 0), "eba369721ef10b9e175ec3f13291350f5a460300220f443f5d67fd30e00e4bb1"),
    ((("decompose", "split_ditruss.json"), 0), "1f6600b7402e488a409388a035b0eabdce7934a0830ba51134b20df48c88dc4d"),
    # VerificationFailed from convert: the SemanticError payload
    ((("convert", "bad_skew.json", "--to", "weak-truss"), 1), "9fea4c6fcfd33606bf4d1efba8e30133da08a001e7a256289e66a824b9221216"),
]


def _argv(command, fixture, *rest):
    return [command, "--input", str(FIXTURES / fixture), *rest]


@pytest.mark.parametrize(
    "args, digest", CASES, ids=[f"{a[0]}-{a[1].removesuffix('.json')}" for (a, _), _ in CASES]
)
def test_command_stdout_digest(capsys, args, digest):
    argv, code = args
    assert main(_argv(*argv)) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_output_file_digest(capsys, tmp_path):
    path = tmp_path / "report.json"
    assert main(_argv("report", "pairing_sum_skew.json", "--output", str(path))) == 0
    assert capsys.readouterr().out == ""
    digest = "bb0dba249298551d9a230a0bdb9fb364281bd72ec81244db401eced164b64d01"
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
