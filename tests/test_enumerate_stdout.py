"""`trusslab enumerate` stdout, byte for byte.

Each case pins the sha256 of the whole JSON payload: counts, search stats,
representatives and (without --up-to-iso) every structure in order.  A
change to the search, the law engine or canonical forms that alters any
byte of the output fails here.  To inspect a mismatch, run the same
command and diff its stdout against a checkout where the test passes.
"""

import hashlib

import pytest

from trusslab.cli import main

CASES = [
    (("V4", "skew-truss", False), "5988d42502c0bdf6fb1ef2155f5f5a4119da0ae684ff84bd4871aebd22be299c"),
    (("V4", "skew-truss", True), "b1b26cced78d9654d7f7e5b62d08a2fbbd3bcecc785a281f286985037c2f9602"),
    (("Z3", "weak-truss", False), "87b370c929d1482b8acd3b474c223cb4c375c75ca9599fd36c45180b57de35e9"),
    (("Z4", "ditruss", False), "edf7d32c776005d742f7ed41665a227d3dada2011a212484e5e95050bcb94995"),
    (("D4", "interchange", True), "2358331209983544438074b9242b4e09dd9d383a4b211e8189975e0ff5540361"),
    (("Q8", "interchange", True), "72a3ae349501bf4332a4ffd5b65ce765730ec42601aea30b9b2aec1130b962a7"),
]


@pytest.mark.parametrize(
    "args, digest", CASES, ids=[f"{g}-{k}{'-iso' if iso else ''}" for (g, k, iso), _ in CASES]
)
def test_enumerate_stdout_digest(capsys, args, digest):
    group, kind, up_to_iso = args
    argv = ["enumerate", "--group", group, "--kind", kind]
    if up_to_iso:
        argv.append("--up-to-iso")
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
