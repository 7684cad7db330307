"""Generated malformed structure documents through ``trusslab verify`` and
the other commands that read a structure document, and generated malformed
group documents through ``trusslab enumerate --group FILE``.

Every document here is malformed: a value replaced by one of the wrong type
or out of range, a required field deleted, a list one entry too long or too
short, or a file that is not a JSON document at all.  verify must exit 2
with a message and no traceback; exit 1 is allowed only with a payload
that names a failing axiom's witness.  report, decompose and convert must
exit 2 with an input error and nothing on stdout, or exit 1 with a payload
that names an error or a witness, and never print a traceback.

A group document has its name, order or table replaced, deleted, resized
or truncated, or is raw bytes.  Such a change can leave a valid group (a
deleted name, an entry replaced by itself), so enumerate must exit 0 with
a payload, or exit 2 with an input error and nothing on stdout.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trusslab.catalog import builtin_group
from trusslab.cli import main
from trusslab.errors import InputError
from trusslab.structures import normalize_kind

FIXTURES = Path(__file__).parent / "fixtures"


def _inline(doc):
    group = builtin_group(doc["group"])
    return {**doc, "group": {"name": group.name, "order": group.order,
                             "table": [list(row) for row in group.table]}}


BASES = [
    json.loads(path.read_text())
    for path in sorted(FIXTURES.glob("*.json"))
    if path.name != "malformed.json"
]
BASES += [_inline(doc) for doc in BASES]


def _paths(value, path=()):
    """Every position in a document, the document itself excluded."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, item in items:
        yield path + (key,)
        if isinstance(item, (dict, list)):
            yield from _paths(item, path + (key,))


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _resolves(name):
    try:
        builtin_group(name)
    except InputError:
        return False
    return True


def _is_kind(text):
    try:
        normalize_kind(text)
    except InputError:
        return False
    return True


def _wrong_value(path, n):
    """Values that are malformed at path on a carrier of order n."""
    scalars = st.one_of(
        st.none(),
        st.booleans(),
        st.floats(),
        st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
        st.lists(st.one_of(st.none(), st.floats(), st.text(max_size=2)), max_size=n + 1),
    )
    if path[-1] == "name":  # any string names a group
        return scalars
    if path[-1] == "order":
        return scalars | st.text(max_size=3) | st.integers().filter(lambda v: v != n)
    if path == ("kind",):
        return scalars | st.integers() | st.text(max_size=12).filter(lambda s: not _is_kind(s))
    if path == ("group",):
        return scalars | st.integers() | st.text(max_size=4).filter(lambda s: not _resolves(s))
    return scalars | st.text(max_size=3) | st.integers().filter(lambda v: not 0 <= v < n)


@st.composite
def malformed_documents(draw):
    """(file bytes, description) of one malformed structure document."""
    doc = json.loads(json.dumps(draw(st.sampled_from(BASES))))
    group = doc["group"]
    n = group["order"] if isinstance(group, dict) else builtin_group(group).order
    how = draw(st.sampled_from(["replace", "delete", "resize", "truncate", "bytes"]))
    if how == "bytes":
        return draw(st.binary(max_size=40)), how
    if how == "truncate":
        text = json.dumps(doc).encode()
        return text[:draw(st.integers(0, len(text) - 1))], how
    if how == "delete":
        # every field but an inline group's name and order is required
        paths = [p for p in _paths(doc) if isinstance(p[-1], str)
                 and p[-1] not in ("name", "order")]
        path = draw(st.sampled_from(paths))
        del _get(doc, path[:-1])[path[-1]]
    elif how == "resize":
        path = draw(st.sampled_from([p for p in _paths(doc) if isinstance(_get(doc, p), list)]))
        target = _get(doc, path)
        if draw(st.booleans()):
            target.append(target[-1])
        else:
            target.pop()
    else:
        path = draw(st.sampled_from(list(_paths(doc))))
        _get(doc, path[:-1])[path[-1]] = draw(_wrong_value(path, n))
    return json.dumps(doc).encode(), f"{how} {path}"


def _run(path, command=("verify",)):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*command, "--input", str(path)])
    return code, out.getvalue(), err.getvalue()


def _witnessed(text):
    payload = json.loads(text)
    return any("witness" in axiom for axiom in payload.get("axioms", []))


# the other commands that read a structure document
COMMANDS = [("report",), ("decompose",)] + [
    ("convert", "--to", kind) for kind in ("skew-truss", "ditruss", "weak-truss", "interchange")
]


NUMBER_NAMED = _inline(BASES[0])
NUMBER_NAMED["group"]["name"] = 4


@settings(max_examples=300, deadline=None)
@given(malformed_documents())
@example((b"\xff\xfe{}", "bytes"))  # not UTF-8
@example((b"[" * 100_000, "bytes"))  # nested deeper than the JSON parser recurses
@example((json.dumps(NUMBER_NAMED).encode(), "replace ('group', 'name')"))
def test_malformed_documents_exit_2_without_traceback(tmp_path_factory, case):
    text, _how = case
    path = tmp_path_factory.getbasetemp() / "malformed-document.json"
    path.write_bytes(text)
    code, out, err = _run(path)
    assert "Traceback" not in err
    assert code == 2 or code == 1 and _witnessed(out), (code, out, err)
    if code == 2:
        assert out == "" and "input error: " in err


@settings(max_examples=200, deadline=None)
@given(malformed_documents(), st.sampled_from(COMMANDS))
def test_structure_commands_reject_malformed_documents(tmp_path_factory, case, command):
    """report, decompose and convert on the same documents: exit 2 with an
    input error and nothing on stdout, or exit 1 with a payload that names
    an error or a failing axiom's witness; never a traceback."""
    text, _how = case
    path = tmp_path_factory.getbasetemp() / "malformed-document.json"
    path.write_bytes(text)
    code, out, err = _run(path, command)
    assert "Traceback" not in err
    assert code == 2 and out == "" or code == 1 and (
        "error" in json.loads(out) or _witnessed(out)), (code, out, err)
    if code == 2:
        assert "input error: " in err


GROUP_BASES = [builtin_group(name).to_json() for name in ("Z1", "Z2", "Z3", "Z4", "V4")]


@st.composite
def malformed_groups(draw):
    """(file bytes, description) of one malformed group document."""
    doc = json.loads(json.dumps(draw(st.sampled_from(GROUP_BASES))))
    n = doc["order"]
    how = draw(st.sampled_from(["replace", "delete", "resize", "truncate", "bytes"]))
    if how == "bytes":
        return draw(st.binary(max_size=40)), how
    if how == "truncate":
        text = json.dumps(doc).encode()
        return text[:draw(st.integers(0, len(text) - 1))], how
    if how == "delete":
        path = (draw(st.sampled_from(["name", "order", "table"])),)
        del doc[path[0]]
    elif how == "resize":
        path = draw(st.sampled_from([p for p in _paths(doc) if isinstance(_get(doc, p), list)]))
        target = _get(doc, path)
        if draw(st.booleans()):
            target.append(target[-1])
        else:
            target.pop()
    else:
        path = draw(st.sampled_from(list(_paths(doc))))
        value = _wrong_value(path, n)
        if path[0] == "table" and len(path) == 3:  # an in-range entry breaks an axiom
            value |= st.integers(0, n - 1)
        _get(doc, path[:-1])[path[-1]] = draw(value)
    return json.dumps(doc).encode(), f"{how} {path}"


@settings(max_examples=200, deadline=None)
@given(malformed_groups(), st.sampled_from(["skew-truss", "interchange"]))
@example((b'"Z3"', "bytes"), "skew-truss")  # a JSON string names a built-in group
def test_enumerate_rejects_malformed_group_documents(tmp_path_factory, case, kind):
    """enumerate --group FILE: exit 0 with a payload, or exit 2 with an input
    error and nothing on stdout; never a traceback."""
    text, _how = case
    path = tmp_path_factory.getbasetemp() / "malformed-group.json"
    path.write_bytes(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["enumerate", "--group", str(path), "--kind", kind, "--up-to-iso"])
    out, err = out.getvalue(), err.getvalue()
    assert "Traceback" not in err
    if code == 0:
        payload = json.loads(out)
        assert payload["kind"] == normalize_kind(kind)
        assert payload["iso_class_count"] == len(payload["representatives"]) > 0
    else:
        assert code == 2 and out == "" and "error: " in err, (code, out, err)


@pytest.mark.parametrize("component", ["circ", "dot"])
def test_bad_table_entry_names_its_table(tmp_path, component):
    # a ditruss carries both tables; each one's error says which it is
    doc = json.loads((FIXTURES / "split_ditruss.json").read_text())
    doc[component][0][1] = 1.5
    path = tmp_path / "bad-entry.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(path)
    assert (code, out) == (2, "")
    assert err == f"input error: {component}: entry table[0][1] = 1.5 is not an integer in 0..3\n"
