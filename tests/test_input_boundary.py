"""Generated malformed structure documents through ``trusslab verify``.

Every document here is malformed: a value replaced by one of the wrong type
or out of range, a required field deleted, a list one entry too long or too
short, or a file that is not a JSON document at all.  The command must exit
2 with a message and no traceback; exit 1 is allowed only with a payload
that names a failing axiom's witness.
"""

import contextlib
import io
import json
from pathlib import Path

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


def _verify(path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", "--input", str(path)])
    return code, out.getvalue(), err.getvalue()


def _witnessed(text):
    payload = json.loads(text)
    return any("witness" in axiom for axiom in payload.get("axioms", []))


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
    code, out, err = _verify(path)
    assert "Traceback" not in err
    assert code == 2 or code == 1 and _witnessed(out), (code, out, err)
    if code == 2:
        assert out == "" and "input error: " in err
