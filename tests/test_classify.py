"""Classification by orbit marking, against the per-structure reference.

The library sorts the structure_bytes() keys of the enumerated structures
once, takes the first unmarked one as its class representative, and marks
that representative's automorphic images.  The reference here is the plain
loop it replaced: the orbit minimum of every structure, and a relabel of
the first structure met in each new class.  Both must give the same
totals, class counts, representatives (in order) and structure order.
"""

import random

import pytest

from trusslab import (
    builtin_group,
    enumerate_constant_lambda_ditrusses,
    enumerate_interchange,
    enumerate_skew_trusses,
    enumerate_weak_trusses,
)
from trusslab.enumeration import _classify, _orbit_min, canonical_key, relabel_structure
from trusslab.errors import TrussLabError
from trusslab.ops import binop

ENUMERATORS = {
    "skew-truss": enumerate_skew_trusses,
    "weak-truss": enumerate_weak_trusses,
    "ditruss": enumerate_constant_lambda_ditrusses,
    "interchange-nr": enumerate_interchange,
}

CASES = (
    [(g, k, {}) for g in ("Z1", "Z2", "Z3", "Z4", "V4", "Z5") for k in ENUMERATORS]
    + [(g, "interchange-nr", {}) for g in ("D4", "Q8")]
    + [(g, "ditruss", {}) for g in ("D4", "Q8")]
    + [(g, "skew-truss", {"cap": 6}) for g in ("Z6", "S3")]
)


def reference_classify(structures):
    """(total, classes, representative keys, structure keys) the way
    classification ran before orbit marking."""
    structures = sorted(structures, key=lambda o: o.structure_key())
    reps = {}
    for obj in structures:
        key, h = _orbit_min(obj)
        if key not in reps:
            reps[key] = relabel_structure(obj, h)
    return (
        len(structures),
        len(reps),
        [reps[k].structure_key() for k in sorted(reps)],
        [o.structure_key() for o in structures],
    )


def summary(result):
    return (
        result.total_count,
        result.iso_class_count,
        [o.structure_key() for o in result.representatives],
        [o.structure_key() for o in result.structures],
    )


@pytest.mark.parametrize(
    "group, kind, kwargs", CASES, ids=[f"{g}-{k}" for g, k, _ in CASES]
)
def test_classification_matches_reference(group, kind, kwargs):
    G = builtin_group(group)
    result = ENUMERATORS[kind](G, **kwargs)
    expected = reference_classify(result.structures)
    assert summary(result) == expected
    # the classification does not depend on the order it is handed
    shuffled = [o.structure_bytes() for o in result.structures]
    random.Random(group).shuffle(shuffled)
    assert summary(_classify(G, result.kind, shuffled, {})) == expected
    # a representative is the enumerated object itself, not a rebuilt copy
    ids = {id(o) for o in result.structures}
    assert all(id(rep) in ids for rep in result.representatives)
    # and it is its own canonical form
    for rep in result.representatives:
        assert canonical_key(rep) == (result.kind,) + rep.structure_key()


def test_list_not_closed_under_automorphisms_raises():
    G = builtin_group("V4")
    result = enumerate_skew_trusses(G)
    by_class: dict = {}
    for obj in result.structures:
        by_class.setdefault(_orbit_min(obj)[0], []).append(obj)
    least, *rest = next(members for members in by_class.values() if len(members) > 1)
    assert least.structure_key() < rest[0].structure_key()
    kept = [o.structure_bytes() for o in result.structures if o is not rest[0]]
    with pytest.raises(TrussLabError, match="not closed under automorphisms"):
        _classify(G, result.kind, kept, {})


TABLE_CASES = [(g, k) for g in ("Z4", "V4", "Z5") for k in ENUMERATORS] + [
    (g, k) for g in ("D4", "Q8") for k in ("ditruss", "interchange-nr")
]


@pytest.mark.parametrize("group, kind", TABLE_CASES, ids=[f"{g}-{k}" for g, k in TABLE_CASES])
def test_enumerated_tables_equal_validated_tables(group, kind):
    # the enumerators wrap the rows they build without re-validating them;
    # each table must be exactly what validating the same rows returns
    structures = ENUMERATORS[kind](builtin_group(group)).structures
    assert structures
    for obj in structures:
        for op in (obj.circ, obj.dot):
            if op is not None:
                assert op == binop(op.carrier, op.table)
