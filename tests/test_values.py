"""The value-type contract of the nine record classes.

Seven are named tuples: built by position or keyword, equal and hashed
by their fields (as plain tuples), read-only. FinitePoset and
PosetDocument are slotted classes that are not tuples: a poset compares
by identity, a document by its fields.
"""

import pytest

from posetdual import (
    BoundedHom,
    CoverRelation,
    FinitePoset,
    IrreducibleReport,
    IsomorphismReport,
    MonotoneMap,
    PosetDocument,
    PrimePairReport,
    SubsetOfLattice,
)

CHAIN = FinitePoset(("a", "b"), (3, 2))
CHAIN_REPR = "FinitePoset(elements=('a', 'b'), up_masks=(3, 2))"
TOP = MonotoneMap(CHAIN, 3)
TOP_REPR = f"MonotoneMap(base={CHAIN_REPR}, support=3)"

# (class, field values, repr of the record built from them)
RECORDS = [
    (MonotoneMap, {"base": CHAIN, "support": 2}, f"MonotoneMap(base={CHAIN_REPR}, support=2)"),
    (CoverRelation, {"pairs": (("a", "b"),)}, "CoverRelation(pairs=(('a', 'b'),))"),
    (SubsetOfLattice, {"lattice": "L", "member_mask": 5}, "SubsetOfLattice(lattice='L', member_mask=5)"),
    (PrimePairReport, {"pairs": ((TOP, TOP, "a"),)}, f"PrimePairReport(pairs=(({TOP_REPR}, {TOP_REPR}, 'a'),))"),
    (BoundedHom, {"lattice": "L", "kernel_top": TOP}, f"BoundedHom(lattice='L', kernel_top={TOP_REPR})"),
    (
        IrreducibleReport,
        {
            "meet_irreducibles": (TOP,),
            "join_irreducibles": (),
            "lambda_witness": {TOP: "a"},
            "upsilon_witness": {},
        },
        f"IrreducibleReport(meet_irreducibles=({TOP_REPR},), join_irreducibles=(),"
        f" lambda_witness={{{TOP_REPR}: 'a'}}, upsilon_witness={{}})",
    ),
    (
        IsomorphismReport,
        {
            "forward": {"a": 1},
            "backward": {},
            "round_trip_ok": True,
            "order_preserved_ok": False,
            "brute_force_matched": None,
            "failures": ("x",),
        },
        "IsomorphismReport(forward={'a': 1}, backward={}, round_trip_ok=True,"
        " order_preserved_ok=False, brute_force_matched=None, failures=('x',))",
    ),
    (
        PosetDocument,
        {"name": "p", "elements": ("a", "b"), "relations": (("a", "b"),)},
        "PosetDocument(name='p', elements=('a', 'b'), relations=(('a', 'b'),))",
    ),
]
NAMES = [cls.__name__ for cls, _, _ in RECORDS]
# These hold dicts, so they compare by field but cannot be hashed.
UNHASHABLE = {IrreducibleReport, IsomorphismReport}


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=NAMES)
def test_record_contract(cls, fields, text):
    values = tuple(fields.values())
    by_position, by_keyword = cls(*values), cls(**fields)
    assert by_position == by_keyword
    assert not by_position != by_keyword
    assert tuple(getattr(by_keyword, name) for name in fields) == values
    assert repr(by_position) == repr(by_keyword) == text
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(by_position)
    else:
        assert hash(by_position) == hash(by_keyword)
    first = next(iter(fields))
    changed = cls(**{**fields, first: "other"})
    assert changed != by_position
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(by_position, name, None)


@pytest.mark.parametrize("cls, fields, text", RECORDS[:-1], ids=NAMES[:-1])
def test_named_tuples_equal_their_field_tuples(cls, fields, text):
    record = cls(**fields)
    assert isinstance(record, tuple)
    assert record == tuple(fields.values())
    assert list(record) == list(fields.values())


def test_document_is_not_a_tuple():
    fields = RECORDS[-1][1]
    doc = PosetDocument(**fields)
    assert not isinstance(doc, tuple)
    assert doc != tuple(fields.values())
    assert doc.canonical() == doc


def test_isomorphism_report_failures_default_to_empty():
    report = IsomorphismReport({}, {}, True, True, None)
    assert report.failures == ()
    assert report.ok
    assert report == IsomorphismReport(
        forward={}, backward={}, round_trip_ok=True, order_preserved_ok=True,
        brute_force_matched=None, failures=(),
    )


def test_poset_compares_by_identity():
    by_position = FinitePoset(("a", "b"), (3, 2))
    by_keyword = FinitePoset(elements=("a", "b"), up_masks=(3, 2))
    assert by_position == by_position and by_position != by_keyword
    assert hash(by_position) == object.__hash__(by_position)
    assert hash(by_position) != hash(by_keyword)
    assert repr(by_position) == repr(by_keyword) == CHAIN_REPR
    assert by_keyword.down_masks == (1, 3)
    assert by_keyword.index("b") == 1
    assert not isinstance(by_position, tuple)
    for name in ("elements", "up_masks", "_index", "down_masks", "extra"):
        with pytest.raises(AttributeError):
            setattr(by_position, name, None)
        with pytest.raises(AttributeError):
            delattr(by_position, name)
    # Maps over equal but distinct posets differ, since the bases do.
    assert MonotoneMap(by_position, 1) != MonotoneMap(by_keyword, 1)
