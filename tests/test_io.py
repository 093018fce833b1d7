import pytest

from posetdual import (
    DuplicateElementError,
    ParseError,
    UnknownElementError,
    build_poset,
    canonical_text,
    document_from_poset,
    emit_lattice_dot,
    emit_poset_dot,
    enumerate_dual,
    leq,
    parse_poset,
    poset_from_relations,
    random_poset,
)

CHAIN2_TEXT = "poset P\nelements: a b\nrelations:\na < b\n"


def test_parse_chain():
    doc = parse_poset(CHAIN2_TEXT)
    assert doc.name == "P"
    assert doc.elements == ("a", "b")
    assert doc.relations == (("a", "b"),)
    p = build_poset(doc)
    assert leq(p, "a", "b")


def test_parse_antichain():
    doc = parse_poset("poset P\nelements: a b\nrelations:\n")
    assert doc.relations == ()


def test_parse_empty_elements():
    doc = parse_poset("poset P\nelements:\nrelations:\n")
    assert doc.elements == ()
    assert build_poset(doc).n == 0


def test_parse_unknown_element_position():
    with pytest.raises(UnknownElementError) as exc:
        parse_poset("poset P\nelements: a\nrelations:\nb < a\n")
    assert "line 4" in str(exc.value)


def test_parse_duplicate_element():
    with pytest.raises(DuplicateElementError):
        parse_poset("poset P\nelements: a a\nrelations:\n")


def test_parse_errors_have_positions():
    with pytest.raises(ParseError) as exc:
        parse_poset("posett P\nelements: a\nrelations:\n")
    assert exc.value.line == 1
    with pytest.raises(ParseError) as exc:
        parse_poset("poset P\nelements: a\nrelations:\na << a\n")
    assert exc.value.line == 4
    # Columns point at the bad token itself, not at an earlier
    # occurrence of its text on the line.
    with pytest.raises(ParseError) as exc:
        parse_poset("poset P\nelements: a s:\nrelations:\n")
    assert (exc.value.line, exc.value.column) == (2, 13)
    with pytest.raises(ParseError) as exc:
        parse_poset("poset P\nelements: a\nrelations:\na < <\n")
    assert (exc.value.line, exc.value.column) == (4, 5)


def test_comments_and_blank_lines_ignored():
    text = "# header\n\nposet P  # name\nelements: a b\n\nrelations:\na < b\n"
    doc = parse_poset(text)
    assert doc.relations == (("a", "b"),)


def test_final_newline_optional():
    assert parse_poset(CHAIN2_TEXT.rstrip("\n")) == parse_poset(CHAIN2_TEXT)


def test_canonical_roundtrip_is_identity():
    doc = parse_poset("poset P\nelements: b a\nrelations:\nb < a\n")
    text = canonical_text(doc)
    assert parse_poset(text).canonical() == doc.canonical()
    assert canonical_text(parse_poset(text)) == text


def test_canonical_roundtrip_random():
    for seed in range(20):
        p = random_poset(5, seed, 0.4)
        doc = document_from_poset(p, "r")
        text = canonical_text(doc)
        assert canonical_text(parse_poset(text)) == text
        q = build_poset(parse_poset(text))
        assert q.up_masks == p.up_masks


def test_dot_chain():
    p = poset_from_relations(["a", "b"], [("a", "b")])
    text = emit_poset_dot(p, "P")
    assert '"a" -> "b";' in text
    assert text.startswith("digraph P {")


@pytest.mark.parametrize("name", ["9x", "node", "Graph"])
def test_dot_quotes_names_that_are_not_bare_ids(name):
    # The parser accepts these names; DOT needs them quoted.
    lattice = enumerate_dual(poset_from_relations(["a"], []))
    assert emit_poset_dot(lattice.base, name).startswith(f'digraph "{name}" {{\n')
    assert emit_lattice_dot(lattice, name).startswith(f'digraph "{name}" {{\n')


def test_dot_escapes_quotes_and_backslashes():
    # Library callers may name elements with characters the file parser
    # rejects; every quoted DOT string escapes them.
    p = poset_from_relations(['a"b', "c"], [('a"b', "c")])
    text = emit_poset_dot(p, 'P"1')
    assert text == 'digraph "P\\"1" {\n  "a\\"b";\n  "c";\n  "a\\"b" -> "c";\n}\n'
    lattice = enumerate_dual(poset_from_relations(['a"b', "c\\"], []))
    text = emit_lattice_dot(lattice, "L", label_embeddings=True)
    assert '"m3" [label="{a\\"b,c\\\\}"];' in text
    assert '"m1" [label="{a\\"b} λ:c\\\\,υ:a\\"b"];' in text


def test_dot_square_lattice():
    lattice = enumerate_dual(poset_from_relations(["a", "b"], []))
    text = emit_lattice_dot(lattice, "L")
    assert text.count("->") == 4
    assert text.count("label=") == 4


def test_dot_embedding_labels():
    lattice = enumerate_dual(poset_from_relations(["a", "b"], [("a", "b")]))
    text = emit_lattice_dot(lattice, "L", label_embeddings=True)
    assert 'label="{} λ:b"' in text
    assert 'label="{b} λ:a,υ:b"' in text
    assert 'label="{a,b} υ:a"' in text


def test_dot_deterministic():
    lattice = enumerate_dual(poset_from_relations(["a", "b", "c"], [("a", "c")]))
    assert emit_lattice_dot(lattice) == emit_lattice_dot(lattice)
