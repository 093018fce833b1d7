import random

import pytest

from posetdual import (
    DuplicateElementError,
    ParseError,
    PosetDualError,
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

from conftest import parse_poset_scan

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
    # An error that names no token points at the start of its line.
    with pytest.raises(ParseError) as exc:
        parse_poset("posett P\nelements: a\nrelations:\n")
    assert (exc.value.line, exc.value.column) == (1, 1)
    assert str(exc.value) == "line 1, column 1: expected 'poset <name>'"
    with pytest.raises(ParseError) as exc:
        parse_poset("poset P\nelements: a\nrelations:\na << a\n")
    assert (exc.value.line, exc.value.column) == (4, 1)
    # Columns point at the bad token itself, not at an earlier
    # occurrence of its text on the line.
    with pytest.raises(ParseError) as exc:
        parse_poset("poset P\nelements: a s:\nrelations:\n")
    assert (exc.value.line, exc.value.column) == (2, 13)
    with pytest.raises(ParseError) as exc:
        parse_poset("poset P\nelements: a\nrelations:\na < <\n")
    assert (exc.value.line, exc.value.column) == (4, 5)


@pytest.mark.parametrize(
    "text, line, expected",
    [
        ("", 1, "'poset <name>'"),
        ("# only a comment\n", 1, "'poset <name>'"),
        ("poset P\n", 2, "'elements:'"),
        ("poset P\n\n# a note\nelement: a\n", 4, "'elements:'"),
        ("poset P\nelements: a\n", 3, "'relations:'"),
        ("poset P\nelements: a\nrelation:\n", 3, "'relations:'"),
    ],
    ids=[
        "empty",
        "comment-only",
        "eof-after-poset",
        "not-elements",
        "eof-after-elements",
        "not-relations",
    ],
)
def test_parse_header_errors(text, line, expected):
    # A missing header line is reported on the line after the last one
    # read, a wrong one on its own line, blank and comment lines counted.
    with pytest.raises(ParseError, match=expected) as exc:
        parse_poset(text)
    assert exc.value.line == line


# Whitespace that str.split() and the regex \S+ must both split on; none
# of it ends a line for str.splitlines().
SEPARATORS = (" ", "  ", "\t", " \t ", "\x1f", "\xa0", "\u3000")
BAD_NAMES = ("a-b", "é", "x.y")


def _outcome(parse, text):
    try:
        return parse(text)
    except PosetDualError as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)


def _mutated_document(rng):
    """A valid document's lines as token lists, with seeded mutations:
    unknown and bad names on either side of a relation, broken `<`
    tokens, lines of 2 and 4 tokens, repeated and bad element names."""
    n = rng.randint(1, 7)
    names = rng.sample(["a", "b", "c", "x1", "Y_2", "n10", "e0", "e1", "zz9"], n)
    relations = [
        [rng.choice(names), "<", rng.choice(names)] for _ in range(rng.randint(0, 8))
    ]
    elements = list(names)
    for _ in range(rng.choice((0, 0, 1, 1, 2))):
        kind = rng.randrange(9)
        whole = [line for line in relations if len(line) == 3]
        if kind == 0 or not whole:
            spot = rng.randint(0, len(elements))
            elements.insert(spot, rng.choice(names + list(BAD_NAMES)))
            continue
        line = rng.choice(whole)
        side = rng.choice((0, 2))
        if kind == 1:
            line[side] = "unknown"
        elif kind == 2:
            line[side] = rng.choice(BAD_NAMES)
        elif kind == 3:
            line[1] = "<<"
        elif kind == 4:
            line[1:] = ["<" + line[2]]  # a <b
        elif kind == 5:
            line[:] = [line[0], line[2]]
        elif kind == 6:
            line.append(rng.choice(names))
        elif kind == 7:
            line[side] = rng.choice(BAD_NAMES) + rng.choice(SEPARATORS) + "q"
        else:
            line[1] = rng.choice(("<=", ">", "<<<"))
    return elements, relations


def _render(rng, elements, relations):
    def join(tokens):
        out = rng.choice(("", "", " ", "\t"))
        for token in tokens:
            out += token + rng.choice(SEPARATORS)
        return out.rstrip(" ") if rng.random() < 0.5 else out

    def comment():
        return rng.choice(("", "", " # note", "# x < y", "\t#a b c"))

    lines = [f"poset P{comment()}", "elements:" + join(elements) + comment()]
    lines.append("relations:" + comment())
    lines += [join(tokens) + comment() for tokens in relations]
    return "\n".join(lines) + "\n"


def test_parser_matches_token_scan_on_mutations():
    # Splitting each line once and rescanning only lines it rejects gives
    # the same document, or the same error with the same line and column.
    rng = random.Random(19)
    kinds = set()
    for _ in range(3000):
        text = _render(rng, *_mutated_document(rng))
        got = _outcome(parse_poset, text)
        assert got == _outcome(parse_poset_scan, text), text
        if not isinstance(got, tuple):
            kinds.add("ok")
        elif "bad identifier" in got[1]:
            kinds.add("bad element name" if got[2] == 2 else "bad relation name")
        else:
            kinds.add(got[0].__name__)
    assert kinds == {
        "ok",
        "bad element name",
        "bad relation name",
        "DuplicateElementError",
        "ParseError",  # a relation line not of the form '<id> < <id>'
        "UnknownElementError",
    }


MISSPELLED = {"poset": "posett", "elements:": "element:", "relations:": "relation:"}
HEADER_ERRORS = {
    "expected 'poset <name>'": "poset",
    "expected 'elements:' line": "elements",
    "expected 'relations:' line": "relations",
}


def _mutated_header(rng):
    """A valid document's text with seeded mutations of its three header
    lines only: a header dropped or its keyword misspelled, a token added
    or dropped, two headers swapped, and blank, comment-only or indented
    lines put before a header."""
    names = rng.sample(["a", "b", "c", "x1"], rng.randint(0, 4))
    headers = [["poset", "P"], ["elements:", *names], ["relations:"]]
    before = [[], [], []]  # the lines put before each header
    for _ in range(rng.choice((0, 1, 1, 2, 3))):
        kind = rng.randrange(7)
        h = rng.randrange(3)
        tokens = headers[h]
        if kind in (1, 3) and not tokens:
            continue  # nothing to misspell or drop
        if kind == 0:
            tokens.clear()  # left as a blank line
        elif kind == 1:
            tokens[0] = MISSPELLED.get(tokens[0], tokens[0] + "s")
        elif kind == 2:
            extra = rng.choice(names + ["P", "a", "a-b", "relations:"])
            tokens.insert(rng.randint(0, len(tokens)), extra)
        elif kind == 3:
            del tokens[rng.randrange(len(tokens))]
        elif kind == 4:
            g = rng.randrange(3)
            headers[h], headers[g] = headers[g], headers[h]
        elif kind == 5:
            before[h].append(rng.choice(("", "   ", "# note", "\t# elements: a")))
        else:
            before[h].append(rng.choice((" ", "\t")) + " ".join(tokens))
            tokens.clear()
    lines = []
    for extra, tokens in zip(before, headers):
        lines += extra
        lines.append(" ".join(tokens))
    if names and rng.random() < 0.5:
        lines.append(f"{rng.choice(names)} < {rng.choice(names)}")
    return "\n".join(lines) + rng.choice(("\n", "", "\n\n# end\n"))


def test_parser_matches_token_scan_on_header_mutations():
    # Reading the headers off the line iterator gives the same document,
    # or the same error with the same line and column, as the cursor
    # over a list of lines; a missing header is one at the end of input.
    rng = random.Random(23)
    kinds = set()
    for _ in range(3000):
        text = _mutated_header(rng)
        got = _outcome(parse_poset, text)
        assert got == _outcome(parse_poset_scan, text), text
        if not isinstance(got, tuple):
            kinds.add("ok")
            continue
        header = HEADER_ERRORS.get(got[1].split(": ", 1)[1])
        if header:
            rest = [line.split("#", 1)[0] for line in text.splitlines()[got[2] - 1:]]
            kinds.add((header, "wrong" if any(map(str.strip, rest)) else "missing"))
    assert kinds == {
        "ok",
        *((header, where) for header in ("poset", "elements", "relations")
          for where in ("wrong", "missing")),
    }


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
