"""The poset text format.

Grammar (one construct per line, '#' comments, blank lines ignored):

    poset <name>
    elements: <id> <id> ...
    relations:
    <id> < <id>
    ...

Identifiers match [A-Za-z0-9_]+. Each line is split on whitespace once;
the regex tokenizer runs only on a line those fast checks reject, to
name the offending token and its column. The canonical form sorts
elements and relation pairs, and round-trips byte-identically.
"""

import re

from .errors import (
    DuplicateElementError,
    ParseError,
    UnknownElementError,
)
from .poset import _Frozen, poset_from_relations, transitive_reduction

_IDENT = re.compile(r"[A-Za-z0-9_]+\Z")
_TOKEN = re.compile(r"\S+")


class PosetDocument(_Frozen):
    """A parsed poset file: its name, element tuple and relation pairs.

    Documents compare and hash by those three fields; they are not tuples.
    """

    __slots__ = ("name", "elements", "relations")

    def __init__(self, name, elements, relations):
        init = object.__setattr__
        init(self, "name", name)
        init(self, "elements", elements)
        init(self, "relations", relations)

    def _key(self):
        return self.name, self.elements, self.relations

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (
            f"PosetDocument(name={self.name!r}, elements={self.elements!r},"
            f" relations={self.relations!r})"
        )

    def canonical(self):
        return PosetDocument(
            self.name,
            tuple(sorted(self.elements)),
            tuple(sorted(self.relations)),
        )


def _significant_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if line.strip():
            yield lineno, line


def _identifier(token, lineno):
    ident = token.group()
    if not _IDENT.match(ident):
        column = token.start() + 1
        raise ParseError(f"bad identifier {ident!r}", line=lineno, column=column)
    return ident


def parse_poset(text):
    """Parse the text format into a document, with positioned errors."""
    lines = list(_significant_lines(text))
    pos = 0

    if pos >= len(lines):
        raise ParseError("expected 'poset <name>'", line=1)
    lineno, line = lines[pos]
    parts = line.split()
    if len(parts) != 2 or parts[0] != "poset" or not _IDENT.match(parts[1]):
        raise ParseError("expected 'poset <name>'", line=lineno)
    name = parts[1]
    pos += 1

    if pos >= len(lines):
        raise ParseError("expected 'elements:' line", line=lineno + 1)
    lineno, line = lines[pos]
    if not line.startswith("elements:"):
        raise ParseError("expected 'elements:' line", line=lineno)
    elements = line[len("elements:"):].split()
    seen = set(elements)
    if len(seen) != len(elements) or not all(map(_IDENT.match, elements)):
        # Rescan token by token for the first offender and its column.
        seen = set()
        for token in _TOKEN.finditer(line, len("elements:")):
            ident = _identifier(token, lineno)
            if ident in seen:
                raise DuplicateElementError(
                    f"line {lineno}: duplicate element: {ident!r}"
                )
            seen.add(ident)
    pos += 1

    if pos >= len(lines):
        raise ParseError("expected 'relations:' line", line=lineno + 1)
    lineno, line = lines[pos]
    if line != "relations:":
        raise ParseError("expected 'relations:' line", line=lineno)
    pos += 1

    relations = []
    for lineno, line in lines[pos:]:
        parts = line.split()
        if len(parts) != 3 or parts[1] != "<":
            raise ParseError("expected '<id> < <id>'", line=lineno)
        lower, _, upper = parts
        if lower not in seen or upper not in seen:
            # seen holds only identifiers, so only this branch can fail;
            # it rescans the ends in order for the error and its column.
            for token in list(_TOKEN.finditer(line))[::2]:
                ident = _identifier(token, lineno)
                if ident not in seen:
                    raise UnknownElementError(
                        f"line {lineno}: unknown element: {ident!r}"
                    )
        relations.append((lower, upper))

    return PosetDocument(name, tuple(elements), tuple(relations))


def canonical_text(doc):
    """Serialize a document in its canonical (sorted) form."""
    doc = doc.canonical()
    out = [f"poset {doc.name}"]
    out.append("elements: " + " ".join(doc.elements) if doc.elements else "elements:")
    out.append("relations:")
    for lower, upper in doc.relations:
        out.append(f"{lower} < {upper}")
    return "\n".join(out) + "\n"


def build_poset(doc):
    """Construct the poset a document describes (closure of its pairs)."""
    return poset_from_relations(doc.elements, doc.relations)


def document_from_poset(poset, name):
    """Document for a poset, using its cover pairs as the relation list."""
    covers = transitive_reduction(poset)
    return PosetDocument(name, poset.elements, covers.pairs)
