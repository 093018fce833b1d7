"""DOT emission of Hasse diagrams for posets and dual lattices.

Plain digraphs only: quoted node ids, optional label attributes, and
lower -> upper cover edges.
"""

import re
from itertools import compress, count

from .dual import _support_elements
from .errors import LemmaViolationError
from .poset import _digits, transitive_reduction

_DOT_ID = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_DOT_KEYWORDS = {"node", "edge", "graph", "digraph", "subgraph", "strict"}


def _set_label(names, support):
    # '{a,b}' or '{}': the names at the support's set bits.
    return "{" + ",".join(_support_elements(names, support)) + "}"


def support_label(x):
    """Stable set notation for a member's support, e.g. '{a,b}' or '{}'."""
    return _set_label(x.base.elements, x.support)


def _escape(text):
    # Inside a DOT quoted string, a backslash or quote is escaped.
    return str(text).replace("\\", "\\\\").replace('"', '\\"')


def _graph_id(name):
    # A bare DOT ID may not start with a digit or be a keyword (keywords
    # are case-independent); anything else is written quoted.
    if _DOT_ID.match(name) and name.lower() not in _DOT_KEYWORDS:
        return name
    return f'"{_escape(name)}"'


def emit_poset_dot(poset, name="P"):
    covers = transitive_reduction(poset)
    lines = [f"digraph {_graph_id(name)} {{"]
    for e in poset.elements:
        lines.append(f'  "{_escape(e)}";')
    for lower, upper in covers.pairs:
        lines.append(f'  "{_escape(lower)}" -> "{_escape(upper)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cover_edges(lattice):
    # U -> U | {p} maps the members with p maximal outside (M_p) onto
    # those with p minimal inside (J_p), preserving canonical order, since
    # it adds one bit to supports that lack it; so the k-th members of the
    # two masks are joined. The pairing is checked, so a member family
    # that is not a lattice of up-sets gets its true edges or an error.
    supports = lattice.supports
    # Each edge line is a lower head plus an upper tail, spelled once per
    # member rather than once per edge.
    heads = [f'  "m{i}" -> "m' for i in range(len(supports))]
    tails = [f'{j}";' for j in range(len(supports))]
    edges = []
    covers = zip(lattice.base.elements, *lattice.cover_masks)
    for p, (e, outside, inside) in enumerate(covers):
        bit = 1 << p
        lower = list(compress(count(), _digits(outside)))
        upper = list(compress(count(), _digits(inside)))
        if len(lower) != len(upper):
            raise LemmaViolationError(
                f"{len(lower)} members have {e!r} maximal outside "
                f"but {len(upper)} have it minimal inside"
            )
        for i, j in zip(lower, upper):
            if supports[j] != supports[i] | bit:
                raise LemmaViolationError(
                    f"member m{j} is not member m{i} plus {e!r}",
                    counterexample=(i, j),
                )
            edges.append(heads[i] + tails[j])
    # '"' sorts before every digit, so this is the order of (lower id,
    # upper id) as strings.
    edges.sort()
    return edges


def emit_lattice_dot(lattice, name="L", label_embeddings=False):
    """DOT digraph of the lattice's Hasse diagram.

    With label_embeddings, members that equal an embedded base element
    carry a trailing annotation such as 'λ:a,υ:b'. Labels are spelled
    from the supports and edges paired from the cover masks, so no
    member object is made; edges are sorted by node id string. Raises
    LemmaViolationError when the cover masks do not pair up, which the
    up-sets of the base always do.
    """
    names = tuple(map(_escape, lattice.base.elements))
    annotations = {}
    if label_embeddings:
        lambdas, upsilons = lattice.witness_tables
        for support, p in lambdas.items():
            annotations.setdefault(support, []).append(f"λ:{_escape(p)}")
        for support, p in upsilons.items():
            annotations.setdefault(support, []).append(f"υ:{_escape(p)}")

    lines = [f"digraph {_graph_id(name)} {{"]
    for i, support in enumerate(lattice.supports):
        label = _set_label(names, support)
        notes = annotations.get(support)
        if notes:
            label = f"{label} {','.join(notes)}"
        lines.append(f'  "m{i}" [label="{label}"];')
    lines += _cover_edges(lattice)
    lines.append("}")
    return "\n".join(lines) + "\n"
