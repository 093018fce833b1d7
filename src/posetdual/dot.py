"""DOT emission of Hasse diagrams for posets and dual lattices.

Plain digraphs only: quoted node ids, optional label attributes, and
lower -> upper cover edges.
"""

import io
import re
from itertools import compress, count

from .errors import LemmaViolationError
from .poset import _digits, transitive_reduction

_DOT_ID = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_DOT_KEYWORDS = {"node", "edge", "graph", "digraph", "subgraph", "strict"}
# Lines per write of a lattice DOT.
_BLOCK_LINES = 1 << 12


def support_label(x):
    """Stable set notation for a member's support, e.g. '{a,b}' or '{}'."""
    return "{" + ",".join(x.support_elements()) + "}"


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
    supports = lattice.supports.tolist()
    # Each edge line is a lower head plus an upper tail, spelled once per
    # member rather than once per edge.
    heads = [f'  "m{i}" -> "m' for i in range(len(supports))]
    tails = [f'{j}";\n' for j in range(len(supports))]
    edges = []
    covers = zip(lattice.base.elements, lattice.strict_bounds())
    for p, (e, (column, above, below)) in enumerate(covers):
        bit = 1 << p
        lower = list(compress(count(), _digits(above & ~column)))
        upper = list(compress(count(), _digits(column & ~below)))
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
        edges += [heads[i] + tails[j] for i, j in zip(lower, upper)]
    # '"' sorts before every digit, so this is the order of (lower id,
    # upper id) as strings.
    edges.sort()
    return edges


class _Spelled(dict):
    # {half of a support: the names at its set bits, each followed by ','},
    # each value spelled on its first lookup.
    def __init__(self, names):
        super().__init__()
        self.names = [f"{e}," for e in names]

    def __missing__(self, half):
        text = self[half] = "".join(compress(self.names, _digits(half)))
        return text


def write_lattice_dot(lattice, fh, name="L", label_embeddings=False):
    """Write the DOT digraph of the lattice's Hasse diagram to the text
    file fh.

    The header, one node per member in canonical order, and the edges
    sorted by node id string are written in blocks of _BLOCK_LINES
    lines; neither the diagram nor its node lines are ever held whole.
    A node's label names its support's elements, '{a,b}' or '{}', joined
    from the support's low and high halves, each half spelled once per
    distinct value. With label_embeddings, members that equal an
    embedded base element carry a trailing annotation such as
    'λ:a,υ:b'. Edges are paired from the cover masks, so no member
    object is made. Raises LemmaViolationError, before anything is
    written, when the cover masks do not pair up, which the up-sets of
    the base always do.
    """
    edges = _cover_edges(lattice)
    base, supports = lattice.base, lattice.supports
    names = tuple(map(_escape, base.elements))
    # {member index: its λ/υ annotations}, λ first, each in element order.
    tags = {}
    if label_embeddings:
        for sign, indices in zip("λυ", lattice.witnesses):
            for p, i in zip(names, indices):
                if i is not None:
                    tags.setdefault(i, []).append(f"{sign}:{p}")
    notes = {i: " " + ",".join(t) for i, t in tags.items()}
    half = base.n // 2
    low_mask = (1 << half) - 1
    low, high = _Spelled(names[:half]), _Spelled(names[half:])

    fh.write(f"digraph {_graph_id(name)} {{\n")
    # A label is '{', the two halves' names less the last ',', and '}'.
    for start in range(0, len(supports), _BLOCK_LINES):
        block = supports[start : start + _BLOCK_LINES]
        fh.write("".join([
            f'  "m{i}" [label="{{{(low[s & low_mask] + high[s >> half])[:-1]}}}'
            f'{notes.get(i, "")}"];\n'
            for i, s in zip(count(start), block)
        ]))
    for start in range(0, len(edges), _BLOCK_LINES):
        fh.write("".join(edges[start : start + _BLOCK_LINES]))
    fh.write("}\n")


def emit_lattice_dot(lattice, name="L", label_embeddings=False):
    """The text write_lattice_dot writes, as one string, for callers
    that want it in memory; the CLI writes its files block by block."""
    buffer = io.StringIO()
    write_lattice_dot(lattice, buffer, name, label_embeddings)
    return buffer.getvalue()
