"""DOT emission of Hasse diagrams for posets and dual lattices.

Plain digraphs only: quoted node ids, optional label attributes, and
lower -> upper cover edges.
"""

from .dual import _maximal_outside, _witness_tables
from .poset import transitive_reduction


def support_label(x):
    """Stable set notation for a member's support, e.g. '{a,b}' or '{}'."""
    return "{" + ",".join(x.support_elements()) + "}"


def emit_poset_dot(poset, name="P"):
    covers = transitive_reduction(poset)
    lines = [f"digraph {name} {{"]
    for e in poset.elements:
        lines.append(f'  "{e}";')
    for lower, upper in covers.pairs:
        lines.append(f'  "{lower}" -> "{upper}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def emit_lattice_dot(lattice, name="L", label_embeddings=False):
    """DOT digraph of the lattice's Hasse diagram.

    With label_embeddings, members that equal an embedded base element
    carry a trailing annotation such as 'λ:a,υ:b'. The upper covers of
    member U are U | {p} for each p maximal outside U, so the edges cost
    O(n) per member; they are sorted by node id string.
    """
    annotations = {}
    if label_embeddings:
        lambdas, upsilons = _witness_tables(lattice.base)
        for support, p in lambdas.items():
            annotations.setdefault(support, []).append(f"λ:{p}")
        for support, p in upsilons.items():
            annotations.setdefault(support, []).append(f"υ:{p}")

    lines = [f"digraph {name} {{"]
    for i, x in enumerate(lattice.members):
        label = support_label(x)
        notes = annotations.get(x.support)
        if notes:
            label = f"{label} {','.join(notes)}"
        lines.append(f'  "m{i}" [label="{label}"];')
    up_masks = lattice.base.up_masks
    edges = sorted(
        (f"m{i}", f"m{lattice.index_of_support(x.support | 1 << p)}")
        for i, x in enumerate(lattice.members)
        for p in _maximal_outside(up_masks, x.support)
    )
    for lower, upper in edges:
        lines.append(f'  "{lower}" -> "{upper}";')
    lines.append("}")
    return "\n".join(lines) + "\n"

