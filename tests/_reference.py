"""Reference code that only the tests and ``scripts/output_hash.py`` use.

``write_smiles`` emits a non-canonical SMILES for a parsed molecule; with
a seeded ``rng`` it shuffles the starting atom and the branch order, which
is what the atom-permutation invariance tests and the seeded rewrites of
the output hash need.  The package itself never writes SMILES.
"""

from __future__ import annotations

from attrilens.molgraph import (
    AROMATIC_ELEMENTS,
    Atom,
    Bond,
    Molecule,
    SmilesError,
    _default_h,
    _order_sums,
)

# Elements that may be written without brackets.
ORGANIC_SUBSET = {"B", "C", "N", "O", "P", "S", "F", "Cl", "Br", "I"}


def write_smiles(mol: Molecule, rng=None, root: int | None = None) -> str:
    """Emit SMILES for the graph, optionally with randomized traversal.

    The output is valid but not canonical: passing a seeded ``rng``
    (numpy Generator) shuffles branch order and the starting atom, which is
    exactly what the atom-permutation invariance tests need.
    """
    if len(mol.atoms) == 0:
        return ""
    order = list(range(len(mol.atoms)))
    if rng is not None:
        rng.shuffle(order)
    if root is not None:
        order.remove(root)
        order.insert(0, root)

    order_sums = _order_sums(mol)
    visited = [False] * len(mol.atoms)
    ring_labels: dict[tuple[int, int], int] = {}
    label_busy: dict[int, bool] = {}
    pieces: list[str] = []

    def free_label() -> int:
        k = 1
        while label_busy.get(k):
            k += 1
        label_busy[k] = True
        return k

    def bond_char(bond: Bond, from_arom: bool, to_arom: bool) -> str:
        if bond.order == "single":
            return "-" if (from_arom and to_arom) else ""
        if bond.order == "aromatic":
            return ""
        return {"double": "=", "triple": "#"}[bond.order]

    def atom_token(atom: Atom) -> str:
        sym = atom.element
        lower = sym.lower() if atom.aromatic else sym
        if atom.aromatic and sym not in AROMATIC_ELEMENTS:
            raise SmilesError(f"cannot write aromatic {sym}")
        needs_bracket = (atom.bracket or atom.formal_charge != 0
                         or atom.isotope is not None
                         or sym not in ORGANIC_SUBSET
                         # would a bare token rederive the hydrogen count?
                         or _default_h(atom, mol.degree(atom.index),
                                       order_sums[atom.index]) != atom.total_h)
        if not needs_bracket:
            return lower
        parts = ["["]
        if atom.isotope is not None:
            parts.append(str(atom.isotope))
        parts.append(lower if atom.aromatic else sym)
        h = atom.total_h
        if h == 1:
            parts.append("H")
        elif h > 1:
            parts.append(f"H{h}")
        c = atom.formal_charge
        if c == 1:
            parts.append("+")
        elif c == -1:
            parts.append("-")
        elif c > 1:
            parts.append(f"+{c}")
        elif c < -1:
            parts.append(f"-{-c}")
        parts.append("]")
        return "".join(parts)

    # Pre-pass: find ring-closure bonds via DFS tree
    closure_bonds: set[int] = set()
    tree_children: dict[int, list[tuple[int, int]]] = {}
    for start in order:
        if visited[start]:
            continue
        stack = [(start, -1)]
        visited[start] = True
        while stack:
            node, via = stack.pop()
            nbrs = [(j, bi) for j, bi in mol._adj[node] if bi != via]
            if rng is not None:
                idx = list(range(len(nbrs)))
                rng.shuffle(idx)
                nbrs = [nbrs[k] for k in idx]
            for j, bi in nbrs:
                if visited[j]:
                    if bi not in closure_bonds and bi != via:
                        closure_bonds.add(bi)
                else:
                    visited[j] = True
                    tree_children.setdefault(node, []).append((j, bi))
                    stack.append((j, bi))

    # The DFS above fixed the spanning structure; emit it in preorder from
    # an explicit stack of atoms (ints) and literal text (strs).
    emitted = [False] * len(mol.atoms)
    closures_at: dict[int, list[int]] = {}
    for bi in closure_bonds:
        closures_at.setdefault(mol.bonds[bi].a, []).append(bi)
        closures_at.setdefault(mol.bonds[bi].b, []).append(bi)
    open_closures: dict[int, int] = {}  # bond index -> label

    def emit_atom(node: int) -> None:
        atom = mol.atoms[node]
        pieces.append(atom_token(atom))
        emitted[node] = True
        for bi in closures_at.get(node, ()):  # ring closure digits
            bond = mol.bonds[bi]
            if bi in open_closures:
                label = open_closures.pop(bi)
                label_busy[label] = False
                other = bond.other(node)
                pieces.append(bond_char(bond, mol.atoms[other].aromatic, atom.aromatic))
                pieces.append(str(label) if label < 10 else f"%{label:02d}")
            else:
                label = free_label()
                open_closures[bi] = label
                other = bond.other(node)
                pieces.append(bond_char(bond, atom.aromatic, mol.atoms[other].aromatic))
                pieces.append(str(label) if label < 10 else f"%{label:02d}")

    for start in order:
        if emitted[start]:
            continue
        if pieces:
            pieces.append(".")
        stack: list[int | str] = [start]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                pieces.append(item)
                continue
            emit_atom(item)
            atom = mol.atoms[item]
            children = tree_children.get(item, [])
            todo: list[int | str] = []
            for k, (child, bi) in enumerate(children):
                bc = bond_char(mol.bonds[bi], atom.aromatic,
                               mol.atoms[child].aromatic)
                if k < len(children) - 1:
                    todo += ["(" + bc, child, ")"]
                else:
                    todo += [bc, child]
            stack.extend(reversed(todo))
    return "".join(pieces)
