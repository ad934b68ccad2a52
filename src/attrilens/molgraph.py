"""Minimal molecular graph model built from SMILES text.

The parser covers the organic subset, bracket atoms (isotope, chirality,
explicit hydrogens, charge, atom class), ring-closure labels including the
``%nn`` form, branches, and dot-separated components.  Every number in
SMILES (ring labels, isotopes, hydrogen counts, charges, chirality and atom
classes) is written in ASCII digits; any other digit character is rejected.
A ring closure may not duplicate an existing bond (``C1C1`` is rejected).
Stereo markers are accepted and recorded but play no further role: every
downstream consumer (descriptors, scaffolds) is stereochemistry-blind.

Aromaticity is taken at face value for lowercase input.  Kekule input is
aromatized by a deliberately simple Hueckel-style pass: a ring becomes
aromatic when every member is sp2-capable and the ring pi count is 4n+2,
with fused partners contributing one electron through the shared bond.
This perceives ordinary benzenoids, pyridines, azoles and their fusions;
exotic systems (azulenes written in Kekule form, charged rings) are out of
scope and simply stay aliphatic.

Implicit hydrogens follow the usual SMILES conventions: bracket atoms have
exactly the hydrogens they declare, bare organic-subset atoms fill up to
the smallest default valence that accommodates their explicit bonds, and
bare aromatic atoms fill up to valence minus (degree + 1), the extra unit
standing in for the delocalized pi bond.
"""

from __future__ import annotations

import functools
import hashlib
import re
from dataclasses import dataclass

__all__ = [
    "Atom",
    "Bond",
    "Molecule",
    "SmilesError",
    "UnbalancedRing",
    "UnbalancedBranch",
    "UnknownElement",
    "ValenceError",
    "parse_smiles",
    "murcko_scaffold",
    "molecule_key",
    "scaffold_key",
    "write_smiles",
    "EMPTY_SCAFFOLD_KEY",
]


class SmilesError(ValueError):
    """Base class for rejected SMILES input."""


class UnbalancedRing(SmilesError):
    """Ring-closure label opened but never closed, or closed inconsistently."""


class UnbalancedBranch(SmilesError):
    """Parenthesis nesting does not balance."""


class UnknownElement(SmilesError):
    """Atom symbol outside the supported element set."""


class ValenceError(SmilesError):
    """Explicit valence exceeds the maximum for a bare organic-subset atom."""


# Elements that may be written without brackets.
ORGANIC_SUBSET = {"B", "C", "N", "O", "P", "S", "F", "Cl", "Br", "I"}

# Elements allowed to carry the aromatic flag.
AROMATIC_ELEMENTS = {"B", "C", "N", "O", "P", "S", "Se", "As"}

# Default valences; multi-valent elements list alternatives in increasing
# order and the smallest one that fits the explicit bonds wins.
DEFAULT_VALENCES: dict[str, tuple[int, ...]] = {
    "B": (3,),
    "C": (4,),
    "N": (3,),
    "O": (2,),
    "P": (3, 5),
    "S": (2, 4, 6),
    "F": (1,),
    "Cl": (1,),
    "Br": (1,),
    "I": (1,),
}

# Standard atomic weights, enough to cover MoleculeNet-style corpora.
ATOMIC_MASSES: dict[str, float] = {
    "H": 1.008, "He": 4.003, "Li": 6.941, "Be": 9.012, "B": 10.811,
    "C": 12.011, "N": 14.007, "O": 15.999, "F": 18.998, "Ne": 20.180,
    "Na": 22.990, "Mg": 24.305, "Al": 26.982, "Si": 28.086, "P": 30.974,
    "S": 32.067, "Cl": 35.453, "Ar": 39.948, "K": 39.098, "Ca": 40.078,
    "Ti": 47.867, "V": 50.942, "Cr": 51.996, "Mn": 54.938, "Fe": 55.845,
    "Co": 58.933, "Ni": 58.693, "Cu": 63.546, "Zn": 65.38, "Ga": 69.723,
    "Ge": 72.63, "As": 74.922, "Se": 78.971, "Br": 79.904, "Kr": 83.798,
    "Rb": 85.468, "Sr": 87.62, "Zr": 91.224, "Mo": 95.95, "Ru": 101.07,
    "Rh": 102.906, "Pd": 106.42, "Ag": 107.868, "Cd": 112.414,
    "In": 114.818, "Sn": 118.711, "Sb": 121.760, "Te": 127.60,
    "I": 126.904, "Xe": 131.294, "Cs": 132.905, "Ba": 137.328,
    "La": 138.905, "Gd": 157.25, "W": 183.84, "Pt": 195.085,
    "Au": 196.967, "Hg": 200.592, "Tl": 204.383, "Pb": 207.21,
    "Bi": 208.980,
}

BOND_ORDER_VALUE = {"single": 1.0, "double": 2.0, "triple": 3.0, "aromatic": 1.5}

_BOND_CHAR_ORDER = {"-": "single", "=": "double", "#": "triple", ":": "aromatic",
                    "/": "single", "\\": "single"}


@dataclass(slots=True)
class Atom:
    """One heavy atom (or explicit [H]) of the graph."""

    element: str
    formal_charge: int = 0
    aromatic: bool = False
    explicit_h: int = 0
    isotope: int | None = None
    index: int = -1
    bracket: bool = False
    chirality: str | None = None
    implicit_h: int = 0

    @property
    def total_h(self) -> int:
        return self.explicit_h + self.implicit_h

    @property
    def mass(self) -> float:
        if self.isotope is not None:
            # Approximate isotope mass by its mass number; good enough for
            # the desk-scale weight descriptor.
            return float(self.isotope)
        return ATOMIC_MASSES[self.element]


@dataclass(slots=True)
class Bond:
    a: int
    b: int
    order: str  # single | double | triple | aromatic
    stereo: str | None = None  # '/' or '\\' as written; ignored downstream

    def other(self, idx: int) -> int:
        return self.b if idx == self.a else self.a


class Molecule:
    """Immutable-by-convention molecular graph.

    ``rings`` holds a smallest-set-of-smallest-rings-sized cycle basis; each
    ring is a tuple of atom indices in traversal order, and the matching
    entry of ``ring_bond_ids`` holds its bond indices, sorted.  Mutating a
    finished Molecule is unsupported -- derived fields (adjacency, ring
    membership, cached descriptor values) would go stale.

    Storage is compact, as datasets hold thousands of molecules: ``Atom``
    and ``Bond`` are slotted, ``_adj`` holds a tuple per atom of (neighbour,
    bond index) pairs in bond order, and ring membership is one ``bytes``
    flag per atom (``_atom_ring``: 0 none, 1 a ring, 3 also a 3-membered
    ring) and per bond (``_bond_ring``: 0 or 1).  A finished molecule's
    adjacency and ring flags are immutable.  ``component_of`` labels each
    atom's connected component only when there are two or more; it is
    empty otherwise.
    """

    __slots__ = ("atoms", "bonds", "rings", "ring_bond_ids", "source",
                 "component_of", "n_components", "_adj", "_atom_ring",
                 "_bond_ring", "descriptor_cache")

    def __init__(self, atoms: list[Atom], bonds: list[Bond], source: str = ""):
        self.atoms = atoms
        self.bonds = bonds
        self.source = source
        self.rings: list[tuple[int, ...]] = []
        self.ring_bond_ids: list[tuple[int, ...]] = []
        self.component_of: list[int] | tuple[()] = ()
        self.n_components = 0
        self._adj: tuple[tuple[tuple[int, int], ...], ...] = ()
        self._atom_ring, self._bond_ring = bytes(len(atoms)), bytes(len(bonds))
        self.descriptor_cache: dict[str, float] = {}

    # -- basic queries -------------------------------------------------

    def __len__(self) -> int:
        return len(self.atoms)

    @property
    def heavy_atom_count(self) -> int:
        return sum(1 for a in self.atoms if a.element != "H")

    def neighbors(self, idx: int) -> list[tuple[int, Bond]]:
        """(neighbor index, connecting bond) pairs, in construction order."""
        return [(j, self.bonds[bi]) for j, bi in self._adj[idx]]

    def degree(self, idx: int) -> int:
        return len(self._adj[idx])

    def bond_in_ring(self, bond_index: int) -> bool:
        return self._bond_ring[bond_index] > 0

    def atom_in_ring(self, idx: int) -> bool:
        return self._atom_ring[idx] > 0

    def atom_in_3ring(self, idx: int) -> bool:
        return self._atom_ring[idx] > 1

    def largest_component(self) -> "Molecule":
        """Sub-molecule holding the component with the most heavy atoms.

        Ties break toward the lower component label, i.e. the one whose
        first atom appears earliest in the input.
        """
        if self.n_components <= 1:
            return self
        counts: dict[int, int] = {}
        for atom in self.atoms:
            if atom.element != "H":
                comp = self.component_of[atom.index]
                counts[comp] = counts.get(comp, 0) + 1
        best = max(sorted(counts), key=lambda c: counts[c])
        keep = [i for i in range(len(self.atoms)) if self.component_of[i] == best]
        return _subgraph(self, keep)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


# One SMILES token per match; the group that matched names its kind:
# 1 bare aliphatic atom, 2 bare aromatic atom, 3 bracket-atom body,
# 4 ring digit, 5 ``%nn`` label, 6 bond symbol, 7-9 ``(``, ``)``, ``.``,
# 10 any other character (an error).  ``[0-9]``, not ``\d``: only ASCII
# digits are SMILES digits.
_TOKEN = re.compile(r"(Cl|Br|[BCNOPSFI])|([bcnops])|\[([^\]]*)\]|([0-9])"
                    r"|%([0-9][0-9])|([-=#:/\\])|(\()|(\))|(\.)|(.)", re.S)


def _add_bond(bonds: list[Bond], adj: list[list[tuple[int, int]]], a: int,
              b: int, order: str, stereo: str | None) -> None:
    """Append a bond and its two adjacency entries."""
    adj[a].append((b, len(bonds)))
    adj[b].append((a, len(bonds)))
    bonds.append(Bond(a, b, order, stereo))


def parse_smiles(text: str) -> Molecule:
    """Parse SMILES into a finished Molecule.

    Raises a :class:`SmilesError` subclass on malformed input; never returns
    a partially built graph.
    """
    if not isinstance(text, str):
        raise SmilesError("SMILES must be a string")
    smiles = text.strip()
    if not smiles:
        raise SmilesError("empty SMILES")

    atoms: list[Atom] = []
    bonds: list[Bond] = []
    adj: list[list[tuple[int, int]]] = []
    prev: int | None = None
    pending_order: str | None = None
    pending_stereo: str | None = None
    branch_stack: list[int | None] = []
    # ring label -> (atom index, bond order or None, stereo)
    open_rings: dict[str, tuple[int, str | None, str | None]] = {}

    # Not finditer: on CPython 3.11 every finditer call leaves a new
    # attribute-name string in the type attribute cache, and those strings,
    # allocated among the molecules' objects, keep the memory of freed
    # molecules from being returned to the system.
    pos, n = 0, len(smiles)
    while pos < n:
        match = _TOKEN.match(smiles, pos)
        pos = match.end()
        kind = match.lastindex
        token = match[kind]
        if kind <= 3:
            if kind == 1:
                atom = Atom(token)
            elif kind == 2:
                atom = Atom(token.upper(), aromatic=True)
            else:
                atom = _parse_bracket(token, match.start())
            atom.index = len(atoms)
            atoms.append(atom)
            adj.append([])
            if prev is not None:
                order = pending_order or (
                    "aromatic" if atoms[prev].aromatic and atom.aromatic
                    else "single")
                _add_bond(bonds, adj, prev, atom.index, order, pending_stereo)
            prev = atom.index
            pending_order = pending_stereo = None
        elif kind <= 5:  # ring label
            if prev is None:
                raise UnbalancedRing(f"ring label {token!r} before any atom")
            if token in open_rings:
                start, order0, stereo0 = open_rings.pop(token)
                if start == prev:
                    raise UnbalancedRing(
                        f"ring label {token!r} closes onto its own atom")
                if (pending_order is not None and order0 is not None
                        and pending_order != order0):
                    raise UnbalancedRing(f"ring label {token!r} opened as "
                                         f"{order0} but closed as {pending_order}")
                order = pending_order or order0 or (
                    "aromatic" if atoms[start].aromatic and atoms[prev].aromatic
                    else "single")
                _add_bond(bonds, adj, start, prev, order,
                          pending_stereo or stereo0)
            else:
                open_rings[token] = (prev, pending_order, pending_stereo)
            pending_order = pending_stereo = None
        elif kind == 6:
            if pending_order is not None:
                raise SmilesError(
                    f"two bond symbols in a row at position {match.start()}")
            pending_order = _BOND_CHAR_ORDER[token]
            if token in "/\\":
                pending_stereo = token
        elif kind == 7:
            if prev is None:
                raise UnbalancedBranch("branch opened before any atom")
            branch_stack.append(prev)
        elif kind == 8:
            if not branch_stack:
                raise UnbalancedBranch("unmatched ')'")
            if pending_order is not None:
                raise SmilesError("dangling bond before ')'")
            prev = branch_stack.pop()
        elif kind == 9:
            if pending_order is not None or branch_stack:
                raise SmilesError("dot separator inside branch or after bond")
            prev = None
        elif token in " \t":
            raise SmilesError(f"whitespace inside SMILES at position {match.start()}")
        elif token == "[":
            raise SmilesError("unterminated bracket atom")
        elif token == "%":
            raise UnbalancedRing(f"bad %nn ring label at position {match.start()}")
        else:
            raise UnknownElement(
                f"unexpected character {token!r} at position {match.start()}")

    if branch_stack:
        raise UnbalancedBranch(f"{len(branch_stack)} unclosed '('")
    if open_rings:
        raise UnbalancedRing(f"unclosed ring labels: {sorted(open_rings)}")
    if pending_order is not None:
        raise SmilesError("dangling bond at end of SMILES")
    if not atoms:
        raise SmilesError("no atoms parsed")

    mol = Molecule(atoms, bonds, source=text)
    mol._adj = tuple(map(tuple, adj))
    _finalize(mol)
    return mol


_DIGITS = re.compile("[0-9]*")


def _bracket_int(digits: str, body: str) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts
        raise SmilesError(f"number too long in bracket atom {body!r}") from None


def _parse_bracket(body: str, pos: int) -> Atom:
    """Parse the interior of a bracket atom expression."""
    if not body:
        raise SmilesError(f"empty bracket atom at position {pos}")
    m = len(body)
    k = _DIGITS.match(body).end()
    isotope = _bracket_int(body[:k], body) if k else None
    if k >= m:
        raise SmilesError(f"bracket atom lacks an element symbol at position {pos}")
    aromatic = False
    if body[k].isupper():
        symbol = body[k]
        k += 1
        if k < m and body[k].islower() and (symbol + body[k]) in ATOMIC_MASSES:
            symbol += body[k]
            k += 1
    elif body[k].islower():
        # Aromatic bracket atoms: single letters plus se/as.
        if body[k : k + 2] in ("se", "as"):
            symbol = body[k : k + 2].capitalize()
            k += 2
        else:
            symbol = body[k].upper()
            k += 1
        aromatic = True
        if symbol not in AROMATIC_ELEMENTS:
            raise UnknownElement(f"aromatic form of {symbol!r} not supported")
    else:
        raise SmilesError(f"bad bracket atom {body!r}")
    if symbol not in ATOMIC_MASSES:
        raise UnknownElement(f"unknown element {symbol!r}")

    chirality = None
    if k < m and body[k] == "@":
        k += 1
        if k < m and body[k] == "@":
            chirality = "@@"
            k += 1
        else:
            chirality = "@"
        # Named chirality classes (@TH1, @AL2, ...): a two-letter code plus
        # digits. Checking for the trailing digit keeps hydrogen counts
        # ([C@H]) out of this branch.
        if body[k : k + 2] in ("TH", "AL", "SP", "TB", "OH"):
            end = _DIGITS.match(body, k + 2).end()
            if end > k + 2:
                k = end

    explicit_h = 0
    if k < m and body[k] == "H":
        end = _DIGITS.match(body, k + 1).end()
        explicit_h = _bracket_int(body[k + 1 : end], body) if end > k + 1 else 1
        k = end

    charge = 0
    if k < m and body[k] in "+-":
        sign = 1 if body[k] == "+" else -1
        k += 1
        end = _DIGITS.match(body, k).end()
        if end > k:
            charge = sign * _bracket_int(body[k:end], body)
            k = end
        else:
            charge = sign
            while k < m and body[k] == body[k - 1]:
                charge += sign
                k += 1

    if k < m and body[k] == ":":
        end = _DIGITS.match(body, k + 1).end()
        if end == k + 1 or end != m:
            raise SmilesError(f"bad atom class in bracket atom {body!r}")
        k = m  # atom class parsed and ignored

    if k != m:
        raise SmilesError(f"trailing junk in bracket atom {body!r}")

    return Atom(symbol, formal_charge=charge, aromatic=aromatic,
                explicit_h=explicit_h, isotope=isotope, bracket=True,
                chirality=chirality)


# ---------------------------------------------------------------------------
# Finalization: components, rings, aromaticity, hydrogens, valence
# ---------------------------------------------------------------------------


def _finalize(mol: Molecule) -> None:
    """Derive everything beyond raw atoms/bonds.

    Bracket atoms keep their declared hydrogen counts; implicit hydrogens
    of bare atoms are always rederived.  ``mol._adj`` is already built.
    """
    _perceive_rings(mol, *_spanning_forest(mol))
    _demote_nonring_aromatics(mol)
    _assign_implicit_h(mol)
    _aromatize_kekule(mol)


def _spanning_forest(mol: Molecule) -> tuple[dict[int, tuple[int, int]], list[int]]:
    """Label the components from one breadth-first spanning forest.

    Returns the forest as (atom -> (tree parent, tree bond), depth per atom).
    """
    label = [-1] * len(mol.atoms)
    depth = [0] * len(mol.atoms)
    parent: dict[int, tuple[int, int]] = {}
    comp = 0
    for start in range(len(mol.atoms)):
        if label[start] >= 0:
            continue
        label[start] = comp
        queue = [start]
        for i in queue:
            for j, bi in mol._adj[i]:
                if label[j] < 0:
                    label[j] = comp
                    depth[j] = depth[i] + 1
                    parent[j] = (i, bi)
                    queue.append(j)
        comp += 1
    mol.component_of = label if comp > 1 else ()
    mol.n_components = comp
    return parent, depth


def _perceive_rings(mol: Molecule, parent: dict[int, tuple[int, int]],
                    depth: list[int]) -> None:
    """Fill ``mol.rings`` with an SSSR-sized basis of shortest cycles.

    The bonds of the fundamental cycles of the breadth-first spanning forest
    (``parent``, ``depth``) are exactly the cycle bonds.  Candidates are
    those fundamental cycles plus, for every bond of a fused ring system,
    the shortest cycle through it, found by BFS with that bond removed over
    fused bonds only: no cycle through a fused bond crosses a bridge or a
    bond of an isolated ring, and the atoms beyond one are dead ends of the
    search, so each path is the one a search over all bonds finds.  A
    greedy pass over the candidates in (size, atoms) order keeps those
    linearly independent over GF(2) in bond space until the cyclomatic
    number is met.  Each kept ring's bonds go to ``mol.ring_bond_ids``, and
    its atoms and bonds are flagged in ``mol._atom_ring`` and ``_bond_ring``.
    Without a fused bond the candidates are the fundamental cycles, which
    are independent and as many as the cyclomatic number: all are kept,
    and the GF(2) pass is skipped.

    A fundamental cycle that shares no bond with another one is isolated,
    and its bonds need no search.  Every cycle is the GF(2) sum of the
    fundamental cycles of its non-tree bonds; a cycle through a bond of an
    isolated cycle F has F in that sum, and F is disjoint from the rest,
    so the cycle holds every bond of F and, being a simple cycle, is F.
    The search would only find F again, a duplicate of its candidate.  So
    ring perception is linear in the size of an isolated ring or macrocycle.

    Two bonds between the same atoms raise :class:`UnbalancedRing`: with one
    of them in the tree, the other's fundamental cycle has two atoms; with
    both outside it, their fundamental cycles have the same atoms, which no
    graph without such a pair gives.
    """
    n_rings = len(mol.bonds) - len(mol.atoms) + mol.n_components
    if n_rings <= 0:
        return

    # (size, atoms, bonds); the atoms are distinct, so sorting never
    # compares the bonds
    candidates: list[tuple[int, tuple[int, ...], list[int]]] = []
    seen: set[tuple[int, ...]] = set()

    def record(path: list[int], bonds: list[int]) -> bool:
        """Add a candidate cycle; False when its atoms were already seen."""
        lowest = path.index(min(path))
        rotated = path[lowest:] + path[:lowest]
        if rotated[1] > rotated[-1]:
            rotated = [rotated[0]] + rotated[1:][::-1]
        atoms = tuple(rotated)
        if atoms in seen:
            return False
        seen.add(atoms)
        candidates.append((len(path), atoms, bonds))
        return True

    tree_bonds = {bi for _, bi in parent.values()}
    uses = [0] * len(mol.bonds)  # fundamental cycles through each bond
    for bi, bond in enumerate(mol.bonds):
        if bi in tree_bonds:
            continue
        a, b = bond.a, bond.b
        side_a, side_b, bonds = [a], [b], [bi]
        while a != b:  # climb to the lowest common ancestor
            if depth[a] >= depth[b]:
                a, up = parent[a]
                side_a.append(a)
            else:
                b, up = parent[b]
                side_b.append(b)
            bonds.append(up)
        cycle = side_a + side_b[-2::-1]
        if len(cycle) == 2 or not record(cycle, bonds):
            raise UnbalancedRing(
                f"ring closure duplicates the bond between atoms {bond.a} "
                f"and {bond.b} in {mol.source!r}")
        for up in bonds:
            uses[up] += 1

    # So far the candidates are the fundamental cycles.
    fused = {bi for *_, bonds in candidates if any(uses[b] > 1 for b in bonds)
             for bi in bonds}
    if fused:
        ring_adj = [[(j, bi) for j, bi in nbrs if bi in fused]
                    for nbrs in mol._adj]
        for bi in fused:
            bond = mol.bonds[bi]
            record(*_shortest_path_avoiding(ring_adj, bond.a, bond.b, bi))

    candidates.sort()
    basis: list[int] = []
    atom_ring, bond_ring = bytearray(len(mol.atoms)), bytearray(len(mol.bonds))
    for _, ring_atoms, bonds in candidates:
        if fused:
            reduced = sum(1 << bi for bi in bonds)
            for b in basis:
                reduced = min(reduced, reduced ^ b)
            if not reduced:
                continue
            basis.append(reduced)
            basis.sort(reverse=True)
        mol.rings.append(ring_atoms)
        mol.ring_bond_ids.append(tuple(sorted(bonds)))
        for i in ring_atoms:
            atom_ring[i] |= 3 if len(ring_atoms) == 3 else 1
        for bi in bonds:
            bond_ring[bi] = 1
        if len(mol.rings) == n_rings:
            break
    mol._atom_ring, mol._bond_ring = bytes(atom_ring), bytes(bond_ring)


def _shortest_path_avoiding(adj: list[list[tuple[int, int]]], src: int,
                            dst: int, skip_bond: int) -> tuple[list[int], list[int]]:
    """Shortest cycle through ``skip_bond``: a ``dst``-``src`` path without it.

    Returns the path's atoms and the cycle's bonds, ``skip_bond`` first.
    The bond must lie on a cycle of ``adj``.
    """
    prev = {src: (-1, -1)}  # only membership of src is read
    queue = [src]
    for i in queue:
        for j, bi in adj[i]:
            if bi == skip_bond or j in prev:
                continue
            prev[j] = (i, bi)
            if j == dst:
                path, bonds = [dst], [skip_bond]
                while j != src:
                    j, bi = prev[j]
                    path.append(j)
                    bonds.append(bi)
                return path, bonds
            queue.append(j)
    raise AssertionError("bond is on no cycle")


def _demote_nonring_aromatics(mol: Molecule) -> None:
    """Clean up aromatic markings that cannot be part of an aromatic ring.

    A bare bond between two lowercase atoms defaults to aromatic during
    parsing; when such a bond is not a ring bond (biphenyl linkage) it is
    really a single bond.  Lowercase atoms outside any ring are demoted to
    their aliphatic element.
    """
    for bi, bond in enumerate(mol.bonds):
        if bond.order == "aromatic" and not mol._bond_ring[bi]:
            bond.order = "single"
    for atom in mol.atoms:
        if atom.aromatic and not mol._atom_ring[atom.index]:
            atom.aromatic = False


def _order_sums(mol: Molecule) -> list[float]:
    """Each atom's bond-order sum, from one pass over the bonds.

    The sums are exact in any order: every addend is 1, 1.5, 2 or 3.
    """
    sums = [0.0] * len(mol.atoms)
    for bond in mol.bonds:
        value = BOND_ORDER_VALUE[bond.order]
        sums[bond.a] += value
        sums[bond.b] += value
    return sums


# Hydrogens of a bare atom by (element, valence used by its bonds): the
# smallest default valence that fits wins; past the largest, none fits.
_IMPLICIT_H = {(element, used): min(v for v in valences if v >= used) - used
               for element, valences in DEFAULT_VALENCES.items()
               for used in range(max(valences) + 1)}
_MAX_VALENCE = {element: max(valences)
                for element, valences in DEFAULT_VALENCES.items()}


def _default_h(atom: Atom, degree: int, order_sum: float) -> int:
    """Hydrogens a bare organic-subset atom gets from its current bonds.

    An aromatic atom uses degree + 1, the extra unit standing in for the
    delocalized pi bond; otherwise aromatic bond halves round up.
    """
    used = degree + 1 if atom.aromatic else int(order_sum + 0.999999)
    return _IMPLICIT_H.get((atom.element, used), 0)


def _assign_implicit_h(mol: Molecule) -> None:
    """Give bare atoms their implicit hydrogens and reject over-valent ones.

    Bracket atoms declare their own hydrogen count; no charge accounting
    is attempted for them.  The first over-valent atom raises.
    """
    for atom, order_sum, nbrs in zip(mol.atoms, _order_sums(mol), mol._adj):
        if atom.bracket:
            atom.implicit_h = 0
            continue
        degree = len(nbrs)
        atom.implicit_h = _default_h(atom, degree, order_sum)
        max_val = _MAX_VALENCE[atom.element]  # bare atoms are organic-subset
        if atom.aromatic:
            if degree > max_val:
                raise ValenceError(f"aromatic {atom.element} with {degree} "
                                   f"connections exceeds valence {max_val}")
        elif order_sum > max_val + 1e-9:
            raise ValenceError(
                f"{atom.element} with explicit valence {order_sum:g} "
                f"exceeds maximum {max_val} (in {mol.source!r})")


_SP2_CAPABLE = {"C", "N", "O", "S"}


def _aromatize_kekule(mol: Molecule) -> None:
    """Mark 4n+2 Kekule rings aromatic (two passes for fused systems)."""
    rings = sorted(zip(mol.rings, mol.ring_bond_ids), key=lambda r: len(r[0]))
    for _ in range(2):
        changed = False
        for ring, ring_bonds in rings:
            if _try_aromatize_ring(mol, ring, ring_bonds):
                changed = True
        if not changed:
            break
    # Invariant: aromatic bonds connect two aromatic atoms.
    for bond in mol.bonds:
        if bond.order == "aromatic":
            if not (mol.atoms[bond.a].aromatic and mol.atoms[bond.b].aromatic):
                raise SmilesError(
                    f"aromatic bond between non-aromatic atoms in {mol.source!r}")


def _try_aromatize_ring(mol: Molecule, ring: tuple[int, ...],
                        ring_bonds: tuple[int, ...]) -> bool:
    if all(mol.bonds[bi].order == "aromatic" for bi in ring_bonds):
        return False  # already aromatic
    pi = 0
    for idx in ring:
        atom = mol.atoms[idx]
        if atom.element not in _SP2_CAPABLE or atom.formal_charge != 0:
            return False
        doubles = [b for _, bi in mol._adj[idx]
                   if (b := mol.bonds[bi]).order == "double"]
        triples = any(mol.bonds[bi].order == "triple" for _, bi in mol._adj[idx])
        if triples or len(doubles) > 1:
            return False
        if atom.aromatic:
            pi += 1
        elif doubles:
            # One pi electron from an endocyclic double bond or one into a
            # fused ring partner; an exocyclic carbonyl-style one gives none.
            pi += mol.atom_in_ring(doubles[0].other(idx))
        else:
            # No double bond: only heteroatoms donate a lone pair.
            if atom.element in ("N", "O", "S"):
                pi += 2
            else:
                return False
    if pi % 4 != 2:
        return False
    for idx in ring:
        mol.atoms[idx].aromatic = True
    for bi in ring_bonds:
        mol.bonds[bi].order = "aromatic"
    return True


# ---------------------------------------------------------------------------
# Graph rebuilding (subgraphs, scaffolds)
# ---------------------------------------------------------------------------


def _subgraph(mol: Molecule, keep: list[int]) -> Molecule:
    """The finished Molecule on the atoms ``keep``, renumbered in order.

    Implicit hydrogens of bare atoms are rederived for the new bonding
    environment; bracket atoms keep their declared counts.
    """
    index_map = {old: new for new, old in enumerate(keep)}
    atoms = []
    for old in keep:
        a = mol.atoms[old]
        atoms.append(Atom(a.element, a.formal_charge, a.aromatic, a.explicit_h,
                          a.isotope, index_map[old], a.bracket, a.chirality))
    bonds: list[Bond] = []
    adj: list[list[tuple[int, int]]] = [[] for _ in keep]
    for bond in mol.bonds:
        if bond.a in index_map and bond.b in index_map:
            _add_bond(bonds, adj, index_map[bond.a], index_map[bond.b],
                      bond.order, bond.stereo)
    sub = Molecule(atoms, bonds, source=mol.source)
    sub._adj = tuple(map(tuple, adj))
    _finalize(sub)
    return sub


def _murcko_alive(mol: Molecule) -> list[bool]:
    """Which atoms survive pruning terminal non-ring atoms until none remain.

    Only non-ring atoms are pruned, so every ring atom and ring bond stays.
    """
    alive = [True] * len(mol.atoms)
    degree = [mol.degree(i) for i in range(len(mol.atoms))]
    leaves = [i for i in range(len(mol.atoms))
              if degree[i] <= 1 and not mol.atom_in_ring(i)]
    while leaves:
        i = leaves.pop()
        alive[i] = False
        for j, _ in mol._adj[i]:
            if alive[j]:
                degree[j] -= 1
                if degree[j] == 1 and not mol.atom_in_ring(j):
                    leaves.append(j)
    return alive


def murcko_scaffold(mol: Molecule) -> Molecule:
    """Ring-and-linker framework: terminal atoms pruned until none remain.

    Exocyclic substituents -- including double-bonded terminal atoms -- count
    as side chains and are removed.  A molecule without rings prunes down to
    the empty scaffold.  The result is a finished Molecule in its own right:
    its rings are perceived, its bare atoms' hydrogens rederived and its
    Kekule pass rerun, so pruning an S=O can turn a ring into thiophene.
    ``molecule_key`` of it defines :func:`scaffold_key`.
    """
    alive = _murcko_alive(mol)
    return _subgraph(mol, [i for i in range(len(mol.atoms)) if alive[i]])


def _scaffold_may_aromatize(mol: Molecule, alive: list[bool]) -> bool:
    """Whether the Kekule pass of ``murcko_scaffold(mol)`` could act.

    ``_try_aromatize_ring`` passes a ring atom only if it is C, N, O or S,
    uncharged, with no triple bond and at most one double bond, and is
    aromatic, has that double bond, or is a heteroatom.  Counted over the
    scaffold's bonds, that is an open atom.  Marking a ring aromatic only
    turns bonds between its own (open) atoms aromatic and marks those
    atoms aromatic, so it never closes an open atom nor opens a closed
    one.  Whatever the ring basis and however many passes run, a ring can
    then turn aromatic only if it is a cycle of open atoms with a bond not
    yet aromatic: some such ring bond lies on a cycle of ring bonds
    between open atoms.  The test counts no pi electrons, so it also
    answers yes for rings the pass leaves as they are.
    """
    atoms, bonds, adj, bond_ring = mol.atoms, mol.bonds, mol._adj, mol._bond_ring
    open_atoms = set()
    for i, in_ring in enumerate(mol._atom_ring):
        atom = atoms[i]
        if not in_ring or atom.element not in _SP2_CAPABLE or atom.formal_charge:
            continue
        orders = [bonds[bi].order for j, bi in adj[i] if alive[j]]
        doubles = orders.count("double")
        if "triple" not in orders and doubles <= 1 and (
                atom.aromatic or doubles or atom.element != "C"):
            open_atoms.add(i)
    for bi, bond in enumerate(bonds):
        if (not bond_ring[bi] or bond.order == "aromatic"
                or bond.a not in open_atoms or bond.b not in open_atoms):
            continue
        seen, queue = {bond.a}, [bond.a]
        for i in queue:
            for j, bj in adj[i]:
                if j in open_atoms and j not in seen and bond_ring[bj] and bj != bi:
                    if j == bond.b:
                        return True
                    seen.add(j)
                    queue.append(j)
    return False


# ---------------------------------------------------------------------------
# Canonical keys
# ---------------------------------------------------------------------------

EMPTY_SCAFFOLD_KEY = "scaffold:acyclic"


@functools.lru_cache(maxsize=1024)
def _atom_label(element: str, aromatic: bool, charge: int, h: int,
                degree: int) -> str:
    """An atom's starting label in the key's refinement."""
    return _h(f"{element}|{int(aromatic)}|{charge}|{h}|{degree}")


def _wl_key(labels: list[str], nbrs: list[list[tuple[str, int]]],
            edges: list[tuple[int, int, str]]) -> str:
    """Hash of a graph given per atom its starting label and (bond code,
    neighbour) pairs, and per bond its two atoms and code.

    Labels are refined until a round splits no class, for at most
    ``max(2, min(n, 16))`` rounds: later labels would be a fixed function
    of the labels and bond codes that the key hashes.
    """
    n = len(labels)
    if n == 0:
        return EMPTY_SCAFFOLD_KEY
    for _ in range(max(2, min(n, 16))):
        classes = len(set(labels))
        sigs = [label + "".join(sorted([c + labels[j] for c, j in row]))
                for label, row in zip(labels, nbrs)]
        hashed = {s: _h(s) for s in set(sigs)}
        labels = [hashed[s] for s in sigs]
        if len(hashed) == classes:
            break
    edge_codes = sorted("".join(sorted((labels[a], labels[b]))) + c
                        for a, b, c in edges)
    return _h("".join(sorted(labels)) + "|" + "".join(edge_codes))


def molecule_key(mol: Molecule) -> str:
    """Order-invariant structural key (Weisfeiler-Lehman style refinement).

    Each atom starts from its element, aromaticity, charge, hydrogen count
    and degree; each bond is coded by its order's first letter.  Isomorphic
    graphs always map to the same key; the converse holds for anything this
    package meets in practice.  Stereochemistry is ignored.
    """
    return _wl_key(
        [_atom_label(a.element, a.aromatic, a.formal_charge, a.total_h,
                     len(nbrs)) for a, nbrs in zip(mol.atoms, mol._adj)],
        [[(mol.bonds[bi].order[0], j) for j, bi in nbrs] for nbrs in mol._adj],
        [(b.a, b.b, b.order[0]) for b in mol.bonds])


def scaffold_key(mol: Molecule) -> str:
    """Canonical key of the molecule's ring-and-linker framework.

    The key is ``molecule_key(murcko_scaffold(mol))``, computed on ``mol``
    itself without building the scaffold.  Pruning removes only non-ring
    atoms, so ring membership and hence the scaffold's aromatic demotion
    stay as in ``mol``.  Bare kept atoms get their hydrogens from the bonds
    they keep, as ``_assign_implicit_h`` gives them; bracket atoms keep
    theirs.  What pruning can change is the Kekule pass: in
    ``C1=CS(=O)C=C1``, pruning the O leaves thiophene, which the scaffold's
    pass aromatizes.  Whenever ``_scaffold_may_aromatize`` finds a ring
    that pass could act on, on any ring basis the scaffold may perceive,
    the key is taken from the built scaffold instead.

    Applying it to an already-extracted scaffold is a no-op (the framework
    of a framework is itself); acyclic input maps to the shared sentinel.
    """
    alive = _murcko_alive(mol)
    if _scaffold_may_aromatize(mol, alive):
        return molecule_key(murcko_scaffold(mol))
    atoms, bonds = mol.atoms, mol.bonds
    keep = [i for i in range(len(atoms)) if alive[i]]
    pos = dict(zip(keep, range(len(keep))))
    initial, nbrs, edges = [], [], []
    for new, old in enumerate(keep):
        atom, row, order_sum = atoms[old], [], 0.0
        for j, bi in mol._adj[old]:
            if alive[j]:
                order = bonds[bi].order
                row.append((order[0], pos[j]))
                order_sum += BOND_ORDER_VALUE[order]
                if j > old:
                    edges.append((new, pos[j], order[0]))
        h = atom.explicit_h + (
            0 if atom.bracket else _default_h(atom, len(row), order_sum))
        initial.append(_atom_label(atom.element, atom.aromatic,
                                   atom.formal_charge, h, len(row)))
        nbrs.append(row)
    return _wl_key(initial, nbrs, edges)


def _h(s: str) -> str:
    return hashlib.blake2s(s.encode(), digest_size=8).hexdigest()


# ---------------------------------------------------------------------------
# Writing (non-canonical; used for permutation tests and debugging)
# ---------------------------------------------------------------------------


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
