"""SMILES parsing, ring perception, scaffolds, and graph invariants."""

import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from attrilens import descriptors, molgraph
from attrilens._data import data_path
from attrilens.molgraph import (
    EMPTY_SCAFFOLD_KEY,
    SmilesError,
    UnbalancedBranch,
    UnbalancedRing,
    UnknownElement,
    ValenceError,
    molecule_key,
    murcko_scaffold,
    parse_smiles,
    scaffold_key,
)

from _reference import write_smiles
from conftest import SMILES_CORPUS


# ---------------------------------------------------------------------------
# basic parsing
# ---------------------------------------------------------------------------


def test_water():
    mol = parse_smiles("O")
    assert len(mol) == 1
    assert mol.atoms[0].element == "O"
    assert mol.atoms[0].total_h == 2


def test_methane_implicit_h():
    mol = parse_smiles("C")
    assert mol.atoms[0].total_h == 4


def test_ethanol_connectivity():
    mol = parse_smiles("CCO")
    assert [a.element for a in mol.atoms] == ["C", "C", "O"]
    assert mol.degree(1) == 2
    assert mol.atoms[2].total_h == 1


def test_branching():
    mol = parse_smiles("CC(C)C")
    assert mol.degree(1) == 3


def test_double_bond_reduces_h():
    mol = parse_smiles("C=C")
    assert all(a.total_h == 2 for a in mol.atoms)


def test_bracket_atom_charge_and_h():
    mol = parse_smiles("[NH4+]")
    atom = mol.atoms[0]
    assert atom.element == "N"
    assert atom.formal_charge == 1
    assert atom.total_h == 4


def test_isotope_recorded():
    mol = parse_smiles("[13CH4]")
    assert mol.atoms[0].isotope == 13
    assert mol.atoms[0].mass == pytest.approx(13.0)


def test_chirality_recorded_not_interpreted():
    mol = parse_smiles("N[C@@H](C)C(=O)O")
    assert any(a.chirality for a in mol.atoms)


def test_dot_separates_components():
    mol = parse_smiles("CCO.CC")
    assert mol.n_components == 2
    assert mol.largest_component().heavy_atom_count == 3


def test_largest_component_tie_prefers_earlier():
    mol = parse_smiles("CC.OO")
    largest = mol.largest_component()
    assert [a.element for a in largest.atoms] == ["C", "C"]


def test_two_digit_ring_closure():
    mol = parse_smiles("C%10CCCCC%10")
    assert len(mol.rings) == 1
    assert len(mol.rings[0]) == 6


def test_stereo_bond_markers_accepted():
    mol = parse_smiles("C/C=C/C")
    assert len(mol) == 4


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "bad, exc",
    [
        ("C1CC", UnbalancedRing),
        ("C(C", UnbalancedBranch),
        ("CC)", UnbalancedBranch),
        ("[Xx]", UnknownElement),
        ("C(C)(C)(C)(C)C", ValenceError),
        ("", SmilesError),
        ("C=", SmilesError),
        ("1CC1", SmilesError),
        # ring closures that duplicate an existing bond
        ("C1C1", UnbalancedRing),
        ("C12CC12", UnbalancedRing),
        ("C1(C1)", UnbalancedRing),
        ("C=1C1", UnbalancedRing),
        ("C12C12", UnbalancedRing),
        ("C1C2C12", UnbalancedRing),
    ],
)
def test_parse_errors(bad, exc):
    with pytest.raises(exc):
        parse_smiles(bad)


def test_errors_are_smiles_errors():
    for exc in (UnbalancedRing, UnbalancedBranch, UnknownElement,
                ValenceError):
        assert issubclass(exc, SmilesError)


# Characters for which ``str.isdigit`` holds but which are not ASCII digits.
_NON_ASCII_DIGITS = "²³¹١٣۵०১๓①"


@pytest.mark.parametrize("text", [
    "[²C]", "[CH²]", "[C+²]", "[C-²]", "[C@TH²]", "[CH4:²]", "[13CH²]",
    "C²CC²", "C١CC١", "C%²²CC%²²", "C%1²CC%1²", "c1cc²ccc1²",
])
def test_smiles_digits_are_ascii_only(text):
    with pytest.raises(SmilesError):
        parse_smiles(text)


def test_ascii_digits_in_every_position_still_parse():
    mol = parse_smiles("[13CH3:7][C@TH1H]([N+2])C%12CC%12")
    assert mol.atoms[0].isotope == 13 and mol.atoms[0].explicit_h == 3
    assert mol.atoms[1].chirality == "@" and mol.atoms[1].explicit_h == 1
    assert mol.atoms[2].formal_charge == 2
    assert [len(ring) for ring in mol.rings] == [3]


def test_aromatic_bond_between_aliphatic_atoms_is_single():
    mol = parse_smiles("C:C")
    assert [(b.a, b.b, b.order) for b in mol.bonds] == [(0, 1, "single")]
    assert [(a.aromatic, a.total_h) for a in mol.atoms] == [(False, 3)] * 2


# Characters the parser gives meaning to, plus a few it rejects.
_SMILES_ALPHABET = ("BCNOPSFIclrnosp[]()=#-:/\\.%@+H0123456789 *"
                    + _NON_ASCII_DIGITS[:3])
_smiles_text = st.text(alphabet=_SMILES_ALPHABET, max_size=40)


@settings(max_examples=400, deadline=None)
@given(text=st.one_of(st.text(), _smiles_text))
@example(text="[²C]")
@example(text="[CH²]")
@example(text="[C+²]")
@example(text="[" + "1" * 5000 + "C]")
@example(text="[CH" + "1" * 5000 + "]")
def test_parse_smiles_returns_a_molecule_or_raises_smiles_error(text):
    try:
        mol = parse_smiles(text)
    except SmilesError:
        return
    assert isinstance(mol, molgraph.Molecule)


def _reference_tokenize(text):
    """Reference: the parser's character loop before the regex scan, atoms
    and bonds only.  It reads ring labels with ``str.isdigit``."""
    smiles = text.strip()
    if not smiles:
        raise SmilesError("empty SMILES")
    atoms, bonds = [], []
    prev = pending_order = pending_stereo = None
    branch_stack, open_rings = [], {}

    def add_atom(atom):
        nonlocal prev, pending_order, pending_stereo
        atom.index = len(atoms)
        atoms.append(atom)
        if prev is not None:
            order = pending_order
            if order is None:
                order = ("aromatic" if (atoms[prev].aromatic and atom.aromatic)
                         else "single")
            bonds.append(molgraph.Bond(prev, atom.index, order, pending_stereo))
        prev = atom.index
        pending_order = None
        pending_stereo = None

    def close_ring(label):
        nonlocal pending_order, pending_stereo
        if prev is None:
            raise UnbalancedRing(f"ring label {label!r} before any atom")
        if label in open_rings:
            start, order0, stereo0 = open_rings.pop(label)
            if start == prev:
                raise UnbalancedRing(f"ring label {label!r} closes onto its own atom")
            order = pending_order if pending_order is not None else order0
            if (pending_order is not None and order0 is not None
                    and pending_order != order0):
                raise UnbalancedRing(f"ring label {label!r} opened as {order0} "
                                     f"but closed as {pending_order}")
            if order is None:
                order = ("aromatic"
                         if (atoms[start].aromatic and atoms[prev].aromatic)
                         else "single")
            bonds.append(molgraph.Bond(start, prev, order,
                                       pending_stereo or stereo0))
        else:
            open_rings[label] = (prev, pending_order, pending_stereo)
        pending_order = None
        pending_stereo = None

    i, n = 0, len(smiles)
    while i < n:
        ch = smiles[i]
        if ch in " \t":
            raise SmilesError(f"whitespace inside SMILES at position {i}")
        if ch == "(":
            if prev is None:
                raise UnbalancedBranch("branch opened before any atom")
            branch_stack.append(prev)
            i += 1
            continue
        if ch == ")":
            if not branch_stack:
                raise UnbalancedBranch("unmatched ')'")
            if pending_order is not None:
                raise SmilesError("dangling bond before ')'")
            prev = branch_stack.pop()
            i += 1
            continue
        if ch == ".":
            if pending_order is not None or branch_stack:
                raise SmilesError("dot separator inside branch or after bond")
            prev = None
            i += 1
            continue
        if ch in molgraph._BOND_CHAR_ORDER:
            if pending_order is not None:
                raise SmilesError(f"two bond symbols in a row at position {i}")
            pending_order = molgraph._BOND_CHAR_ORDER[ch]
            if ch in "/\\":
                pending_stereo = ch
            i += 1
            continue
        if ch.isdigit():
            close_ring(ch)
            i += 1
            continue
        if ch == "%":
            if i + 2 >= n or not smiles[i + 1 : i + 3].isdigit():
                raise UnbalancedRing(f"bad %nn ring label at position {i}")
            close_ring(smiles[i + 1 : i + 3])
            i += 3
            continue
        if ch == "[":
            j = smiles.find("]", i)
            if j < 0:
                raise SmilesError("unterminated bracket atom")
            add_atom(molgraph._parse_bracket(smiles[i + 1 : j], i))
            i = j + 1
            continue
        two = smiles[i : i + 2]
        if two in ("Cl", "Br"):
            add_atom(molgraph.Atom(two))
            i += 2
            continue
        if ch in "BCNOPSFI":
            add_atom(molgraph.Atom(ch))
            i += 1
            continue
        if ch in "bcnops":
            add_atom(molgraph.Atom(ch.upper(), aromatic=True))
            i += 1
            continue
        raise UnknownElement(f"unexpected character {ch!r} at position {i}")

    if branch_stack:
        raise UnbalancedBranch(f"{len(branch_stack)} unclosed '('")
    if open_rings:
        raise UnbalancedRing(f"unclosed ring labels: {sorted(open_rings)}")
    if pending_order is not None:
        raise SmilesError("dangling bond at end of SMILES")
    if not atoms:
        raise SmilesError("no atoms parsed")
    return atoms, bonds


def _reference_adjacency(mol):
    """Reference: the adjacency rebuilt from the bonds after the fact."""
    adj = [[] for _ in mol.atoms]
    for bi, bond in enumerate(mol.bonds):
        adj[bond.a].append((bond.b, bi))
        adj[bond.b].append((bond.a, bi))
    return adj


def _adjacency_pairs(mol):
    """The stored adjacency as a list of (neighbour, bond) lists."""
    return [list(nbrs) for nbrs in mol._adj]


def _reference_parse(text):
    """Reference: the character loop, the adjacency rebuilt from the bonds,
    and hydrogens from ``min`` scans over the default valences."""
    mol = molgraph.Molecule(*_reference_tokenize(text), source=text)
    mol._adj = tuple(map(tuple, _reference_adjacency(mol)))
    molgraph._perceive_rings(mol, *molgraph._spanning_forest(mol))
    molgraph._demote_nonring_aromatics(mol)
    _reference_assign_implicit_h(mol)
    molgraph._aromatize_kekule(mol)
    return mol


def _parse_outcome(parse, text):
    try:
        mol = parse(text)
    except SmilesError as exc:
        return type(exc), str(exc)
    return ([(a.element, a.formal_charge, a.aromatic, a.explicit_h, a.isotope,
              a.index, a.bracket, a.chirality, a.implicit_h) for a in mol.atoms],
            [(b.a, b.b, b.order, b.stereo) for b in mol.bonds],
            _adjacency_pairs(mol), mol.rings, mol.ring_bond_ids)


def _assert_parses_like_reference(text):
    ours = _parse_outcome(parse_smiles, text)
    if any(ch.isdigit() and not ch.isascii() for ch in text):
        # the one declared difference: such a digit is no ring label
        assert isinstance(ours[0], type), text
        return
    assert ours == _parse_outcome(_reference_parse, text), text


def test_parser_matches_character_loop_reference():
    inputs = _bundled_smiles() + list(SMILES_CORPUS)
    inputs += [write_smiles(parse_smiles(text), rng=np.random.default_rng(seed))
               for seed, text in enumerate(inputs)]
    inputs += ["C:C", "c1ccccc1:C", "C1:C:C1", "C%01CC%01", "C1CC1%10CC%10",
               "[13CH3:7][C@TH1H]([N+2])C", "[O-][N++]([O--])=O", "C=1CC1",
               "C1CC=1", "C/1CC1", "[]", "[C", "C%1", "C%", "C 1", "C\tC",
               "C]", "CC(=)C", "C(C)(", "C=.C", "(C)", ".C", "C.", "c1cc1c",
               "[Xx]", "[cl]", "[2]", "[C:]", "[C:1a]", "[C@@TH]", "[CH-+]",
               "C1CCCCC1" * 50, "C" * 3000] + list(_NON_ASCII_DIGITS)
    for text in inputs:
        _assert_parses_like_reference(text)


@settings(max_examples=400, deadline=None)
@given(text=_smiles_text)
def test_parser_matches_reference_on_smiles_alphabet_strings(text):
    _assert_parses_like_reference(text)


_PARSE_AND_FREE = """
import gc, sys
sys.path.insert(0, sys.argv[1])
from attrilens.molgraph import parse_smiles
texts = sys.stdin.read().split()
parse_smiles(texts[0])
gc.collect()
before = sys.getallocatedblocks()
mols = [parse_smiles(text) for text in texts]
del mols
gc.collect()
print(sys.getallocatedblocks() - before)
"""


def test_freed_molecules_leave_no_allocation_behind():
    """Parsing keeps nothing alive past its molecules.  A block left behind
    per parse (``re.finditer`` left one on CPython 3.11) sits among the
    molecules' objects and keeps their memory from the system."""
    src = str(Path(molgraph.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", _PARSE_AND_FREE, src],
                          input="\n".join(_bundled_smiles()),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 50


_HELD_AFTER_LOAD = """
import gc, sys, tracemalloc
sys.path.insert(0, sys.argv[1])
from attrilens import mlpipe
from attrilens._data import data_path
mlpipe.load_csv(data_path("toy_train.csv"))
gc.collect()
tracemalloc.start()
loaded = mlpipe.load_csv(data_path("bace_synthetic.csv"))
gc.collect()
held = tracemalloc.get_traced_memory()[0]
print(held / sum(len(record.molecule.atoms) for record in loaded.records))
"""


def test_molecules_are_compact():
    """Slotted atoms and bonds, immutable adjacency and ring flags, and a
    bound on what a loaded dataset holds per atom.  The 1513 BACE molecules
    (40,064 atoms) held 621 B per atom with dict-backed atoms and bonds,
    lists of (neighbour, bond) tuples and ring-membership sets, and 440 B
    per atom in the compact layout (CPython 3.11)."""
    mol = parse_smiles("CC(=O)Nc1ccc(O)cc1.C1CC1")
    for graph in (mol, murcko_scaffold(mol), mol.largest_component()):
        assert not hasattr(graph.atoms[0], "__dict__")
        assert not hasattr(graph.bonds[0], "__dict__")
        assert isinstance(graph._adj, tuple)
        assert all(isinstance(nbrs, tuple) for nbrs in graph._adj)
        with pytest.raises(AttributeError):
            graph._adj.append(())
        assert isinstance(graph._atom_ring, bytes)
        assert isinstance(graph._bond_ring, bytes)
    src = str(Path(molgraph.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", _HELD_AFTER_LOAD, src],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) < 460


def test_adjacency_is_the_one_rebuilt_from_the_bonds():
    for text in _bundled_smiles() + list(SMILES_CORPUS) + _LARGE_CASES:
        mol = parse_smiles(text)
        for graph in (mol, murcko_scaffold(mol), mol.largest_component()):
            assert _adjacency_pairs(graph) == _reference_adjacency(graph), text


def _reference_order_sum(mol, idx):
    return sum(molgraph.BOND_ORDER_VALUE[mol.bonds[bi].order]
               for _, bi in mol._adj[idx])


def _reference_default_h(atom, degree, order_sum):
    """Reference: the smallest default valence that fits, by a ``min``
    scan over the element's valences."""
    used = degree + 1 if atom.aromatic else int(order_sum + 0.999999)
    valences = molgraph.DEFAULT_VALENCES.get(atom.element, ())
    return min((v - used for v in valences if v >= used), default=0)


def test_hydrogen_table_matches_min_scan():
    for element in ("C", "N", "O", "S", "P", "B", "Cl", "Se", "Na"):
        for aromatic in (False, True):
            atom = molgraph.Atom(element, aromatic=aromatic)
            for degree in range(9):
                for half_units in range(19):
                    args = (atom, degree, half_units / 2)
                    assert (molgraph._default_h(*args)
                            == _reference_default_h(*args)), args


def _reference_assign_implicit_h(mol):
    """Reference: implicit hydrogens from per-atom bond-order sums over the
    adjacency, then a separate valence-check pass."""
    for atom in mol.atoms:
        if atom.bracket:
            atom.implicit_h = 0
            continue
        atom.implicit_h = _reference_default_h(
            atom, mol.degree(atom.index), _reference_order_sum(mol, atom.index))
    for atom in mol.atoms:
        if atom.bracket or atom.element not in molgraph.DEFAULT_VALENCES:
            continue
        max_val = max(molgraph.DEFAULT_VALENCES[atom.element])
        if atom.aromatic:
            if mol.degree(atom.index) > max_val:
                raise ValenceError(
                    f"aromatic {atom.element} with {mol.degree(atom.index)} "
                    f"connections exceeds valence {max_val}")
            continue
        order_sum = _reference_order_sum(mol, atom.index)
        if order_sum > max_val + 1e-9:
            raise ValenceError(
                f"{atom.element} with explicit valence {order_sum:g} "
                f"exceeds maximum {max_val} (in {mol.source!r})")


def _hydrogens_or_error(text):
    try:
        mol = parse_smiles(text)
    except SmilesError as exc:
        return type(exc), str(exc)
    return ([a.total_h for a in mol.atoms],
            [a.total_h for a in murcko_scaffold(mol).atoms])


def test_one_valence_pass_matches_the_two_pass_reference(monkeypatch):
    over_valent = [
        "C(C)(C)(C)(C)C", "FC(F)(F)(F)F", "c1cc(C)(C)(C)ccc1",
        "c1cco(C)c1", "O=S(=O)(=O)=O", "P(C)(C)(C)(C)(C)C",
        # the first over-valent atom names the error
        "CC(C)(C)(C)(C)C.c1ccc(C)(C)(C)c1", "c1ccc(C)(C)(C)c1.FC(F)(F)(F)F",
        "[C](C)(C)(C)(C)C", "C1=CC=CC=C1", "OS(=O)(=O)O", "P(Cl)(Cl)(Cl)(Cl)Cl",
    ]
    inputs = _bundled_smiles() + list(SMILES_CORPUS) + over_valent
    inputs += [write_smiles(parse_smiles(text), rng=np.random.default_rng(seed))
               for text in SMILES_CORPUS for seed in range(3)]
    ours = [_hydrogens_or_error(text) for text in inputs]
    monkeypatch.setattr(molgraph, "_assign_implicit_h",
                        _reference_assign_implicit_h)
    for text, outcome in zip(inputs, ours):
        assert outcome == _hydrogens_or_error(text), text
    errors = [outcome for outcome in ours if isinstance(outcome[0], type)]
    assert len(errors) == 8
    assert all(exc is ValenceError for exc, _ in errors)


# ---------------------------------------------------------------------------
# rings and aromaticity
# ---------------------------------------------------------------------------


def test_benzene_aromatic():
    mol = parse_smiles("c1ccccc1")
    assert len(mol.rings) == 1
    assert all(a.aromatic for a in mol.atoms)
    assert all(a.total_h == 1 for a in mol.atoms)


def test_kekule_benzene_aromatized():
    mol = parse_smiles("C1=CC=CC=C1")
    assert all(a.aromatic for a in mol.atoms)


def test_kekule_pyridine_aromatized():
    mol = parse_smiles("C1=CC=NC=C1")
    assert all(a.aromatic for a in mol.atoms)


def test_cyclohexene_not_aromatic():
    mol = parse_smiles("C1=CCCCC1")
    assert not any(a.aromatic for a in mol.atoms)


def test_naphthalene_two_rings():
    mol = parse_smiles("c1ccc2ccccc2c1")
    assert len(mol.rings) == 2
    assert sorted(len(r) for r in mol.rings) == [6, 6]


def test_cubane_sssr_size():
    # 8 vertices, 12 edges -> cyclomatic number 5
    mol = parse_smiles("C12C3C4C1C5C2C3C45")
    assert len(mol.rings) == 5
    assert all(len(r) == 4 for r in mol.rings)


def test_spiro_rings():
    mol = parse_smiles("C1CCC2(CC1)CCCCC2")
    assert len(mol.rings) == 2


def test_ring_membership_queries():
    mol = parse_smiles("C1CC1CC")
    ring_atoms = {i for i in range(len(mol)) if mol.atom_in_ring(i)}
    assert ring_atoms == {0, 1, 2}
    assert mol.atom_in_3ring(0)
    assert not mol.atom_in_3ring(3)


def _bundled_smiles():
    """Every distinct SMILES of the bundled CSVs and case studies."""
    smiles = []
    for name in ("bace_synthetic.csv", "bbbp_synthetic.csv"):
        with open(data_path(name)) as fh:
            smiles += [row["smiles"] for row in csv.DictReader(fh)]
    for line in data_path("case_studies.jsonl").read_text().splitlines():
        if line.strip():
            smiles.append(json.loads(line)["smiles"])
    return list(dict.fromkeys(smiles))


# Spiro, tetrahedrane, cubane, a cage whose rings change if the search
# through its last bond is skipped, 300 rings, a long chain, a 300-atom ring.
_LARGE_CASES = ["C1CC11CC1", "C12C3C1C23", "C12C3C4C1C5C2C3C45",
                "C(C12)C(C34)C(C54)C2C5C13", "C1CCCCC1" * 300,
                "C1CCCCC1" + "C" * 2000, "C1" + "C" * 298 + "C1"]


def _reference_shortest_path(mol, src, dst, skip_bond):
    prev = {src: -1}
    queue = [src]
    while queue:
        nxt = []
        for i in queue:
            for j, bi in mol._adj[i]:
                if bi == skip_bond or j in prev:
                    continue
                prev[j] = i
                if j == dst:
                    path = [j]
                    while path[-1] != src:
                        path.append(prev[path[-1]])
                    return path[::-1]
                nxt.append(j)
        queue = nxt
    return None


def _bond_between(mol, i, j):
    return next(bi for nb, bi in mol._adj[i] if nb == j)


def _reference_perceive_rings(mol, *_forest):
    """Reference: the shortest cycle through every bond, bridges included,
    plus the fundamental cycles of its own spanning forest, deduplicated by
    bond mask and reduced by the same greedy GF(2) pass.  Ring bonds are
    looked up from consecutive ring atoms.  The ring flags are set from
    sets of ring atoms and bonds."""
    n_rings = len(mol.bonds) - len(mol.atoms) + mol.n_components
    mol.rings, mol.ring_bond_ids = [], []
    if n_rings <= 0:
        return
    bond_between = _bond_between
    candidates, seen_masks = [], set()

    def record(path):
        mask = 0
        for k in range(len(path)):
            mask |= 1 << bond_between(mol, path[k], path[(k + 1) % len(path)])
        if mask not in seen_masks:
            seen_masks.add(mask)
            lowest = min(range(len(path)), key=lambda k: path[k])
            rotated = path[lowest:] + path[:lowest]
            if len(rotated) > 2 and rotated[1] > rotated[-1]:
                rotated = [rotated[0]] + rotated[1:][::-1]
            candidates.append((len(path), tuple(rotated), mask))

    for skip_bi, bond in enumerate(mol.bonds):
        path = _reference_shortest_path(mol, bond.a, bond.b, skip_bi)
        if path is not None:
            record(path)
    parent, visited, tree_bonds = {}, [False] * len(mol.atoms), set()
    for start in range(len(mol.atoms)):
        if visited[start]:
            continue
        visited[start] = True
        queue = [start]
        while queue:
            i = queue.pop(0)
            for j, bi in mol._adj[i]:
                if not visited[j]:
                    visited[j] = True
                    parent[j] = (i, bi)
                    tree_bonds.add(bi)
                    queue.append(j)

    def root_path(node):
        path = [node]
        while path[-1] in parent:
            path.append(parent[path[-1]][0])
        return path

    for bi, bond in enumerate(mol.bonds):
        if bi in tree_bonds:
            continue
        path_a, path_b = root_path(bond.a), root_path(bond.b)
        common = set(path_a) & set(path_b)
        cut_a = next(k for k, v in enumerate(path_a) if v in common)
        cut_b = path_b.index(path_a[cut_a])
        cycle = path_a[:cut_a + 1] + path_b[:cut_b][::-1]
        if len(cycle) >= 3:
            record(cycle)

    candidates.sort(key=lambda c: (c[0], c[1]))
    basis, rings = [], []
    for _, ring_atoms, mask in candidates:
        reduced = mask
        for b in basis:
            reduced = min(reduced, reduced ^ b)
        if reduced:
            basis.append(reduced)
            basis.sort(reverse=True)
            rings.append(ring_atoms)
            if len(rings) == n_rings:
                break
    mol.rings = rings
    ring_atoms, ring3_atoms, ring_bonds = set(), set(), set()
    for ring in rings:
        ring_atoms.update(ring)
        if len(ring) == 3:
            ring3_atoms.update(ring)
        bonds = {bond_between(mol, ring[k], ring[(k + 1) % len(ring)])
                 for k in range(len(ring))}
        mol.ring_bond_ids.append(tuple(sorted(bonds)))
        ring_bonds.update(bonds)
    mol._atom_ring = bytes(3 if i in ring3_atoms else 1 if i in ring_atoms
                           else 0 for i in range(len(mol.atoms)))
    mol._bond_ring = bytes(int(bi in ring_bonds) for bi in range(len(mol.bonds)))


def _ring_state(mol):
    """Rings, ring membership as the predicates report it, and aromaticity."""
    atoms, bonds = range(len(mol.atoms)), range(len(mol.bonds))
    return (mol.rings, mol.ring_bond_ids,
            [bi for bi in bonds if mol.bond_in_ring(bi)],
            [i for i in atoms if mol.atom_in_ring(i)],
            [i for i in atoms if mol.atom_in_3ring(i)],
            [a.aromatic for a in mol.atoms], [b.order for b in mol.bonds])


def test_ring_perception_matches_all_bonds_search(monkeypatch):
    inputs = []
    for text in _bundled_smiles():
        mol = parse_smiles(text)
        inputs.append(text)
        inputs += [write_smiles(mol, rng=np.random.default_rng(seed))
                   for seed in range(3)]
    inputs += _LARGE_CASES
    ours = [_ring_state(parse_smiles(text)) for text in inputs]
    monkeypatch.setattr(molgraph, "_perceive_rings", _reference_perceive_rings)
    for text, state in zip(inputs, ours):
        assert state == _ring_state(parse_smiles(text)), text


def _count_searches(monkeypatch):
    """The bond each later ``_shortest_path_avoiding`` call skips."""
    skipped = []
    search = molgraph._shortest_path_avoiding

    def counted(adj, src, dst, skip_bond):
        skipped.append(skip_bond)
        return search(adj, src, dst, skip_bond)

    monkeypatch.setattr(molgraph, "_shortest_path_avoiding", counted)
    return skipped


# (SMILES, atoms of its fused ring systems)
_SEARCH_CASES = [
    ("C1CCCCC1" + "C" * 2000, ()),
    ("C1CCC2(CC1)CCCC2", ()),                                 # spiro
    ("c1ccccc1-c1ccccc1", ()),                                # biphenyl
    ("c1ccc2ccccc2c1", range(10)),                            # naphthalene
    ("C1CC2CCC1C2", range(7)),                                # norbornane
    # 2-phenylnaphthalene: the phenyl ring is atoms 6-11
    ("c1ccc2cc(-c3ccccc3)ccc2c1", [*range(6), *range(12, 16)]),
]


def test_ring_perception_searches_only_cycle_bonds(monkeypatch):
    """Isolated rings need no search; each fused bond is searched once."""
    skipped = _count_searches(monkeypatch)
    for smiles, fused_atoms in _SEARCH_CASES:
        mol = parse_smiles(smiles)
        fused = set(fused_atoms)
        assert sorted(skipped) == [bi for bi, bond in enumerate(mol.bonds)
                                   if bond.a in fused and bond.b in fused], smiles
        skipped.clear()
    assert parse_smiles(_SEARCH_CASES[0][0]).rings == [(0, 1, 2, 3, 4, 5)]


def test_macrocycle_needs_no_cycle_search(monkeypatch):
    skipped = _count_searches(monkeypatch)
    mol = parse_smiles("C1" + "C" * 4998 + "C1")
    assert [len(ring) for ring in mol.rings] == [5000]
    rewrite = write_smiles(mol, rng=np.random.default_rng(0))
    assert scaffold_key(parse_smiles(rewrite)) == scaffold_key(mol)
    assert skipped == []


def _reference_num_aromatic_rings(mol):
    """Reference: rings whose atoms are all aromatic and whose consecutive
    atoms are joined by aromatic bonds, found by scanning neighbours."""
    count = 0
    for ring in mol.rings:
        if all(mol.atoms[i].aromatic for i in ring):
            closed = all(
                any(j == ring[(k + 1) % len(ring)] and bond.order == "aromatic"
                    for j, bond in mol.neighbors(ring[k]))
                for k in range(len(ring))
            )
            if closed:
                count += 1
    return float(count)


def test_num_aromatic_rings_matches_neighbour_scan():
    inputs = _bundled_smiles() + list(SMILES_CORPUS) + [
        "C1=CC=CC=C1", "C1=CC=NC=C1", "C1=CC=C2C=CC=CC2=C1",
        "C1=CC2=CC=CC=C2C=C1C1=CC=CC=C1", "c1ccc2ccccc2c1",
        "c1ccccc1-c1ccccc1", "c1ccccc1c1ccccc1", "O=C1C=CC(=O)C=C1",
        "c1ccc2c(c1)CCCC2", "C1=CC=C2CCCC2=C1",
    ]
    aromatic = 0
    for text in inputs:
        mol = parse_smiles(text)
        value = descriptors.compute(mol, "NumAromaticRings").value
        assert value == _reference_num_aromatic_rings(mol), text
        aromatic += value > 0
    assert aromatic > len(inputs) // 2


def test_ring_closures_onto_new_bonds_still_parse():
    assert parse_smiles("C1CC1").rings == [(0, 1, 2)]
    dotted = parse_smiles("C1.C1")
    assert (len(dotted.bonds), dotted.rings, dotted.n_components) == (1, [], 1)
    spiro = parse_smiles("C1CC11CC1")
    assert spiro.rings == [(0, 1, 2), (2, 3, 4)]
    assert spiro.ring_bond_ids == [(0, 1, 2), (3, 4, 5)]


# ---------------------------------------------------------------------------
# scaffolds
# ---------------------------------------------------------------------------


def test_acyclic_scaffold_empty():
    mol = parse_smiles("CCCO")
    assert len(murcko_scaffold(mol)) == 0
    assert scaffold_key(mol) == EMPTY_SCAFFOLD_KEY


def test_toluene_scaffold_is_benzene():
    toluene = parse_smiles("Cc1ccccc1")
    scaffold = murcko_scaffold(toluene)
    assert scaffold.heavy_atom_count == 6
    assert scaffold_key(toluene) == scaffold_key(parse_smiles("c1ccccc1"))


def test_substituents_do_not_change_scaffold():
    keys = {
        scaffold_key(parse_smiles(s))
        for s in ("c1ccccc1", "Cc1ccccc1", "CCc1ccccc1", "OCc1ccccc1")
    }
    assert len(keys) == 1


def test_linker_retained_between_rings():
    mol = parse_smiles("c1ccccc1CCc1ccccc1")
    assert murcko_scaffold(mol).heavy_atom_count == 14


def _reference_scaffold_atoms(mol):
    """Reference: rescan every atom until a pass prunes nothing."""
    alive = [True] * len(mol.atoms)
    degree = [mol.degree(i) for i in range(len(mol.atoms))]
    changed = True
    while changed:
        changed = False
        for i in range(len(mol.atoms)):
            if alive[i] and degree[i] <= 1 and not mol.atom_in_ring(i):
                alive[i] = False
                changed = True
                for j, _ in mol._adj[i]:
                    if alive[j]:
                        degree[j] -= 1
    return [i for i in range(len(mol.atoms)) if alive[i]]


def test_scaffold_keeps_the_atoms_of_the_rescanning_prune():
    for text in _bundled_smiles() + _LARGE_CASES + ["CCCO", "CCO.CC"]:
        mol = parse_smiles(text)
        alive = molgraph._murcko_alive(mol)
        kept = [i for i in range(len(mol.atoms)) if alive[i]]
        assert kept == _reference_scaffold_atoms(mol), text
        assert len(murcko_scaffold(mol)) == len(kept), text


# Ring systems for drawn molecules.  ``<k>`` is a ring label, renamed at
# each use.  ``{s}`` takes a single-bonded branch; ``{d}`` sits on an atom
# with two single ring bonds and may also take a double-bonded one; ``{o}``
# takes no, one or two S=O.  The first atom takes the bond from whatever
# the system hangs on.
_RING_SYSTEMS = [
    "c<1>cc{s}cc{s}c<1>",                         # benzene
    "c<1>cc{s}ncc<1>",                            # pyridine
    "c<1>cc{s}sc<1>",                             # thiophene
    "c<1>cc{s}[nH]c<1>",                          # pyrrole
    "c<1>cc[n+]{s}cc<1>",                         # pyridinium
    "c<1>cc{s}c<2>ccccc<2>c<1>",                  # naphthalene
    "C<1>=CC{s}=CC=C<1>",                         # Kekule benzene
    "C<1>=CC=C<2>C{s}=CC=CC<2>=C<1>",             # Kekule naphthalene
    "C<1>=CC=C<2>C(=C<1>)C{s}=CN<2>",             # Kekule indole
    "C<1>=CSC{s}=C<1>",                           # Kekule thiophene
    "C<1>=CS{o}C=C<1>",                           # thiophene S-oxides
    "C<1>=CC{d}C=CC<1>{d}",                       # cyclohexadienes, quinones
    "C<1>=CC{d}NC=C<1>",                          # 4-pyridones
    "C<1>=CC{d}OC=C<1>",                          # 4-pyranones
    "C<1>=CC=CC{d}C=C<1>",                        # tropones
    "C<1>=CC=CC<1>{d}",                           # fulvenes
    "C<1>=CC=CC=CC{s}=C<1>",                      # cyclooctatetraene
    "C<1>=Cc<2>ccc{s}cc<2>CC<1>",                 # dihydronaphthalene
    "c<1>ccc<2>c(c<1>)-c<3>ccc{s}cc<3>-<2>",      # biphenylene
    "C<1>CC{d}CC{d}C<1>",                         # cyclohexane
    "C<1>CC<1>{d}",                               # cyclopropane
    "C<1>CN{s}CC{d}C<1>",                         # piperidine
    "[CH2]<1>C[NH2+]C{d}C<1>",                    # bracket ring atoms
    "C<1>CC<2>(CC<2>)CC{d}C<1>",                  # spiro
    "C<1>CC<2>CC{d}C<1>C<2>",                     # norbornane
    "C<1>=CC<2>C=CC<1>C=C<2>",                    # barrelene: SSSR not unique
    "C<1>C<2>CC<3>CC<1>CC(C<2>)C<3>",             # adamantane
    "C<1><2>C<3>C<4>C<1>C<5>C<2>C<3>C<4><5>",     # cubane
    "C<1><2>C<3>C<1>C<4>C<2>C<3><4>",             # prismane
    "C<1>CCCCCCCC{d}CCC<1>",                      # 12-membered ring
]
_SINGLE_BRANCHES = ["(C)", "(O)", "(Cl)", "(C#N)", "(C(=O)O)", "([O-])",
                    "([NH3+])", "(S(=O)(=O)C)", "([2H])", "([13CH3])"]
_DOUBLE_BRANCHES = ["(=O)", "(=S)", "(=C)", "(=CC)", "(=N)"]
_LINKERS = ["", "C", "CC", "C=C", "N", "C(=O)N", "OC"]
_ACYCLIC = ["C", "CCO", "[Na+]", "Cl", "CC(=O)[O-]", "[NH4+]"]


@st.composite
def _drawn_smiles(draw):
    """SMILES of one to three components built from ``_RING_SYSTEMS``,
    with ring systems hung on ring atoms directly, through linkers, or
    through a ``=C`` linker."""
    labels = iter(range(10, 100))
    budget = [6]  # ring systems left

    def system():
        budget[0] -= 1
        text = draw(st.sampled_from(_RING_SYSTEMS))
        for k in range(1, 6):
            if f"<{k}>" in text:
                text = text.replace(f"<{k}>", f"%{next(labels)}")
        parts = text.replace("}", "{").split("{")
        return "".join(slot(part) if i % 2 else part
                       for i, part in enumerate(parts))

    def slot(kind):
        if kind == "o":
            return draw(st.sampled_from(["", "(=O)", "(=O)(=O)"]))
        choices = ["", "branch", "double", "system", "=system"]
        choice = draw(st.sampled_from(choices[:2] + (
            choices[2:3] if kind == "d" else []) + (
            choices[3:] if budget[0] > 0 and kind == "d" else
            choices[3:4] if budget[0] > 0 else [])))
        if choice == "branch":
            return draw(st.sampled_from(_SINGLE_BRANCHES))
        if choice == "double":
            return draw(st.sampled_from(_DOUBLE_BRANCHES))
        if choice == "system":
            return "(" + draw(st.sampled_from(_LINKERS)) + system() + ")"
        if choice == "=system":
            return "(=C" + system() + ")"
        return ""

    components = [system()]
    for _ in range(draw(st.integers(0, 2))):
        components.append(system() if budget[0] > 0 and draw(st.booleans())
                          else draw(st.sampled_from(_ACYCLIC)))
    return ".".join(components)


@settings(max_examples=300, deadline=None)
@given(text=_drawn_smiles(), seed=st.integers(0, 2**32 - 1))
@example(text="C1=CS(=O)C=C1", seed=0)
@example(text="O=C1C=CC(=O)C=C1", seed=0)
@example(text="O=S1(=O)C=CC=C1", seed=0)
@example(text="C1CC1=CC2CC2", seed=0)
@example(text="CC1=CNC=C1", seed=0)  # Kekule pyrrole
@example(text="CC1=CN=CN1", seed=0)  # Kekule imidazole
@example(text="CN1C=CC=C1", seed=0)  # Kekule N-methylpyrrole
def test_scaffold_key_is_the_key_of_the_built_scaffold(text, seed):
    mol = parse_smiles(text)
    rewrite = parse_smiles(write_smiles(mol, rng=np.random.default_rng(seed)))
    for graph in (mol, rewrite):
        assert scaffold_key(graph) == molecule_key(murcko_scaffold(graph))


def test_largest_component_keeps_the_h_of_a_kekule_pyrrole_n():
    # The N is aromatized after its H is assigned; the component must not
    # rederive the H from the aromatic flag.
    alone = parse_smiles("C1=CNC=C1")
    part = parse_smiles("C1=CNC=C1.Cl").largest_component()
    assert [a.total_h for a in part.atoms] == [1, 1, 1, 1, 1]
    for name, value in [("MolWt", 67.091), ("NumHDonors", 1.0),
                        ("TPSA", 15.79)]:
        assert descriptors.compute(part, name).value == pytest.approx(value)
        assert (descriptors.compute(part, name).value
                == descriptors.compute(alone, name).value)


@pytest.mark.parametrize("kekule, aromatic", [
    ("CC1=CNC=C1", "Cc1cc[nH]c1"),
    ("CC1=CN=CN1", "Cc1cnc[nH]1"),
])
def test_scaffold_key_of_a_kekule_nh_ring_matches_the_aromatic_form(
        kekule, aromatic):
    mol, same = parse_smiles(kekule), parse_smiles(aromatic)
    assert molecule_key(mol) == molecule_key(same)
    assert scaffold_key(mol) == scaffold_key(same)
    assert (molecule_key(murcko_scaffold(mol))
            == molecule_key(murcko_scaffold(same)))


def test_scaffold_key_builds_the_scaffold_where_its_kekule_pass_may_act(
        monkeypatch):
    built = []
    build = molgraph.murcko_scaffold
    monkeypatch.setattr(molgraph, "murcko_scaffold",
                        lambda mol: built.append(mol.source) or build(mol))
    # Pruning the O leaves a thiophene, which the scaffold's Kekule pass
    # aromatizes; the molecule's own ring is not aromatic.
    traps = ["C1=CS(=O)C=C1", "O=S1(=O)C=CC=C1"]
    for text in traps:
        mol = parse_smiles(text)
        assert not any(atom.aromatic for atom in mol.atoms)
        assert all(atom.aromatic for atom in build(mol).atoms)
        scaffold_key(mol)
    # The rule counts no pi electrons: a ring of sp2 atoms with a bond not
    # yet aromatic is built even where the pass would leave it as it is.
    unchanged = ["C1=CC=CC=CC=C1", "c1ccc2c(c1)-c1ccccc1-2"]
    for text in unchanged:
        scaffold_key(parse_smiles(text))
    assert built == traps + unchanged
    built.clear()
    # Substituted aromatic rings, and rings that lose an exocyclic double
    # bond on a carbon, which then can join no aromatic ring.
    for text in ["Cc1ccccc1", "OC(=O)c1ccc(Cl)cc1", "Oc1ccc2ccccc2c1",
                 "O=c1cc[nH]cc1", "CC1=CC=CC=C1", "O=C1C=CC(=O)C=C1",
                 "C=C1C=CC=C1", "C1CC1=CC2CC2", *_bundled_smiles()]:
        scaffold_key(parse_smiles(text))
    assert built == []


def test_different_ring_systems_distinct_keys():
    assert scaffold_key(parse_smiles("c1ccccc1")) != scaffold_key(
        parse_smiles("c1ccncc1")
    )
    assert scaffold_key(parse_smiles("C1CCCCC1")) != scaffold_key(
        parse_smiles("c1ccccc1")
    )


def test_molecule_key_detects_heteroatom_swap():
    assert molecule_key(parse_smiles("CCO")) != molecule_key(
        parse_smiles("CCN")
    )


def _wl_labels(mol, rounds):
    """Atom labels after ``rounds`` rounds of the key's refinement."""
    labels = [molgraph._h(f"{a.element}|{int(a.aromatic)}|{a.formal_charge}|"
                          f"{a.total_h}|{mol.degree(a.index)}")
              for a in mol.atoms]
    for _ in range(rounds):
        labels = [molgraph._h(labels[i] + "".join(sorted(
                      f"{mol.bonds[bi].order[0]}{labels[j]}"
                      for j, bi in mol._adj[i])))
                  for i in range(len(mol.atoms))]
    return labels


def _reference_molecule_key(mol, rounds=None):
    """Reference: the key refined for ``max(2, min(n, 16))`` rounds, with
    no early stop."""
    n = len(mol.atoms)
    if n == 0:
        return EMPTY_SCAFFOLD_KEY
    labels = _wl_labels(mol, max(2, min(n, 16)) if rounds is None else rounds)
    edge_codes = sorted("".join(sorted((labels[b.a], labels[b.b])))
                        + b.order[0] for b in mol.bonds)
    return molgraph._h("".join(sorted(labels)) + "|" + "".join(edge_codes))


def _classes(keys):
    """The equality relation of ``keys``: each key's first-seen index."""
    first = {}
    return [first.setdefault(k, len(first)) for k in keys]


# Phenyls on a 14-ring, 6 and 7 ring bonds apart: their 2-round keys agree
# and the third round tells them apart.
_ROUND_3_PAIR = ("c1ccccc1C1CCCCCC(c2ccccc2)CCCCCCC1",
                 "c1ccccc1C1CCCCCCC(c2ccccc2)CCCCCC1")
# Benzene and cyclohexane 41 bonds apart: classes still split at round 16.
_CAPPED = "c1ccccc1" + "C" * 40 + "C1CCCCC1"


def test_early_stop_groups_like_fixed_round_reference():
    mols = []
    for text in (_bundled_smiles() + list(SMILES_CORPUS)
                 + list(_ROUND_3_PAIR) + [_CAPPED]):
        mol = parse_smiles(text)
        mols.append(mol)
        mols.append(parse_smiles(
            write_smiles(mol, rng=np.random.default_rng(len(mols)))))
    scaffolds = [murcko_scaffold(m) for m in mols]
    ours = [(molecule_key(m), molecule_key(s)) for m, s in zip(mols, scaffolds)]
    ref = [(_reference_molecule_key(m), _reference_molecule_key(s))
           for m, s in zip(mols, scaffolds)]
    for column in range(2):
        assert (_classes(k[column] for k in ours)
                == _classes(k[column] for k in ref))
    assert [scaffold_key(m) for m in mols] == [k for _, k in ours]


def test_molecule_key_separates_a_pair_split_only_at_round_3():
    a, b = (parse_smiles(text) for text in _ROUND_3_PAIR)
    assert _reference_molecule_key(a, 2) == _reference_molecule_key(b, 2)
    assert _reference_molecule_key(a) != _reference_molecule_key(b)
    assert molecule_key(a) != molecule_key(b)
    assert scaffold_key(a) != scaffold_key(b)


def test_round_cap_binds_on_a_long_linker():
    mol = parse_smiles(_CAPPED)
    assert len(murcko_scaffold(mol)) == len(mol.atoms) > 16
    assert len(set(_wl_labels(mol, 15))) < len(set(_wl_labels(mol, 16)))
    # refined up to the cap, the key is the reference key itself
    assert molecule_key(mol) == _reference_molecule_key(mol)
    for seed in range(5):
        again = parse_smiles(write_smiles(mol, rng=np.random.default_rng(seed)))
        assert molecule_key(again) == molecule_key(mol)
        assert scaffold_key(again) == scaffold_key(mol)


# ---------------------------------------------------------------------------
# writer round-trips
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("smiles", SMILES_CORPUS)
def test_write_parse_roundtrip(smiles):
    mol = parse_smiles(smiles)
    out = write_smiles(mol)
    assert molecule_key(parse_smiles(out)) == molecule_key(mol)


def test_write_smiles_long_chain_without_recursion_limit():
    mol = parse_smiles("C" * 5000)
    out = write_smiles(mol)
    assert molecule_key(parse_smiles(out)) == molecule_key(mol)


@settings(max_examples=150, deadline=None)
@given(
    idx=st.integers(min_value=0, max_value=len(SMILES_CORPUS) - 1),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_random_rewrites_preserve_key(idx, seed):
    mol = parse_smiles(SMILES_CORPUS[idx])
    rng = np.random.default_rng(seed)
    out = write_smiles(mol, rng=rng)
    again = parse_smiles(out)
    assert molecule_key(again) == molecule_key(mol)
    assert scaffold_key(again) == scaffold_key(mol)
    assert again.heavy_atom_count == mol.heavy_atom_count
