"""SMILES parsing, ring perception, scaffolds, and graph invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    write_smiles,
)

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
    ],
)
def test_parse_errors(bad, exc):
    with pytest.raises(exc):
        parse_smiles(bad)


def test_errors_are_smiles_errors():
    for exc in (UnbalancedRing, UnbalancedBranch, UnknownElement,
                ValenceError):
        assert issubclass(exc, SmilesError)


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
