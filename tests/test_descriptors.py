"""Descriptor registry, fuzzy name resolution, and calculator oracles."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attrilens import descriptors
from attrilens._data import data_path
from attrilens.descriptors import (
    DescriptorValue,
    Unimplemented,
    compute,
    implemented_names,
    registry,
    resolve_attribute,
)
from attrilens.molgraph import SmilesError, parse_smiles

from _reference import write_smiles
from conftest import SMILES_CORPUS


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def test_registry_size():
    assert len(registry()) == 53


def test_fourteen_implemented():
    assert len(implemented_names()) == 14


def test_registry_entries_have_unique_names():
    names = [d.name for d in registry()]
    assert len(names) == len(set(names))


def test_implemented_prefix():
    assert implemented_names()[:4] == (
        "MolWt", "HeavyAtomCount", "MolLogP", "TPSA",
    )


# ---------------------------------------------------------------------------
# name resolution
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "raw, expected",
    [
        ("MolWt", "MolWt"),
        ("Molecular Weight", "MolWt"),
        ("molecular weight", "MolWt"),
        ("MolecularWeight", "MolWt"),
        ("TPSA", "TPSA"),
        ("PSA", "TPSA"),
        ("Topological Polar Surface Area", "TPSA"),
        ("LogP", "MolLogP"),
        ("lipophilicity", "MolLogP"),
        ("HBD", "NumHDonors"),
        ("Hydrogen Bond Donors", "NumHDonors"),
        ("HBA", "NumHAcceptors"),
        ("Rotatable Bonds", "NumRotatableBonds"),
        ("Aromatic Rings", "NumAromaticRings"),
    ],
)
def test_resolve_exact_and_aliases(raw, expected):
    ident = resolve_attribute(raw)
    assert ident is not None and ident.name == expected


@pytest.mark.parametrize(
    "typo, expected",
    [
        ("Molecuar Weight", "MolWt"),
        ("TPSAA", "TPSA"),
        ("Hydrogen Bond Donrs", "NumHDonors"),
        ("Rotatble Bonds", "NumRotatableBonds"),
    ],
)
def test_resolve_fuzzy_typos(typo, expected):
    ident = resolve_attribute(typo)
    assert ident is not None and ident.name == expected


@pytest.mark.parametrize("miss", ["Voodoo", "zzzz", "", "   ", "q"])
def test_resolve_misses(miss):
    assert resolve_attribute(miss) is None


def test_resolution_is_stable():
    first = resolve_attribute("Molecular Weight")
    second = resolve_attribute("Molecular Weight")
    assert first is second or first == second


# ---------------------------------------------------------------------------
# hand-derived oracles
# ---------------------------------------------------------------------------


def test_water_molwt():
    mol = parse_smiles("O")
    assert compute(mol, "MolWt").value == pytest.approx(18.015, abs=0.01)


def test_benzene_tpsa_zero_one_aromatic_ring():
    mol = parse_smiles("c1ccccc1")
    assert compute(mol, "TPSA").value == 0.0
    assert compute(mol, "NumAromaticRings").value == 1.0


def test_ethanol_h_bonding():
    mol = parse_smiles("CCO")
    assert compute(mol, "NumHDonors").value == 1.0
    assert compute(mol, "NumHAcceptors").value == 1.0


def test_aspirin_tpsa():
    mol = parse_smiles("OC(=O)c1ccccc1OC(C)=O")
    assert compute(mol, "TPSA").value == pytest.approx(63.60, abs=0.05)


def test_case_molecule_heavy_atoms():
    mol = parse_smiles("CN(C(=O)Cc1ccc(Cl)c(Cl)c1)C1CCCC[C@H]1N1CCCC1")
    assert compute(mol, "HeavyAtomCount").value == 24.0


@pytest.mark.parametrize(
    "smiles, name, value",
    [
        ("c1ccccc1", "MolWt", 78.114),
        ("CCO", "MolWt", 46.069),
        ("OC(=O)c1ccccc1OC(C)=O", "MolWt", 180.159),
        ("Cn1cnc2c1c(=O)n(C)c(=O)n2C", "MolWt", 194.194),
        ("CC(C)Cc1ccc(cc1)C(C)C(=O)O", "MolWt", 206.285),
    ],
)
def test_molwt_against_formula_sums(smiles, name, value):
    mol = parse_smiles(smiles)
    assert compute(mol, name).value == pytest.approx(value, abs=0.01)


@pytest.mark.parametrize(
    "smiles, name, value",
    [
        ("CCO", "NumRotatableBonds", 0),        # terminal bonds excluded
        ("CCCC", "NumRotatableBonds", 1),
        ("OC(=O)c1ccccc1OC(C)=O", "NumRotatableBonds", 3),
        ("CC(C)Cc1ccc(cc1)C(C)C(=O)O", "NumRotatableBonds", 4),
        ("c1ccc2ccccc2c1", "RingCount", 2),
        ("Cn1cnc2c1c(=O)n(C)c(=O)n2C", "NumHDonors", 0),
        ("Cn1cnc2c1c(=O)n(C)c(=O)n2C", "RingCount", 2),
        ("CS(=O)(=O)O", "NumSulfurAtoms", 1),
        ("FC(F)(F)Cl", "NumHalogenAtoms", 4),
        ("[NH4+]", "FormalCharge", 1),
        ("[O-]C(=O)C", "FormalCharge", -1),
        ("NCCO", "NumNitrogenPlusOxygen", 2),
        ("C1CCCCC1", "FractionCSP3", 1.0),
        ("c1ccccc1", "FractionCSP3", 0.0),
    ],
)
def test_counting_descriptors(smiles, name, value):
    mol = parse_smiles(smiles)
    assert compute(mol, name).value == pytest.approx(float(value))


# Values produced by this implementation, frozen to catch silent drift in
# the parameter tables. These are pins, not literature numbers.
@pytest.mark.parametrize(
    "smiles, name, value",
    [
        ("c1ccccc1", "MolLogP", 1.6866),
        ("CC(C)Cc1ccc(cc1)C(C)C(=O)O", "MolLogP", 2.5075),
        ("CCO", "TPSA", 20.23),
        ("Cn1cnc2c1c(=O)n(C)c(=O)n2C", "TPSA", 61.82),
        ("OC(=O)c1ccccc1OC(C)=O", "NumHAcceptors", 4.0),
    ],
)
def test_parameter_table_regression_pins(smiles, name, value):
    mol = parse_smiles(smiles)
    assert compute(mol, name).value == pytest.approx(value, abs=1e-3)


def _reference_in_class(neighbors, klass, single_only):
    for element, aromatic, bond_ch in neighbors:
        if single_only and bond_ch != "s":
            continue
        if klass == "a":
            if aromatic:
                return True
        elif klass == "c":
            if aromatic and element == "C":
                return True
        elif klass == "C":
            if not aromatic and element == "C":
                return True
        elif klass == "X":
            if element not in ("C", "H"):
                return True
        elif element == klass:
            return True
    return False


def _reference_partner(neighbors, order_ch, klass):
    for element, _aromatic, bond_ch in neighbors:
        if bond_ch != order_ch:
            continue
        if klass == "any":
            return True
        if klass == "C" and element == "C":
            return True
        if klass == "X" and element not in ("C", "H"):
            return True
    return False


def _reference_matches(tokens, env):
    """Reference: the pattern-key interpreter as an if-chain, on the raw
    ``key=value`` strings of a table row."""
    for key, val in tokens:
        num = int(val) if val.lstrip("-").isdigit() else None
        if key == "el":
            if env.element != val:
                return False
        elif key == "arom":
            if env.aromatic != bool(num):
                return False
        elif key == "h":
            if env.total_h != num:
                return False
        elif key == "hmin":
            if env.total_h < num:
                return False
        elif key == "hmax":
            if env.total_h > num:
                return False
        elif key == "chg":
            if env.charge != num:
                return False
        elif key == "chgneg":
            if (env.charge < 0) != bool(num):
                return False
        elif key == "bonds":
            if env.bonds != val:
                return False
        elif key == "ring3":
            if env.ring3 != bool(num):
                return False
        elif key == "degmin":
            if env.degree < num:
                return False
        elif key in ("dbl", "tpl"):
            order_ch = "d" if key == "dbl" else "t"
            if val == "none":
                if any(ch == order_ch for _, _, ch in env.neighbors):
                    return False
            elif not _reference_partner(env.neighbors, order_ch, val):
                return False
        elif key == "att":
            if not _reference_in_class(env.neighbors, val, False):
                return False
        elif key == "noatt":
            if _reference_in_class(env.neighbors, val, False):
                return False
        elif key == "satt":
            if not _reference_in_class(env.neighbors, val, True):
                return False
        else:
            raise ValueError(f"unknown pattern key {key!r}")
    return True


def _raw_rows(filename):
    """Reference: (raw ``(key, value)`` strings, value) per row of a table."""
    rows = []
    for line in (descriptors._DATA_DIR / filename).read_text().splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        _type, pattern, value = line.split("\t")[:3]
        tokens = [] if pattern == "*" else [
            tuple(tok.split("=", 1)) for tok in pattern.split(";")]
        rows.append((tokens, float(value)))
    return rows


def _linear_contribution(rows, env):
    """Reference: the value of the first matching row in file order."""
    for tokens, value in rows:
        if _reference_matches(tokens, env):
            return value
    return None


def _bundled_molecules():
    smiles = list(SMILES_CORPUS) + ["[Na+].[Cl-]", "[He]", "FC(Cl)(Br)I",
                                    "B(O)O", "C[Se]C", "OP(=O)(O)O",
                                    "CS(=O)(=O)C"]
    for name in ("bace_synthetic.csv", "bbbp_synthetic.csv"):
        with open(data_path(name)) as fh:
            smiles += [row["smiles"] for row in csv.DictReader(fh)]
    for text in dict.fromkeys(smiles):
        try:
            yield parse_smiles(text)
        except SmilesError:
            continue


def _reference_atom_env(mol, idx):
    """Reference: an atom's environment from its ``neighbors()`` list."""
    atom = mol.atoms[idx]
    neigh, chars = [], []
    for j, bond in mol.neighbors(idx):
        ch = descriptors._BOND_CHAR[bond.order]
        chars.append(ch)
        neigh.append((mol.atoms[j].element, mol.atoms[j].aromatic, ch))
    bonds = "".join(sorted(chars, key=descriptors._BOND_SORT.__getitem__))
    return descriptors._AtomEnv(atom.element, atom.aromatic, atom.total_h,
                                atom.formal_charge, bonds,
                                mol.atom_in_3ring(idx), len(chars), tuple(neigh))


def _memo_key(env):
    """The contribution memo's arguments after the table, for ``env``."""
    return (env.element, env.aromatic, env.total_h, env.charge, env.ring3,
            env.neighbors)


def _synthetic_envs():
    """Atoms with two neighbours drawn from aromatic and aliphatic C, N, O
    and H over every bond kind: an aromatic partner of a double or triple
    bond, which no bundled molecule has, among them."""
    pool = [(element, aromatic, ch) for element in ("C", "N", "O", "H")
            for aromatic in (False, True) for ch in "sdta"]
    centers = [("C", False, 2), ("C", True, 0), ("N", False, 1),
               ("N", True, 0), ("O", False, 0), ("S", False, 0), ("H", False, 0)]
    for i, first in enumerate(pool):
        for second in pool[i:]:
            neighbors = (first, second)
            bonds = "".join(sorted((ch for *_, ch in neighbors),
                                   key=descriptors._BOND_SORT.__getitem__))
            for element, aromatic, total_h in centers:
                yield descriptors._AtomEnv(element, aromatic, total_h, 0, bonds,
                                           False, 2, neighbors)


def _bundled_envs():
    for mol in _bundled_molecules():
        for atom in mol.atoms:
            yield _reference_atom_env(mol, atom.index)
            yield descriptors._AtomEnv("H", False, 0, 0, "s", False, 1,
                                       ((atom.element, atom.aromatic, "s"),))


def test_pattern_tests_match_reference_interpreter():
    """Every row of both tables agrees with the if-chain reference on every
    bundled atom, its hydrogens and the synthetic environments; the memo
    returns the first matching row's value."""
    memo = descriptors._match_contribution
    tables = []
    for table in (descriptors._CRIPPEN, descriptors._TPSA):
        raw, loaded = _raw_rows(table), descriptors._read_param_rows(table)
        assert [value for _, value in raw] == [value for _, value in loaded]
        tables.append((table, raw, loaded))
    # the tests read only the environment, so each distinct one is checked once
    envs = dict.fromkeys(_bundled_envs())
    assert len(envs) > 100
    envs.update(dict.fromkeys(_synthetic_envs()))
    first_matches = set()
    for env in envs:
        for table, raw, loaded in tables:
            hits = [_reference_matches(tokens, env) for tokens, _ in raw]
            assert [descriptors._pattern_matches(tokens, env)
                    for tokens, _ in loaded] == hits, (table, env)
            expected = _linear_contribution(raw, env)
            assert memo.__wrapped__(table, *_memo_key(env)) == expected
            assert memo(table, *_memo_key(env)) == expected
            first_matches.add((table, hits.index(True) if any(hits) else -1))
    assert len(first_matches) >= 60
    assert len(first_matches) > 60


def test_unknown_pattern_key_rejected_at_load(tmp_path, monkeypatch):
    monkeypatch.setattr(descriptors, "_DATA_DIR", tmp_path)
    for pattern, message in [
        ("el=C;chgpos=1", "unknown pattern key 'chgpos'"),
        # each of these loaded and then raised TypeError, or matched nothing
        ("el=C;hmin=two", "bad value 'two' for pattern key 'hmin'"),
        ("el=C;dbl=N", "bad value 'N' for pattern key 'dbl'"),
        ("el=C;att=x", "bad value 'x' for pattern key 'att'"),
    ]:
        (tmp_path / descriptors._CRIPPEN).write_text(
            f"# header\nC1\tel=C;arom=0\t0.1\tok\nC2\t{pattern}\t0.2\tbad\n")
        descriptors._read_param_rows.cache_clear()
        try:
            with pytest.raises(ValueError, match=message) as err:
                descriptors._read_param_rows(descriptors._CRIPPEN)
            assert f"{tmp_path / descriptors._CRIPPEN}:3:" in str(err.value)
        finally:
            descriptors._read_param_rows.cache_clear()


def test_chgneg_reads_its_value():
    anion = descriptors._AtomEnv("O", False, 0, -1, "s", False, 1,
                                 (("C", False, "s"),))
    for charge, negative in ((-1, True), (0, False), (1, False)):
        env = anion._replace(charge=charge)
        assert descriptors._pattern_matches((("chgneg", 1),), env) == negative
        assert descriptors._pattern_matches((("chgneg", 0),), env) != negative


def _reference_mol_logp(mol):
    """Reference: each atom's contribution from its environment."""
    memo = descriptors._match_contribution
    total = 0.0
    for atom in mol.atoms:
        contrib = memo(descriptors._CRIPPEN,
                       *_memo_key(_reference_atom_env(mol, atom.index)))
        total += contrib if contrib is not None else 0.0
        if atom.total_h:
            total += atom.total_h * (memo(
                descriptors._CRIPPEN, "H", False, 0, 0, False,
                ((atom.element, atom.aromatic, "s"),)) or 0.0)
    return total


def _reference_tpsa(mol):
    total = 0.0
    for atom in mol.atoms:
        if atom.element in ("N", "O"):
            contrib = descriptors._match_contribution(
                descriptors._TPSA, *_memo_key(_reference_atom_env(mol, atom.index)))
            total += contrib if contrib is not None else 0.0
    return total


def _reference_num_rotatable_bonds(mol):
    """Reference: neighbours read through ``Molecule.neighbors`` lists."""

    def heavy_degree(idx):
        return sum(1 for j, _ in mol.neighbors(idx) if mol.atoms[j].element != "H")

    def is_amide_cn(a_idx, n_idx):
        if mol.atoms[a_idx].element != "C" or mol.atoms[n_idx].element != "N":
            return False
        return any(bond.order == "double" and mol.atoms[j].element == "O"
                   for j, bond in mol.neighbors(a_idx))

    count = 0
    for bi, bond in enumerate(mol.bonds):
        if bond.order != "single" or mol.bond_in_ring(bi):
            continue
        a, b = bond.a, bond.b
        if mol.atoms[a].element == "H" or mol.atoms[b].element == "H":
            continue
        if heavy_degree(a) < 2 or heavy_degree(b) < 2:
            continue
        if is_amide_cn(a, b) or is_amide_cn(b, a):
            continue
        count += 1
    return float(count)


def _reference_fraction_csp3(mol):
    carbons = [a for a in mol.atoms if a.element == "C"]
    sp3 = sum(1 for a in carbons if not a.aromatic and all(
        bond.order == "single" for _, bond in mol.neighbors(a.index)))
    return sp3 / len(carbons) if carbons else 0.0


def test_descriptors_match_neighbor_list_references():
    references = {"MolLogP": _reference_mol_logp, "TPSA": _reference_tpsa,
                  "NumRotatableBonds": _reference_num_rotatable_bonds,
                  "FractionCSP3": _reference_fraction_csp3}
    for mol in _bundled_molecules():
        for name, reference in references.items():
            assert (compute(mol, name).value.hex()
                    == float(reference(mol)).hex()), (mol.source, name)


def test_warm_contribution_memo_builds_no_atom_env(monkeypatch):
    built = []
    env_type = descriptors._AtomEnv
    monkeypatch.setattr(descriptors, "_AtomEnv",
                        lambda *fields: built.append(fields) or env_type(*fields))
    texts = [mol.source for mol in _bundled_molecules()][::50]
    for text in texts:
        for name in ("MolLogP", "TPSA"):
            compute(parse_smiles(text), name)        # warms the memo
            built.clear()
            compute(parse_smiles(text), name)
            assert built == [], (text, name)
    descriptors._match_contribution.cache_clear()
    compute(parse_smiles("CCO"), "MolLogP")
    assert len(built) == 5  # three heavy atoms, two kinds of hydrogen


def test_contribution_memo_is_bounded_and_changes_no_value():
    memo = descriptors._match_contribution
    assert isinstance(memo.cache_info().maxsize, int)
    texts = [mol.source for mol in _bundled_molecules()]

    def values(text):
        mol = parse_smiles(text)
        return [compute(mol, name).value.hex() for name in ("MolLogP", "TPSA")]

    shared = [values(text) for text in texts]
    for text, expected in zip(texts, shared):
        memo.cache_clear()
        assert values(text) == expected, text    # cold memo
        assert values(text) == expected, text    # warm from this molecule
    memo.cache_clear()
    assert [values(text) for text in texts] == shared
    # every distinct environment of the bundled molecules fits
    info = memo.cache_info()
    assert info.currsize < info.maxsize


# ---------------------------------------------------------------------------
# compute interface
# ---------------------------------------------------------------------------


def test_compute_returns_named_value():
    out = compute(parse_smiles("O"), "MolWt")
    assert isinstance(out, DescriptorValue)
    assert out.name == "MolWt"
    assert float(out) == out.value


def test_compute_unimplemented_raises():
    unimplemented = next(d for d in registry() if not d.implemented)
    with pytest.raises(Unimplemented):
        compute(parse_smiles("CCO"), unimplemented)


def test_compute_unknown_name_raises():
    with pytest.raises(KeyError):
        compute(parse_smiles("CCO"), "NotADescriptor")
    # compute() takes canonical names only: an alias is not repaired
    with pytest.raises(KeyError):
        compute(parse_smiles("CCO"), "logp")


def test_compute_features_order_and_shape():
    mol = parse_smiles("CCO")
    names = ["MolWt", "NumHDonors", "RingCount"]
    feats = [compute(mol, name).value for name in names]
    assert feats[0] == pytest.approx(46.069, abs=0.01)
    assert feats[1] == 1.0
    assert feats[2] == 0.0


def test_values_cached_per_molecule():
    mol = parse_smiles("OC(=O)c1ccccc1OC(C)=O")
    first = compute(mol, "TPSA").value
    assert mol.descriptor_cache["TPSA"] == first
    assert compute(mol, "TPSA").value == first


# ---------------------------------------------------------------------------
# invariance properties
# ---------------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(
    idx=st.integers(min_value=0, max_value=len(SMILES_CORPUS) - 1),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_descriptors_invariant_under_atom_reordering(idx, seed):
    mol = parse_smiles(SMILES_CORPUS[idx])
    rng = np.random.default_rng(seed)
    permuted = parse_smiles(write_smiles(mol, rng=rng))
    for name in implemented_names():
        assert compute(permuted, name).value == pytest.approx(
            compute(mol, name).value, abs=1e-9
        ), name
