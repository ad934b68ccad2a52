"""Descriptor registry, fuzzy attribute resolution, and 14 calculators.

The registry enumerates the 53 canonical descriptor names the reward
verifier recognizes. Fourteen of them are implemented from scratch on the
:mod:`molgraph` model; the remainder resolve (so responses mentioning them
still parse as claims) but raise :class:`Unimplemented` when computed, which
the reward layer treats as "unverifiable".

Attribute mentions in model output are messy -- "Mol Weight", "PSA",
"Ringnumber" -- so resolution runs in three stages: exact canonical-name
match, exact alias match, then a normalized-edit-distance pass with a 0.80
similarity floor. Ties break toward the earlier registry entry. Anything
below the floor is no match, which callers receive as ``None``.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .molgraph import ATOMIC_MASSES, Atom, Molecule

__all__ = [
    "DescriptorId",
    "DescriptorValue",
    "Unimplemented",
    "registry",
    "resolve_attribute",
    "compute",
    "implemented_names",
]

_DATA_DIR = Path(__file__).parent / "data"


class Unimplemented(NotImplementedError):
    """Descriptor is registered but has no calculator."""


@dataclass(frozen=True)
class DescriptorId:
    name: str
    index: int
    implemented: bool
    aliases: tuple[str, ...]


@dataclass(frozen=True)
class DescriptorValue:
    name: str
    value: float

    def __float__(self) -> float:
        return self.value


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def _normalize(text: str) -> str:
    """Lowercase and strip everything but letters and digits."""
    return "".join(ch for ch in text.lower() if ch.isalnum())


@functools.lru_cache(maxsize=1)
def registry() -> tuple[DescriptorId, ...]:
    entries: list[DescriptorId] = []
    path = _DATA_DIR / "descriptor_registry.tsv"
    for line in path.read_text().splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        name, implemented, aliases = (line.split("\t") + ["", ""])[:3]
        alias_tuple = tuple(a.strip() for a in aliases.split("|") if a.strip())
        entries.append(DescriptorId(name.strip(), len(entries),
                                    implemented.strip() == "1", alias_tuple))
    return tuple(entries)


@functools.lru_cache(maxsize=1)
def _lookup_tables() -> tuple[dict[str, DescriptorId], list[tuple[str, DescriptorId]]]:
    exact: dict[str, DescriptorId] = {}
    fuzzy_pool: list[tuple[str, DescriptorId]] = []
    for entry in registry():
        key = _normalize(entry.name)
        exact.setdefault(key, entry)
        fuzzy_pool.append((key, entry))
    for entry in registry():
        for alias in entry.aliases:
            key = _normalize(alias)
            exact.setdefault(key, entry)
            fuzzy_pool.append((key, entry))
    return exact, fuzzy_pool


def implemented_names() -> tuple[str, ...]:
    return tuple(e.name for e in registry() if e.implemented)


def _levenshtein(a: str, b: str) -> int:
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[-1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


# The similarity floor 0.80 as an exact rational (4/5): a candidate passes iff
# (denom - dist) / denom >= 4/5, i.e. 5 * dist <= denom. Checking it in
# integers keeps borderline names (similarity exactly 0.80) inside the
# match set, where float rounding of 1 - dist/denom would drop them.
_FLOOR_NUM, _FLOOR_DEN = 4, 5


@functools.lru_cache(maxsize=8192)
def resolve_attribute(raw_name: str) -> DescriptorId | None:
    """Map a free-text attribute mention to a registry entry, or ``None``.

    Resolution is idempotent on canonical names and deterministic: fuzzy
    ties at equal similarity go to the earlier registry entry.
    """
    key = _normalize(raw_name)
    if not key:
        return None
    exact, pool = _lookup_tables()
    hit = exact.get(key)
    if hit is not None:
        return hit
    best: DescriptorId | None = None
    best_sim = 0.0
    for cand_key, entry in pool:
        denom = max(len(key), len(cand_key))
        if denom == 0:
            continue
        # The length gap lower-bounds the distance; skip the DP when even
        # that already busts the floor.
        if _FLOOR_DEN * abs(len(key) - len(cand_key)) > (
            (_FLOOR_DEN - _FLOOR_NUM) * denom
        ):
            continue
        dist = _levenshtein(key, cand_key)
        if _FLOOR_DEN * dist > (_FLOOR_DEN - _FLOOR_NUM) * denom:
            continue
        sim = 1.0 - dist / denom
        # The pool is in registry order, so keeping the first maximum
        # breaks similarity ties toward the earlier entry.
        if sim > best_sim:
            best = entry
            best_sim = sim
    return best


# ---------------------------------------------------------------------------
# Environment-code pattern matching (shared by the parameter tables)
# ---------------------------------------------------------------------------

_HETERO_EXCLUDE = {"C", "H"}
_HALOGENS = ("F", "Cl", "Br", "I", "At")
_BOND_CHAR = {"single": "s", "double": "d", "triple": "t", "aromatic": "a"}
_BOND_SORT = {"s": 0, "d": 1, "t": 2, "a": 3}
# A table row's pattern as (key, value) pairs; integer values are ints.
_Tokens = tuple[tuple[str, "str | int"], ...]


class _AtomEnv(NamedTuple):
    """An atom's environment, as the table patterns read it."""

    element: str
    aromatic: bool
    total_h: int
    charge: int
    bonds: str                     # canonical heavy-bond multiset, e.g. "sdd"
    ring3: bool
    degree: int
    # neighbor tuples: (element, aromatic, bond char)
    neighbors: tuple[tuple[str, bool, str], ...]


# The att/noatt/satt neighbour classes, as tests of (element, aromatic);
# any other class names an element.
_NEIGHBOR_CLASSES = {
    "a": lambda element, aromatic: aromatic,
    "c": lambda element, aromatic: aromatic and element == "C",
    "C": lambda element, aromatic: not aromatic and element == "C",
    "X": lambda element, aromatic: element not in _HETERO_EXCLUDE,
}


def _attached(env: _AtomEnv, klass: str, single_only: bool = False) -> bool:
    """Whether a neighbour in ``klass`` is bonded to the atom (through a
    single bond, with ``single_only``)."""
    in_class = _NEIGHBOR_CLASSES.get(klass, lambda element, _: element == klass)
    return any(in_class(element, aromatic)
               for element, aromatic, bond_ch in env.neighbors
               if bond_ch == "s" or not single_only)


def _partner(bond_ch: str):
    """The dbl/tpl test over the atom's partners through ``bond_ch`` bonds:
    ``none`` (there are none), ``any``, ``C`` (a carbon, aromatic or not)
    or ``X`` (an atom other than C and H)."""
    def test(env: _AtomEnv, klass: str) -> bool:
        partners = [element for element, _, ch in env.neighbors if ch == bond_ch]
        if klass == "none":
            return not partners
        if klass == "any":
            return bool(partners)
        if klass == "C":
            return "C" in partners
        return klass == "X" and any(e not in _HETERO_EXCLUDE for e in partners)
    return test


def _parser(accepts, convert=str):
    """A parser of a table value: ``convert(value)`` when ``accepts(value)``
    holds, else ``ValueError``."""
    def parse(value: str):
        if not accepts(value):
            raise ValueError(value)
        return convert(value)
    return parse


# Parsers of the values a table may give a pattern key.
_INT = _parser(re.compile(r"-?[0-9]+").fullmatch, int)
_BIT = _parser({"0", "1"}.__contains__, int)
_ELEMENT = _parser(ATOMIC_MASSES.__contains__)
_PARTNER = _parser({"none", "any", "C", "X"}.__contains__)
_CLASS = _parser({*_NEIGHBOR_CLASSES, *ATOMIC_MASSES}.__contains__)
_BONDS = _parser(re.compile("s*d*t*a*").fullmatch)  # a sorted bond multiset

# Per pattern key: the parser of its value, and its test, called as
# test(env, parsed value).
_TESTS = {
    "el": (_ELEMENT, lambda env, v: env.element == v),
    "arom": (_BIT, lambda env, v: env.aromatic == bool(v)),
    "h": (_INT, lambda env, v: env.total_h == v),
    "hmin": (_INT, lambda env, v: env.total_h >= v),
    "hmax": (_INT, lambda env, v: env.total_h <= v),
    "chg": (_INT, lambda env, v: env.charge == v),
    "chgneg": (_BIT, lambda env, v: (env.charge < 0) == bool(v)),
    "bonds": (_BONDS, lambda env, v: env.bonds == v),
    "ring3": (_BIT, lambda env, v: env.ring3 == bool(v)),
    "degmin": (_INT, lambda env, v: env.degree >= v),
    "dbl": (_PARTNER, _partner("d")),
    "tpl": (_PARTNER, _partner("t")),
    "att": (_CLASS, lambda env, v: _attached(env, v)),
    "noatt": (_CLASS, lambda env, v: not _attached(env, v)),
    "satt": (_CLASS, lambda env, v: _attached(env, v, single_only=True)),
}


def _pattern_matches(tokens: _Tokens, env: _AtomEnv) -> bool:
    return all(_TESTS[key][1](env, value) for key, value in tokens)


@functools.lru_cache(maxsize=2)
def _read_param_rows(filename: str) -> tuple[tuple[_Tokens, float], ...]:
    """(pattern tokens, contribution) per table row, in file order.

    The ``*`` pattern has no tokens, so it matches every atom. A key with
    no test in :data:`_TESTS`, or a value that the key's parser there
    rejects, is rejected here, naming the file and line.
    """
    path = _DATA_DIR / filename
    rows = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        pattern, value = parts[1], float(parts[2])
        tokens = []
        for tok in ([] if pattern == "*" else pattern.split(";")):
            key, sep, val = tok.partition("=")
            if key not in _TESTS:
                raise ValueError(f"{path}:{lineno}: unknown pattern key {key!r}")
            try:
                if not sep:
                    raise ValueError(tok)
                tokens.append((key, _TESTS[key][0](val)))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad value {val!r} for "
                                 f"pattern key {key!r}") from None
        rows.append((tuple(tokens), value))
    return tuple(rows)


_CRIPPEN = "crippen_params.tsv"
_TPSA = "tpsa_fragments.tsv"


# The contribution depends only on the table and the atom's environment.
# The 1836 distinct molecules of the bundled CSVs and case studies fill 104
# entries; the cap bounds the memo for any other input.
@functools.lru_cache(maxsize=1024)
def _match_contribution(table: str, element: str, aromatic: bool, total_h: int,
                        charge: int, ring3: bool,
                        neighbors: tuple[tuple[str, bool, str], ...]) -> float | None:
    """The value of the first row of ``table`` whose pattern matches the
    atom; the :class:`_AtomEnv` the patterns read is built only on a miss."""
    bonds = "".join(sorted((ch for *_, ch in neighbors), key=_BOND_SORT.__getitem__))
    env = _AtomEnv(element, aromatic, total_h, charge, bonds, ring3,
                   len(neighbors), neighbors)
    for tokens, value in _read_param_rows(table):
        if _pattern_matches(tokens, env):
            return value
    return None


def _contribution(table: str, mol: Molecule, atom: Atom) -> float:
    """The atom's contribution from ``table``, 0.0 when no row matches.

    The memo key holds the atom's own fields and an (element, aromatic,
    bond char) tuple per neighbor, in adjacency order."""
    atoms, bonds = mol.atoms, mol.bonds
    neighbors = []
    for j, bi in mol._adj[atom.index]:
        other = atoms[j]
        neighbors.append((other.element, other.aromatic,
                          _BOND_CHAR[bonds[bi].order]))
    value = _match_contribution(table, atom.element, atom.aromatic,
                                atom.total_h, atom.formal_charge,
                                mol.atom_in_3ring(atom.index), tuple(neighbors))
    return value if value is not None else 0.0


# ---------------------------------------------------------------------------
# Calculators
# ---------------------------------------------------------------------------

_CALCULATORS: dict[str, callable] = {}


def _calculator(name: str):
    def deco(fn):
        _CALCULATORS[name] = fn
        return fn
    return deco


@_calculator("MolWt")
def _mol_wt(mol: Molecule) -> float:
    total = 0.0
    h_mass = ATOMIC_MASSES["H"]
    for atom in mol.atoms:
        total += atom.mass + atom.total_h * h_mass
    return total


@_calculator("HeavyAtomCount")
def _heavy_atom_count(mol: Molecule) -> float:
    return float(mol.heavy_atom_count)


@_calculator("MolLogP")
def _mol_logp(mol: Molecule) -> float:
    total = 0.0
    for atom in mol.atoms:
        total += _contribution(_CRIPPEN, mol, atom)
        total_h = atom.total_h
        if total_h:
            # One H's contribution depends only on its parent atom.
            total += total_h * (_match_contribution(
                _CRIPPEN, "H", False, 0, 0, False,
                ((atom.element, atom.aromatic, "s"),)) or 0.0)
    return total


@_calculator("TPSA")
def _tpsa(mol: Molecule) -> float:
    total = 0.0
    for atom in mol.atoms:
        if atom.element in ("N", "O"):
            total += _contribution(_TPSA, mol, atom)
    return total


@_calculator("NumHDonors")
def _num_h_donors(mol: Molecule) -> float:
    """Count of O-H and N-H hydrogens (an NH2 contributes two)."""
    return float(sum(a.total_h for a in mol.atoms if a.element in ("N", "O")))


@_calculator("NumHAcceptors")
def _num_h_acceptors(mol: Molecule) -> float:
    """N and O atoms, excluding pyrrole-type nitrogens.

    A pyrrole-type nitrogen donates its lone pair into the aromatic system
    (aromatic N that carries an H or a third sigma bond), so it cannot
    accept; pyridine-type N and amide N both count under this deliberately
    inclusive convention.
    """
    count = 0
    for atom in mol.atoms:
        if atom.element == "O":
            count += 1
        elif atom.element == "N":
            if atom.aromatic and (atom.total_h > 0 or mol.degree(atom.index) > 2):
                continue
            count += 1
    return float(count)


@_calculator("NumRotatableBonds")
def _num_rotatable_bonds(mol: Molecule) -> float:
    """Single non-ring bonds with a heavy continuation on both sides,
    excluding amide C-N bonds (strict convention)."""
    atoms, bonds, adj = mol.atoms, mol.bonds, mol._adj

    def heavy_degree(idx: int) -> int:
        return sum(1 for j, _ in adj[idx] if atoms[j].element != "H")

    def is_amide_cn(a_idx: int, n_idx: int) -> bool:
        if atoms[a_idx].element != "C" or atoms[n_idx].element != "N":
            return False
        return any(bonds[bi].order == "double" and atoms[j].element == "O"
                   for j, bi in adj[a_idx])

    count = 0
    for bi, bond in enumerate(bonds):
        if bond.order != "single" or mol.bond_in_ring(bi):
            continue
        a, b = bond.a, bond.b
        if atoms[a].element == "H" or atoms[b].element == "H":
            continue
        if heavy_degree(a) < 2 or heavy_degree(b) < 2:
            continue
        if is_amide_cn(a, b) or is_amide_cn(b, a):
            continue
        count += 1
    return float(count)


@_calculator("RingCount")
def _ring_count(mol: Molecule) -> float:
    return float(len(mol.rings))


@_calculator("NumAromaticRings")
def _num_aromatic_rings(mol: Molecule) -> float:
    # Aromatic bonds join aromatic atoms, so such a ring's atoms are too.
    return float(sum(all(mol.bonds[bi].order == "aromatic" for bi in bonds)
                     for bonds in mol.ring_bond_ids))


@_calculator("FractionCSP3")
def _fraction_csp3(mol: Molecule) -> float:
    carbons = 0
    sp3 = 0
    for atom in mol.atoms:
        if atom.element != "C":
            continue
        carbons += 1
        if atom.aromatic:
            continue
        if all(mol.bonds[bi].order == "single" for _, bi in mol._adj[atom.index]):
            sp3 += 1
    return sp3 / carbons if carbons else 0.0


@_calculator("NumSulfurAtoms")
def _num_sulfur(mol: Molecule) -> float:
    return float(sum(1 for a in mol.atoms if a.element == "S"))


@_calculator("NumHalogenAtoms")
def _num_halogens(mol: Molecule) -> float:
    return float(sum(1 for a in mol.atoms if a.element in _HALOGENS))


@_calculator("FormalCharge")
def _formal_charge(mol: Molecule) -> float:
    return float(sum(a.formal_charge for a in mol.atoms))


@_calculator("NumNitrogenPlusOxygen")
def _num_n_plus_o(mol: Molecule) -> float:
    return float(sum(1 for a in mol.atoms if a.element in ("N", "O")))


# ---------------------------------------------------------------------------
# Public compute API
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=1)
def _by_name() -> dict[str, DescriptorId]:
    return {entry.name: entry for entry in registry()}


def _as_descriptor_id(ident: "DescriptorId | str") -> DescriptorId:
    if isinstance(ident, DescriptorId):
        return ident
    # compute() is strict: only canonical names, no alias or fuzzy repair.
    entry = _by_name().get(ident)
    if entry is None:
        raise KeyError(f"unknown descriptor {ident!r}")
    return entry


def compute(mol: Molecule, ident: "DescriptorId | str") -> DescriptorValue:
    """Compute one descriptor; raises :class:`Unimplemented` for the
    name-only registry entries. Values are cached on the molecule."""
    entry = _as_descriptor_id(ident)
    cached = mol.descriptor_cache.get(entry.name)
    if cached is not None:
        return DescriptorValue(entry.name, cached)
    fn = _CALCULATORS.get(entry.name)
    if fn is None:
        raise Unimplemented(f"descriptor {entry.name} has no calculator")
    value = float(fn(mol))
    mol.descriptor_cache[entry.name] = value
    return DescriptorValue(entry.name, value)
