"""Smoke tests for the scripts under ``scripts/``: each one still imports
and its helpers run, without running the script end to end."""

import importlib.util
from pathlib import Path

import numpy as np

from _reference import write_smiles
from attrilens.molgraph import parse_smiles

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_output_hash_dumps_a_molecule_and_a_seeded_rewrite():
    output_hash = _load("output_hash")
    text = "CC(=O)Oc1ccccc1C(=O)O"
    rewrite = write_smiles(parse_smiles(text), rng=np.random.default_rng(0))
    for smiles in (text, rewrite):
        dump = output_hash.dump_molecule(smiles)
        assert isinstance(dump, str)
        assert dump.startswith(f"[{smiles!r}, ") and dump.endswith("\n")
