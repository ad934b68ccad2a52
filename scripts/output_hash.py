#!/usr/bin/env python3
"""Print eight sha256 hashes that pin the package's outputs.

1. ``molecules``: a dump of every SMILES in the bundled CSVs and case
   studies, plus three seeded ``write_smiles`` rewrites of each (the
   writer lives in ``tests/_reference.py``). Per
   molecule it holds the atom fields, the bonds, each atom's
   (neighbour, bond index) pairs, the rings and their bonds, ring
   membership as the public predicates report it, the 14 implemented
   descriptors as ``float.hex``, the scaffold key, and plain and seeded
   ``write_smiles`` output.
2. ``curves-grpo`` and ``curves-dapo``: the default-seed, 40-step
   ``train-sim`` curves of each algorithm, written as ``export_curves``
   writes them, so a run shows which algorithm's curves changed.
3. ``policy-grpo`` and ``policy-dapo``: the final ``PolicyParams`` of
   the same runs, as the raw float64 bytes of each field. The curves are
   printed as decimal text and averaged over a step, so they can hide a
   drift of a few ulps in the update; these lines do not.
4. ``score-gpt4o`` and ``score-r1``: the stdout of ``score --format
   json`` under each bundled range table, over ``case_studies.jsonl`` and
   then over ``TABLE_RECORDS``: one row per record and the summary line
   of each run. Every case-study claim gets the same verdict under both
   tables; the records of ``TABLE_RECORDS`` do not, so the two lines
   differ, and a ``score`` that ignored ``--table`` would make them
   equal. No ``--out`` is given, so no manifest (which holds the wall
   time) is written or hashed.
5. ``responses``: the ``parse_response`` fields (think, claims, answer,
   ``format_ok``) under both tasks for a fixed seeded set of strings: the
   six tags in order, then swapped, duplicated and dropped at random,
   with fillers between them.

The dump reads the molecule only through its public attributes, so two
versions of the package that store a molecule differently still hash the
same when they report the same values. A change that claims unchanged
outputs runs this before and after and compares the two lines.

Run from the repository root:

    python scripts/output_hash.py
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from attrilens import cli, policysim  # noqa: E402
from attrilens._data import BUNDLED_RANGE_TABLES, data_dir, data_path  # noqa: E402
from attrilens.descriptors import compute, implemented_names  # noqa: E402
from attrilens.molgraph import parse_smiles, scaffold_key  # noqa: E402
from attrilens.response import (CLASSIFICATION, REGRESSION,  # noqa: E402
                                parse_response)
from _reference import write_smiles  # noqa: E402

REWRITES = 3
CURVE_STEPS = 40
ALGORITHMS = ("grpo", "dapo")
POLICY_FIELDS = ("logit_format", "logits_count", "logits_attr",
                 "logits_polarity", "logits_answer")
RESPONSE_TEXTS = 20_000
TAGS = ("<think>", "</think>", "<name>", "</name>", "<answer>", "</answer>")
FILLERS = ("", " ", "x", " LogP: promotes, TPSA ", " MolWt: inhibits ",
           "LogP: maybe", " True ", "false.", " 2.5e1 ", " -.5 ", ",", ":",
           "<", "/>")
# Claims whose verdict the two bundled tables give differently: three
# halogens, three aromatic rings and a logP of 3.99 lie inside the
# gpt4o-default intervals and outside the r1-default ones.
TABLE_RECORDS = [
    {"id": "table-halogens", "smiles": "FC(F)(F)c1ccccc1",
     "task": "classification", "target": "BBBP", "label": True,
     "response_text": "<think> Three fluorines on a small aromatic ring. "
                      "</think>\n<name> NumHalogenAtoms: promotes, TPSA: "
                      "promotes </name>\n<answer> True </answer>"},
    {"id": "table-rings", "smiles": "c1ccc2cc3ccccc3cc2c1",
     "task": "classification", "target": "BBBP", "label": True,
     "response_text": "<think> A flat, lipophilic tricycle. </think>\n"
                      "<name> NumAromaticRings: promotes, LogP: promotes "
                      "</name>\n<answer> True </answer>"},
]


def bundled_smiles() -> list[str]:
    """Every distinct SMILES of the bundled CSVs and case studies."""
    smiles = []
    for path in sorted(data_dir().glob("*.csv")):
        with open(path, newline="") as fh:
            smiles += [row["smiles"] for row in csv.DictReader(fh)]
    for line in data_path("case_studies.jsonl").read_text().splitlines():
        if line.strip():
            smiles.append(json.loads(line)["smiles"])
    return list(dict.fromkeys(smiles))


def dump_molecule(text: str) -> str:
    mol = parse_smiles(text)
    n_atoms, n_bonds = len(mol.atoms), len(mol.bonds)
    bond_index = {id(bond): bi for bi, bond in enumerate(mol.bonds)}
    fields = [
        text,
        [(a.element, a.formal_charge, a.aromatic, a.explicit_h, a.isotope,
          a.index, a.bracket, a.chirality, a.implicit_h) for a in mol.atoms],
        [(b.a, b.b, b.order, b.stereo) for b in mol.bonds],
        [[(j, bond_index[id(bond)]) for j, bond in mol.neighbors(i)]
         for i in range(n_atoms)],
        mol.rings,
        mol.ring_bond_ids,
        [i for i in range(n_atoms) if mol.atom_in_ring(i)],
        [i for i in range(n_atoms) if mol.atom_in_3ring(i)],
        [bi for bi in range(n_bonds) if mol.bond_in_ring(bi)],
        [compute(mol, name).value.hex() for name in implemented_names()],
        scaffold_key(mol),
        write_smiles(mol),
        write_smiles(mol, rng=np.random.default_rng(0)),
    ]
    return repr(fields) + "\n"


def molecules_hash() -> str:
    digest = hashlib.sha256()
    for seed, text in enumerate(bundled_smiles()):
        digest.update(dump_molecule(text).encode())
        mol = parse_smiles(text)
        for k in range(REWRITES):
            rng = np.random.default_rng([seed, k])
            digest.update(dump_molecule(write_smiles(mol, rng=rng)).encode())
    return digest.hexdigest()


def train_hashes(algorithm: str) -> tuple[str, str]:
    """The hashes of one run's curves and of its final policy."""
    config = policysim.TrainConfig(steps=CURVE_STEPS, algorithm=algorithm,
                                   dataset=str(data_path("toy_train.csv")))
    curves, policy = policysim.train(config)
    out = io.StringIO()
    policysim.export_curves(curves, out)
    digest = hashlib.sha256()
    for name in POLICY_FIELDS:
        digest.update(np.asarray(getattr(policy, name), dtype=float).tobytes())
    return (hashlib.sha256(out.getvalue().encode()).hexdigest(),
            digest.hexdigest())


def score_output(corpus: Path, table: str) -> str:
    """The stdout of ``score --format json`` over one corpus."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["score", str(corpus), "--table", table,
                         "--format", "json"])
    if code != 0:
        raise SystemExit(f"score {corpus} --table {table} exited {code}")
    return out.getvalue()


def score_hash(table: str) -> str:
    """The hash of ``score``'s JSON rows over the case studies, then over
    ``TABLE_RECORDS``."""
    with tempfile.TemporaryDirectory() as tmp:
        records = Path(tmp) / "table_records.jsonl"
        records.write_text("".join(json.dumps(r) + "\n"
                                   for r in TABLE_RECORDS))
        text = (score_output(data_path("case_studies.jsonl"), table)
                + score_output(records, table))
    return hashlib.sha256(text.encode()).hexdigest()


def tag_strings():
    """The seeded response texts of the ``responses`` line."""
    rng = np.random.default_rng(0)
    for _ in range(RESPONSE_TEXTS):
        order = list(range(len(TAGS)))
        for edit in rng.integers(3, size=rng.integers(4)).tolist():
            if not order:
                break
            i, j = rng.integers(len(order), size=2).tolist()
            if edit == 0:
                order[i], order[j] = order[j], order[i]
            elif edit == 1:
                order.insert(j, order[i])
            else:
                del order[i]
        fillers = [FILLERS[f] for f in rng.integers(len(FILLERS),
                                                      size=len(order) + 1)]
        yield "".join(f + TAGS[k] for f, k in zip(fillers, order)) + fillers[-1]


def responses_hash() -> str:
    digest = hashlib.sha256()
    for text in tag_strings():
        for task in (CLASSIFICATION, REGRESSION):
            parsed = parse_response(text, task)
            digest.update(repr((parsed.think, parsed.claims, parsed.answer,
                                parsed.format_ok)).encode() + b"\n")
    return digest.hexdigest()


def main() -> int:
    print(f"molecules {molecules_hash()}")
    runs = {algorithm: train_hashes(algorithm) for algorithm in ALGORITHMS}
    for algorithm in ALGORITHMS:
        print(f"curves-{algorithm} {runs[algorithm][0]}")
    for algorithm in ALGORITHMS:
        print(f"policy-{algorithm} {runs[algorithm][1]}")
    for table in BUNDLED_RANGE_TABLES:
        print(f"score-{table.removesuffix('-default')} {score_hash(table)}")
    print(f"responses {responses_hash()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
