#!/usr/bin/env python3
"""Generate the bundled synthetic benchmark CSVs.

Two files are produced, both fully synthetic but shaped like the public
property-prediction sets they stand in for:

* ``bace_synthetic.csv`` -- 1,513 rows whose scaffold-group sizes are
  engineered so the default 80/10/10 scaffold split lands on exactly
  1,210 / 151 / 152 records.
* ``bbbp_synthetic.csv`` -- 400 rows over 100 scaffolds (four decorated
  members each) with labels from a descriptor rule plus 10% flip noise,
  so a forest on descriptor features has real but imperfect signal.

Molecules are two-ring scaffolds: a para-substituted benzene joined to a
second ring drawn from sixteen carbo-/heterocycles through an alkyl,
ether, or thioether linker of varying length -- distinct ring chemistry
and linker guarantee distinct scaffolds -- then decorated with acyclic
tails that scaffold extraction strips away, so group membership is
exactly by core.

Run from the repository root:

    python scripts/make_datasets.py --outdir src/attrilens/data
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from attrilens.descriptors import compute  # noqa: E402
from attrilens.mlpipe import (  # noqa: E402
    CsvSchema,
    ForestConfig,
    auc_score,
    eval_auc,
    featurize,
    load_csv,
    predict_proba,
    scaffold_split,
    train_forest,
)
from attrilens.molgraph import parse_smiles, scaffold_key  # noqa: E402

# Second rings written to bond their first atom to the linker. The first
# three attach through nitrogen and cannot follow an O/S linker.
N_RINGS = ("N2CCOCC2", "N2CCCC2", "N2CCCCC2")
C_RINGS = (
    "c2ccccc2",    # phenyl
    "C2CCCCC2",    # cyclohexyl
    "C2CCCC2",     # cyclopentyl
    "C2CCC2",      # cyclobutyl
    "C2CCCCCC2",   # cycloheptyl
    "c2ccccn2",    # pyridin-2-yl
    "c2cccnc2",    # pyridin-3-yl
    "c2ccco2",     # furan-2-yl
    "c2ccoc2",     # furan-3-yl
    "c2cccs2",     # thiophen-2-yl
    "c2ccsc2",     # thiophen-3-yl
    "C2CCOCC2",    # tetrahydropyran-2-yl
    "C2CCCO2",     # tetrahydrofuran-2-yl
)

# Acyclic decorations written as SMILES prefixes: the final atom of the
# prefix bonds to the first ring atom of the core. All are stripped by
# scaffold extraction.
TAILS = (
    "",
    "C",
    "CC",
    "CCC",
    "CO",
    "CCO",
    "OCC",
    "NCC",
    "NC(=O)",
    "CNC(=O)",
    "FC(F)(F)",
    "CS",
    "Cl",
    "CCCC",
    "COC",
    "OC(=O)C",
)


def _all_cores() -> list[str]:
    """Deterministic enumeration of distinct two-ring scaffold cores."""
    cores: list[str] = []
    for k in range(10):
        for ring in N_RINGS + C_RINGS:
            cores.append(f"c1ccc({'C' * k}{ring})cc1")
    for head in ("O", "S"):
        for k in range(10):
            for ring in C_RINGS:
                cores.append(f"c1ccc({head}{'C' * k}{ring})cc1")
    return cores


CORES = _all_cores()


def make_bace(path: Path) -> None:
    """1,513 rows with scaffold-group sizes packing to 1210/151/152.

    Group sizes (descending): 12x50 + 10x30 + 20x10 + 55x2 = 1,210 for
    train, then 303 singletons of which valid takes 151 and test 152.
    """
    sizes = [50] * 12 + [30] * 10 + [10] * 20 + [2] * 55 + [1] * 303
    assert sum(sizes) == 1513 and len(sizes) == 400
    assert len(CORES) >= len(sizes)
    rows: list[tuple[str, bool]] = []
    row_keys: list[str] = []
    group_reps: list[str] = []
    for scaffold_index, size in enumerate(sizes):
        core = CORES[scaffold_index]
        group_keys = set()
        for member in range(size):
            smiles = "C" * member + core
            mol = parse_smiles(smiles)
            key = scaffold_key(mol)
            group_keys.add(key)
            row_keys.append(key)
            label = float(compute(mol, "MolLogP")) > 4.0
            rows.append((smiles, label))
        assert len(group_keys) == 1, f"group {scaffold_index} not cohesive"
        group_reps.append(group_keys.pop())
    assert len(set(group_reps)) == len(group_reps), \
        "scaffold collision across groups"
    counts = sorted(Counter(row_keys).values(), reverse=True)
    assert counts == sorted(sizes, reverse=True)
    _write(path, rows)
    print(f"{path}: {len(rows)} rows, {len(group_reps)} scaffolds")


def make_bbbp(path: Path, flip_fraction: float = 0.10) -> None:
    """400 rows, 100 scaffolds x 4 members, rule labels + flip noise."""
    rng = np.random.default_rng(7)
    rows: list[tuple[str, bool]] = []
    for scaffold_index in range(100):
        core = CORES[scaffold_index]
        picks: list[str] = []
        j = 0
        while len(picks) < 4:
            tail = TAILS[(scaffold_index * 3 + j * 5 + j * j) % len(TAILS)]
            if tail not in picks:
                picks.append(tail)
            j += 1
        for tail in picks:
            smiles = tail + core
            mol = parse_smiles(smiles)
            tpsa = float(compute(mol, "TPSA"))
            logp = float(compute(mol, "MolLogP"))
            mw = float(compute(mol, "MolWt"))
            score = (tpsa < 12.0) + (logp > 3.3) + (mw < 205.0)
            label = score >= 2
            rows.append((smiles, bool(label)))
    flips = rng.random(len(rows)) < flip_fraction
    rows = [
        (smi, (not lab) if flip else lab)
        for (smi, lab), flip in zip(rows, flips)
    ]
    _write(path, rows)
    n_pos = sum(1 for _, lab in rows if lab)
    print(f"{path}: {len(rows)} rows, {n_pos} positive, "
          f"{int(flips.sum())} flipped")


def _write(path: Path, rows: list[tuple[str, bool]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["smiles", "label"])
        for smiles, label in rows:
            writer.writerow([smiles, label])


def verify(outdir: Path) -> None:
    """Re-load both files through the pipeline and check the targets."""
    bace = load_csv(outdir / "bace_synthetic.csv", CsvSchema())
    assert bace.skipped == 0
    train, valid, test = scaffold_split(bace.records)
    sizes = (len(train), len(valid), len(test))
    print("bace split:", sizes)
    assert sizes == (1210, 151, 152), sizes

    bbbp = load_csv(outdir / "bbbp_synthetic.csv", CsvSchema())
    assert bbbp.skipped == 0 and len(bbbp) == 400
    train, valid, test = scaffold_split(bbbp.records)
    print("bbbp split:", (len(train), len(valid), len(test)))
    print("bbbp test positives:", sum(1 for r in test if r.label),
          "of", len(test))
    features = ["MolWt", "HeavyAtomCount", "MolLogP", "TPSA", "NumHDonors",
                "NumHAcceptors", "NumRotatableBonds", "RingCount",
                "NumAromaticRings", "FractionCSP3"]
    model = train_forest(train, features, ForestConfig(seed=0))
    auc = eval_auc(model, test)
    print(f"bbbp forest test AUC: {auc:.4f}")
    assert auc >= 0.65, auc

    # permutation-null control: shuffled train labels, averaged over 10 seeds
    nulls = []
    X_test = featurize(test, model.feature_ids)
    y_test = [r.label for r in test]
    for rep in range(10):
        rng = np.random.default_rng(100 + rep)
        labels = [r.label for r in train]
        rng.shuffle(labels)
        shuffled = [
            dataclasses.replace(r, label=lab)
            for r, lab in zip(train, labels)
        ]
        null_model = train_forest(shuffled, features,
                                  ForestConfig(seed=200 + rep))
        nulls.append(auc_score(predict_proba(null_model, X_test), y_test))
    null_mean = float(np.mean(nulls))
    print(f"permutation-null AUC (10 reps): {null_mean:.4f} "
          f"(each: {[round(v, 3) for v in nulls]})")
    assert 0.4 <= null_mean <= 0.6, nulls


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", type=Path,
                    default=Path(__file__).resolve().parent.parent
                    / "src" / "attrilens" / "data")
    ap.add_argument("--skip-verify", action="store_true")
    args = ap.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)
    make_bace(args.outdir / "bace_synthetic.csv")
    make_bbbp(args.outdir / "bbbp_synthetic.csv")
    if not args.skip_verify:
        verify(args.outdir)


if __name__ == "__main__":
    main()
