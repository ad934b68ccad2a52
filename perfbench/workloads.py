"""The four workloads: their inputs, their CLI commands and their checks.

A workload writes its generated inputs into a work directory, then names
the ``attrilens`` CLI commands of one round. Every round runs the same
commands on the same inputs and overwrites the same output files, so each
round's outputs must hash the same as the first round's, which is checked
in full. The checks derive every expected value from the generator's
ground truth, the acceptance criteria or the benchmark's own arithmetic,
never from a stored copy of earlier output.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
from pathlib import Path

import gen

# Acceptance criterion 2: (format, correct, count, rational, total, n_att,
# verified, matched) for each bundled case-study transcript.
CASE_EXPECTED = {
    "bbbp-base": (1, 0, 0, 0.0, 1.0, 4, 0, 0),
    "bbbp-distill": (1, 0, 0, 0.25, 1.25, 4, 4, 1),
    "bbbp-r1": (1, 0, 0, 0.5, 1.5, 4, 4, 2),
    "bbbp-tuned": (1, 2, 0, 1.0, 4.0, 3, 3, 3),
    "bace-base": (1, 2, -1, 0.0, 2.0, 2, 0, 0),
    "bace-distill": (-2, 0, -1, 0.0, -3.0, 2, 0, 0),
    "bace-r1": (1, 0, 0, 2.0 / 3.0, 1.0 + 2.0 / 3.0, 6, 3, 2),
    "bace-tuned": (1, 2, 0, 1.0, 4.0, 5, 5, 5),
    "tox-base": (-2, 0, -1, 0.0, -3.0, 0, 0, 0),
    "tox-distill": (-2, 0, -1, 0.0, -3.0, 0, 0, 0),
    "tox-r1": (1, 0, 0, 0.6, 1.6, 5, 5, 3),
    "tox-tuned": (1, 2, 0, 1.0, 4.0, 3, 3, 3),
}
ROW_FIELDS = ("format", "correct", "count", "rational", "total", "n_att",
              "verified", "matched")
SUMMARY_FIELDS = ("format", "correct", "count", "rational", "total")
TOL = 1e-9


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL


class Workload:
    """One round is ``commands()``; ``check`` reads that round's outputs."""

    name = ""
    records_per_round = 0

    def __init__(self, work: Path, seed: int, tiny: bool):
        self.work = work
        self.seed = seed

    def commands(self) -> list[tuple[str, list[str]]]:
        raise NotImplementedError

    def outputs(self) -> list[Path]:
        raise NotImplementedError

    def check(self, ok: set[str], errors: list[str]) -> None:
        raise NotImplementedError

    def figures(self, times: dict[str, float]) -> dict[str, float]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------


class Score(Workload):
    def __init__(self, work, seed, tiny):
        super().__init__(work, seed, tiny)
        if self.name == "score-distinct":
            self.corpus = gen.score_distinct(seed, limit=40 if tiny else None)
        else:
            self.corpus = (gen.score_grouped(seed, molecules=6, group=4)
                           if tiny else gen.score_grouped(seed))
        self.records_per_round = len(self.corpus.records)
        self.input = work / "corpus.jsonl"
        self.output = work / "scores.jsonl"
        gen.write_jsonl(self.corpus.records, self.input)

    def commands(self):
        lo, hi = gen.COUNT_BOUNDS
        return [("score", ["score", str(self.input), "--table",
                           gen.TABLE_NAME, "--count-bounds", f"{lo},{hi}",
                           "--format", "json", "--out", str(self.output)])]

    def outputs(self):
        return [self.output]

    def check(self, ok, errors):
        self._check_counts(errors)
        if "score" not in ok:
            return
        records = self.corpus.records
        lines = [json.loads(x) for x in self.output.read_text().splitlines()]
        rows, summary = lines[:-1], lines[-1].get("summary")
        if len(rows) != len(records) or summary is None:
            errors.append(f"score: {len(rows)} rows for {len(records)} "
                          "records")
            return
        for rec, row in zip(records, rows):
            rid = rec["id"]
            if row["id"] != rid:
                errors.append(f"score: row {row['id']} where {rid} was due")
                continue
            expect_rational = (row["matched"] / row["verified"]
                               if row["verified"] else 0.0)
            total = sum(row[k] for k in SUMMARY_FIELDS[:4])
            if not (_close(row["rational"], expect_rational)
                    and 0.0 <= row["rational"] <= 1.0
                    and row["verified"] <= row["n_att"]
                    and _close(row["total"], total)):
                errors.append(f"score: {rid} breaks a reward invariant: "
                              f"{row}")
            truth = self.corpus.truth.get(rid)
            if truth is not None:
                got = (row["format"], row["correct"], row["count"],
                       row["n_att"], row["verified"])
                want = (truth.format, truth.correct, truth.count,
                        truth.n_att, truth.verified)
                if got != want or not (truth.matched_lo <= row["matched"]
                                       <= truth.matched_hi):
                    errors.append(f"score: {rid} gave {row}, want {truth}")
            elif rid in CASE_EXPECTED:
                got = tuple(row[k] for k in ROW_FIELDS)
                if not all(_close(a, b)
                           for a, b in zip(got, CASE_EXPECTED[rid])):
                    errors.append(f"score: case study {rid} gave {got}")
            else:
                errors.append(f"score: unexpected record id {rid}")
        if summary["n"] != len(rows):
            errors.append(f"score: summary n={summary['n']}")
        for key in SUMMARY_FIELDS:
            mean = math.fsum(r[key] for r in rows) / len(rows)
            if not _close(summary[key], mean):
                errors.append(f"score: summary {key}={summary[key]}, "
                              f"mean of rows {mean}")

    def _check_counts(self, errors):
        """HeavyAtomCount and RingCount of every single-component SMILES
        equal the benchmark's own heavy-atom and ring-closure counts."""
        from attrilens import descriptors, molgraph

        for smiles in sorted({r["smiles"] for r in self.corpus.records
                              if "." not in r["smiles"]}):
            mol = molgraph.parse_smiles(smiles)
            got = tuple(descriptors.compute(mol, name).value
                        for name in gen.PREDICTED)
            if got != gen.smiles_counts(smiles):
                errors.append(f"score: {smiles} has {gen.PREDICTED} = {got}, "
                              f"want {gen.smiles_counts(smiles)}")

    def figures(self, times):
        return {"score_records_per_s":
                self.records_per_round / times["score"]}


class ScoreDistinct(Score):
    name = "score-distinct"


class ScoreGrouped(Score):
    name = "score-grouped"


# ---------------------------------------------------------------------------
# train-sim
# ---------------------------------------------------------------------------

# Reward ranges: format {-2, 1}, correct {0, 2}, count {-1, 0},
# rational [0, 1]; per-step curves are means, so they stay inside.
CURVE_RANGES = {"format": (-2.0, 1.0), "correct": (0.0, 2.0),
                "count": (-1.0, 0.0), "rational": (0.0, 1.0),
                "total": (-3.0, 4.0)}


class TrainSim(Workload):
    name = "train-sim"
    algorithms = ("grpo", "dapo")

    def __init__(self, work, seed, tiny):
        super().__init__(work, seed, tiny)
        self.steps = 12
        self.dataset = work / "toy_train.csv"
        shutil.copyfile(gen.DATA / "toy_train.csv", self.dataset)
        self.curves = {a: work / f"curves_{a}.csv" for a in self.algorithms}

    def commands(self):
        return [(alg, ["train-sim", "--algorithm", alg,
                       "--steps", str(self.steps), "--seed", str(self.seed),
                       "--dataset", str(self.dataset),
                       "--out", str(self.curves[alg])])
                for alg in self.algorithms]

    def outputs(self):
        return list(self.curves.values())

    def check(self, ok, errors):
        for alg in self.algorithms:
            if alg not in ok:
                continue
            with open(self.curves[alg], newline="") as fh:
                rows = [{k: float(v) for k, v in r.items()}
                        for r in csv.DictReader(fh)]
            if [int(r["step"]) for r in rows] != list(
                    range(1, self.steps + 1)):
                errors.append(f"{alg}: steps are not 1..{self.steps}")
                continue
            for r in rows:
                for key, (lo, hi) in CURVE_RANGES.items():
                    if not lo <= r[key] <= hi:
                        errors.append(f"{alg}: step {r['step']:.0f} {key}="
                                      f"{r[key]} outside [{lo}, {hi}]")
                parts = r["format"] + r["correct"] + r["count"] + r["rational"]
                if not _close(r["total"], parts):
                    errors.append(f"{alg}: step {r['step']:.0f} total "
                                  f"{r['total']} != components {parts}")
            tenth = max(1, self.steps // 10)
            first = sum(r["format"] for r in rows[:tenth]) / tenth
            last = sum(r["format"] for r in rows[-tenth:]) / tenth
            if not last > first:
                errors.append(f"{alg}: format did not rise "
                              f"({first} -> {last})")

    def figures(self, times):
        return {f"sim_{alg}_step_ms": 1e3 * times[alg] / self.steps
                for alg in self.algorithms}


# ---------------------------------------------------------------------------
# split-forest
# ---------------------------------------------------------------------------

BACE_SIZES = (1210, 151, 152)  # acceptance criterion 6
MIN_BBBP_AUC = 0.65            # acceptance criterion 7


def _row(line: str) -> tuple[str, bool]:
    smiles, label = line.rsplit(",", 1)
    return smiles.strip(), label.strip().lower() in ("true", "1")


def pairwise_auc(scores, labels) -> float:
    """Mann-Whitney AUC by counting every positive-negative pair."""
    pos = [s for s, y in zip(scores, labels) if y]
    neg = [s for s, y in zip(scores, labels) if not y]
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0
               for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


class SplitForest(Workload):
    name = "split-forest"
    sets = (("bace", "bace_synthetic.csv"), ("bbbp", "bbbp_synthetic.csv"))

    def __init__(self, work, seed, tiny):
        super().__init__(work, seed, tiny)
        self.trees = 5 if tiny else 50
        self.inputs = {}
        for key, filename in self.sets:
            self.inputs[key] = work / f"{key}.csv"
            gen.shuffled_csv(filename, seed, self.inputs[key])
        self.metrics = work / "bbbp_dtree.json"
        self.model = work / "bbbp_forest.txt"

    def _split(self, key):
        return ["split", str(self.inputs[key]), "--outdir",
                str(self.work / f"{key}_split"), "--format", "json"]

    def commands(self):
        # The BACE split is run once, in ``check``: it is most of a round's
        # time, and with it only four rounds fit in a 15 s run.
        return [("split-bbbp", self._split("bbbp")),
                ("dtree-bbbp", [
                    "dtree", str(self.inputs["bbbp"]), "--seed",
                    str(self.seed), "--n-trees", str(self.trees),
                    "--out", str(self.metrics),
                    "--model-out", str(self.model)])]

    def outputs(self):
        files = [self.work / f"{key}_split" / f"{part}.csv"
                 for key, _ in self.sets
                 for part in ("train", "valid", "test")]
        return files + [self.metrics, self.model]

    def _parts(self, key):
        parts = []
        for part in ("train", "valid", "test"):
            path = self.work / f"{key}_split" / f"{part}.csv"
            parts.append(path.read_text().splitlines()[1:])
        return parts

    def check(self, ok, errors):
        from attrilens import cli, mlpipe, molgraph

        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(self._split("bace"))
        if code == 0:
            ok = ok | {"split-bace"}
        else:
            errors.append(f"split-bace: exit {code}")
        sizes = {}
        for key, _ in self.sets:
            if f"split-{key}" not in ok:
                continue
            parts = self._parts(key)
            sizes[key] = tuple(len(p) for p in parts)
            rows = self.inputs[key].read_text().splitlines()[1:]
            if sorted(map(_row, sum(parts, []))) != sorted(map(_row, rows)):
                errors.append(f"split-{key}: parts are not a partition")
            keys = [{molgraph.scaffold_key(
                         molgraph.parse_smiles(_row(line)[0]))
                     for line in part} for part in parts]
            if keys[0] & keys[1] or keys[0] & keys[2] or keys[1] & keys[2]:
                errors.append(f"split-{key}: a scaffold spans two parts")
        if sizes.get("bace", BACE_SIZES) != BACE_SIZES:
            errors.append(f"split-bace: sizes {sizes['bace']} != {BACE_SIZES}")
        if "dtree-bbbp" not in ok:
            return
        metrics = json.loads(self.metrics.read_text())
        got = (metrics["train_size"], metrics["valid_size"],
               metrics["test_size"])
        if "bbbp" in sizes and got != sizes["bbbp"]:
            errors.append(f"dtree-bbbp: sizes {got} != split {sizes['bbbp']}")
        if "split-bbbp" in ok:
            test = mlpipe.load_csv(self.work / "bbbp_split" / "test.csv")
            model = mlpipe.load_forest(self.model)
            proba = mlpipe.predict_proba(
                model, mlpipe.featurize(test.records, model.feature_ids))
            auc = pairwise_auc(proba.tolist(),
                               [r.label for r in test.records])
            if not _close(metrics["auc"], auc):
                errors.append(f"dtree-bbbp: auc {metrics['auc']} != "
                              f"pairwise count {auc}")
            if not auc >= MIN_BBBP_AUC:
                errors.append(f"dtree-bbbp: auc {auc} < {MIN_BBBP_AUC}")

    def figures(self, times):
        return {"split_s": times["split-bbbp"], "dtree_s": times["dtree-bbbp"]}


WORKLOADS = {w.name: w for w in (ScoreDistinct, ScoreGrouped, TrainSim,
                                 SplitForest)}
