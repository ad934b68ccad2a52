"""Dataset ingestion, scaffold splitting, forests, and metrics.

The interpretability pipeline: load a SMILES/label CSV, split it by
Bemis-Murcko scaffold so no scaffold spans two splits, featurize molecules
with implemented descriptors, train a small from-scratch random forest
(bootstrap + Gini, axis-aligned thresholds), and score it with rank-based
AUC. ``top_attributes`` ranks the attributes claimed across parsed
responses.
"""

from __future__ import annotations

import csv
from collections import Counter, deque
from dataclasses import asdict, dataclass, field

import numpy as np

from ._data import (BadRecord, DegenerateLabels, EmptyDataset, MissingColumn,
                    open_text)
from .descriptors import DescriptorId, compute, registry, resolve_attribute
from .molgraph import Molecule, SmilesError, parse_smiles, scaffold_key
from .response import CLASSIFICATION, REGRESSION, ParsedResponse

__all__ = [
    "MissingColumn",
    "EmptyDataset",
    "DegenerateLabels",
    "BadRecord",
    "CsvSchema",
    "DatasetRecord",
    "LoadResult",
    "load_csv",
    "scaffold_split",
    "featurize",
    "ForestConfig",
    "ForestModel",
    "train_forest",
    "predict_proba",
    "save_forest",
    "load_forest",
    "auc_score",
    "eval_auc",
    "top_attributes",
]


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CsvSchema:
    """Names the columns carrying structures and labels."""

    smiles_col: str = "smiles"
    label_col: str = "label"
    task: str = CLASSIFICATION

    def __post_init__(self) -> None:
        if self.task not in (CLASSIFICATION, REGRESSION):
            raise ValueError(f"unknown task {self.task!r}")


@dataclass(frozen=True)
class DatasetRecord:
    smiles: str
    label: bool | float
    molecule: Molecule = field(repr=False, compare=False)


@dataclass(frozen=True)
class LoadResult:
    """Parsed records plus the count of rows skipped as unparseable."""

    records: tuple[DatasetRecord, ...]
    skipped: int

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


def _parse_label(text: str, task: str, context: str) -> bool | float:
    stripped = text.strip().lower()
    if task == CLASSIFICATION:
        if stripped in ("true", "1"):
            return True
        if stripped in ("false", "0"):
            return False
        raise BadRecord(f"{context}: bad classification label {text!r}")
    try:
        value = float(stripped)
    except ValueError:
        raise BadRecord(f"{context}: bad regression label {text!r}") from None
    if not np.isfinite(value):
        raise BadRecord(f"{context}: non-finite regression label {text!r}")
    return value


def load_csv(path, schema: CsvSchema = CsvSchema()) -> LoadResult:
    """Load records, skipping (and counting) unparseable SMILES.

    A row missing its SMILES or label field, or carrying a bad label,
    raises :class:`BadRecord` naming ``file:line`` -- only chemistry
    failures are skippable. An entirely unusable file raises EmptyDataset.
    """
    records: list[DatasetRecord] = []
    skipped = 0
    with open_text(path, BadRecord, newline="") as fh:
        reader = csv.DictReader(fh)
        cols = set(reader.fieldnames or ())
        for needed in (schema.smiles_col, schema.label_col):
            if needed not in cols:
                raise MissingColumn(
                    f"{path}: column {needed!r} not in {sorted(cols)}"
                )
        for row in reader:
            # line_num counts the blank lines DictReader skips
            where = f"{path}:{reader.line_num}"
            smiles, label_text = row[schema.smiles_col], row[schema.label_col]
            # DictReader fills the fields a short row lacks with None
            if smiles is None or label_text is None:
                raise BadRecord(f"{where}: row is missing a field")
            smiles = smiles.strip()
            try:
                mol = parse_smiles(smiles)
            except SmilesError:
                skipped += 1
                continue
            label = _parse_label(label_text, schema.task, where)
            records.append(DatasetRecord(smiles, label, mol))
    if not records:
        raise EmptyDataset(f"{path}: no parseable records")
    return LoadResult(tuple(records), skipped)


# ---------------------------------------------------------------------------
# Scaffold split
# ---------------------------------------------------------------------------


def scaffold_split(
    records,
    fractions: tuple[float, float, float] = (0.8, 0.1, 0.1),
):
    """Deterministic greedy scaffold split into (train, valid, test).

    Records are grouped by scaffold key and groups are ordered largest
    first (ties by first record). Groups fill train until it reaches
    ``floor(f_train * n)`` records, then valid until the running total
    reaches ``floor((f_train + f_valid) * n)``, then test -- so no
    scaffold ever spans two splits, each split may overshoot its target
    by at most one scaffold group, and an indivisible single-scaffold
    dataset lands entirely in train. The assignment has no random
    choices.
    """
    records = list(records)
    if not records:
        raise EmptyDataset("cannot split zero records")
    if len(fractions) != 3:
        raise ValueError(f"need exactly three fractions, got {fractions}")
    # 0 <= f <= 1 is False for nan, so non-finite fractions fail here
    if not all(0 <= f <= 1 for f in fractions) or abs(sum(fractions) - 1) > 1e-9:
        raise ValueError(f"fractions must be finite, non-negative and sum "
                         f"to 1: {fractions}")
    groups: dict[str, list[int]] = {}
    for i, rec in enumerate(records):
        groups.setdefault(scaffold_key(rec.molecule), []).append(i)
    ordered = sorted(groups.values(), key=len, reverse=True)

    n = len(records)
    train_cutoff = int(fractions[0] * n)
    valid_cutoff = int((fractions[0] + fractions[1]) * n)
    train_idx: list[int] = []
    valid_idx: list[int] = []
    test_idx: list[int] = []
    for members in ordered:
        if len(train_idx) < train_cutoff:
            train_idx.extend(members)
        elif len(train_idx) + len(valid_idx) < valid_cutoff:
            valid_idx.extend(members)
        else:
            test_idx.extend(members)
    return tuple(
        [records[i] for i in sorted(part)]
        for part in (train_idx, valid_idx, test_idx)
    )


# ---------------------------------------------------------------------------
# Featurization
# ---------------------------------------------------------------------------


def _feature_ids(feature_ids) -> tuple[DescriptorId, ...]:
    """Each feature as a :class:`DescriptorId`, resolving names; a name
    that resolves to no descriptor raises ``KeyError`` naming it."""
    ids = []
    for d in feature_ids:
        ident = d if isinstance(d, DescriptorId) else resolve_attribute(str(d))
        if ident is None:
            raise KeyError(f"unknown descriptor {d!r}")
        ids.append(ident)
    return tuple(ids)


def featurize(records, feature_ids) -> np.ndarray:
    """Descriptor matrix, one row per record.

    Multi-component inputs (salts) are featurized on their largest
    component, the usual convention for property models.
    """
    ids = _feature_ids(feature_ids)
    X = np.empty((len(records), len(ids)), dtype=float)
    for i, rec in enumerate(records):
        mol = rec.molecule.largest_component()
        for j, d in enumerate(ids):
            X[i, j] = float(compute(mol, d))
    return X


# ---------------------------------------------------------------------------
# Random forest
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 200
    max_depth: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_trees < 1 or self.max_depth < 1:
            raise ValueError("n_trees and max_depth must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class Tree:
    """Array-encoded binary tree.

    ``feature[i] >= 0`` marks an internal node sending ``x[feature] <=
    threshold`` left; ``feature[i] == -1`` marks a leaf whose class-1
    probability is ``value[i]``.
    """

    feature: list[int]
    threshold: list[float]
    left: list[int]
    right: list[int]
    value: list[float]

    def predict(self, X: np.ndarray) -> np.ndarray:
        out = np.empty(len(X))
        for r, x in enumerate(X):
            node = 0
            while self.feature[node] >= 0:
                if x[self.feature[node]] <= self.threshold[node]:
                    node = self.left[node]
                else:
                    node = self.right[node]
            out[r] = self.value[node]
        return out


@dataclass
class ForestModel:
    trees: list[Tree]
    feature_ids: tuple[DescriptorId, ...]
    training_meta: dict

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.feature_ids)


def _best_splits(values, inv, y, nodes, feats):
    """Each node's best ``(feature, threshold)``, or ``(-1, nan)``.

    ``nodes`` holds each node's rows, ``feats`` its candidate features in
    draw order. Counts per (node, bin) are exact, so each Gini value is bit
    for bit a sorted scan's: the first minimum wins, and a later feature
    only by more than 1e-15.
    """
    ids = np.arange(len(nodes))
    sizes = np.array([len(r) for r in nodes])
    rows = np.concatenate(nodes)
    owner = np.repeat(ids, sizes)
    positive = y[rows] > 0
    total_pos = np.bincount(owner[positive], minlength=len(nodes))
    n_bins = values.shape[1]
    best_gini = np.full(len(nodes), np.inf)
    best_feat = np.full(len(nodes), -1)
    best_thr = np.full(len(nodes), np.nan)
    for f in feats.T:
        key = owner * n_bins + inv[f[owner], rows]
        count = np.bincount(key)
        pos = np.bincount(key[positive], minlength=count.size)
        nz = np.flatnonzero(count)
        node = nz // n_bins
        # a node's bins ascend in value; every node has at least one
        first = np.searchsorted(node, ids)
        n_left = np.cumsum(count[nz])
        pos_left = np.cumsum(pos[nz])
        n_left -= (n_left[first] - count[nz[first]])[node]
        pos_left -= (pos_left[first] - pos[nz[first]])[node]
        del count, pos
        n_right = sizes[node] - n_left
        pos_right = total_pos[node] - pos_left
        with np.errstate(divide="ignore", invalid="ignore"):
            p_l = pos_left / n_left
            p_r = pos_right / n_right
            gini = (n_left * (2 * p_l * (1 - p_l))
                    + n_right * (2 * p_r * (1 - p_r))) / (n_left + n_right)
        gini[n_right == 0] = np.inf  # no boundary after a node's last bin
        low = np.minimum.reduceat(gini, first)
        hit = np.flatnonzero(gini == low[node])
        better = low < best_gini - 1e-15
        at = hit[np.searchsorted(node[hit], ids[better])]
        best_gini[better] = low[better]
        best_feat[better] = f[better]
        fb, below, above = f[better], nz[at] % n_bins, nz[at + 1] % n_bins
        best_thr[better] = (values[fb, below] + values[fb, above]) / 2.0
    return zip(best_feat.tolist(), best_thr.tolist())


def train_forest(
    records, feature_ids, cfg: ForestConfig = ForestConfig()
) -> ForestModel:
    """Bootstrap random forest with Gini splits; deterministic per seed.

    Each tree draws its own RNG stream from the seed, samples the training
    set with replacement, and considers ``ceil(sqrt(d))`` random features
    per node. The trees grow in lockstep over per-forest feature bins: a
    step scores the next preorder node of every unfinished tree at once,
    by counting rows per distinct value. A tree makes its RNG draws in the
    same order as when grown alone, so the trees equal those of
    one-tree-at-a-time, depth-first growth.
    """
    records = list(records)
    y = np.array([1.0 if r.label else 0.0 for r in records])
    if len(set(y.tolist())) < 2:
        raise DegenerateLabels("training labels contain a single class")
    ids = _feature_ids(feature_ids)
    X = featurize(records, ids)
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite descriptor feature encountered")
    n, d = X.shape
    n_candidates = max(1, int(np.ceil(np.sqrt(d))))
    # bin b of feature f holds value values[f, b]: a row's bin is the first
    # sorted position of its value, so equal values share one bin
    values = np.sort(X, axis=0).T
    inv = np.array([np.searchsorted(v, x) for v, x in zip(values, X.T)])
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.n_trees)
    rngs = [np.random.default_rng(ss) for ss in streams]
    # each tree's nodes as [feature, threshold, left, right, value]
    grown = [[] for _ in rngs]
    # pending nodes as (rows of X, depth, parent); a left child is always
    # its parent's next node, so only a right child names its parent
    stacks = [[(rng.integers(0, n, size=n), 0, -1)] for rng in rngs]
    live = deque(range(cfg.n_trees))
    while live:
        # batches of about 2**14 rows bound the per-row arrays
        batch, n_rows = [], 0
        while live and n_rows < 1 << 14:
            batch.append(live.popleft())
            n_rows += len(stacks[batch[-1]][-1][0])
        popped = [stacks[t].pop() for t in batch]
        sizes = np.array([len(rows) for rows, _, _ in popped])
        labels = y[np.concatenate([rows for rows, _, _ in popped])]
        # 0/1 labels sum exactly, so each mean is bit for bit np.mean's
        means = np.add.reduceat(labels, np.cumsum(sizes) - sizes) / sizes
        open_nodes, feats = [], []
        for t, (rows, depth, parent), p in zip(batch, popped, means.tolist()):
            tree = grown[t]
            if parent >= 0:
                tree[parent][3] = len(tree)
            tree.append([-1, 0.0, -1, -1, p])
            if depth >= cfg.max_depth or p == 0.0 or p == 1.0 or len(rows) < 2:
                continue
            feats.append(rngs[t].choice(d, size=n_candidates, replace=False))
            open_nodes.append((t, len(tree) - 1, rows, depth))
        nodes = [rows for _, _, rows, _ in open_nodes]
        found = _best_splits(values, inv, y, nodes, np.array(feats)) if nodes else ()
        for (t, node, rows, depth), (f, thr) in zip(open_nodes, found):
            mask = X[rows, f] <= thr
            # a nan threshold (no split) or a float midpoint between
            # near-equal values leaves one side empty
            if not 0 < np.count_nonzero(mask) < len(rows):
                continue
            grown[t][node][:3] = f, thr, node + 1
            stacks[t].append((rows[~mask], depth + 1, node))
            stacks[t].append((rows[mask], depth + 1, -1))
        live.extend(t for t in batch if stacks[t])
    trees = [Tree(*map(list, zip(*tree))) for tree in grown]
    return ForestModel(trees, ids, asdict(cfg))


def predict_proba(model: ForestModel, X: np.ndarray) -> np.ndarray:
    """Class-1 probability: mean of per-tree leaf estimates."""
    votes = np.zeros(len(X))
    for tree in model.trees:
        votes += tree.predict(X)
    return votes / len(model.trees)


# ---------------------------------------------------------------------------
# Persistence: versioned plain-text dump
# ---------------------------------------------------------------------------

_DUMP_HEADER = "forest-dump v1"


def save_forest(model: ForestModel, fh) -> None:
    """Write the dump to the open text handle ``fh``."""
    lines = [_DUMP_HEADER]
    m = model.training_meta
    lines.append(f"meta {m['seed']} {m['n_trees']} {m['max_depth']}")
    lines.append("features " + " ".join(model.feature_names))
    for t, tree in enumerate(model.trees):
        lines.append(f"tree {t} {len(tree.feature)}")
        for i in range(len(tree.feature)):
            if tree.feature[i] < 0:
                lines.append(f"leaf {tree.value[i]!r}")
            else:
                lines.append(
                    f"split {tree.feature[i]} {tree.threshold[i]!r} "
                    f"{tree.left[i]} {tree.right[i]}"
                )
    fh.write("\n".join(lines) + "\n")


def load_forest(path) -> ForestModel:
    """Read a :func:`save_forest` dump; a malformed one raises ValueError
    naming ``path:line``."""
    with open_text(path, ValueError) as fh:
        lines = [ln.split() for ln in fh]
    if not lines or lines[0] != _DUMP_HEADER.split():
        raise ValueError(f"{path}: not a {_DUMP_HEADER!r} file")
    features = {d.name: d for d in registry() if d.implemented}
    trees: list[Tree] = []
    i = 1  # index of the line being read
    try:
        tag, seed, n_trees, max_depth = lines[1]
        if tag != "meta":
            raise ValueError
        meta = {"seed": int(seed), "n_trees": int(n_trees),
                "max_depth": int(max_depth)}
        i = 2
        tag, *names = lines[2]
        ids = tuple(features[name] for name in names)
        if tag != "features":
            raise ValueError
        i = 3
        while i < len(lines):
            tag, t, size = lines[i]
            size = int(size)
            if tag != "tree" or int(t) != len(trees) or size < 1:
                raise ValueError
            nodes = []
            for node, i in enumerate(range(i + 1, i + 1 + size)):
                if lines[i][0] == "leaf":
                    _, value = lines[i]
                    nodes.append((-1, 0.0, -1, -1, float(value)))
                    continue
                tag, f, thr, left, right = lines[i]
                f, left, right = int(f), int(left), int(right)
                # children follow their parent, so prediction terminates
                if not (tag == "split" and 0 <= f < len(ids)
                        and node < left < size and node < right < size):
                    raise ValueError
                nodes.append((f, float(thr), left, right, 0.0))
            trees.append(Tree(*map(list, zip(*nodes))))
            i += 1
        if len(trees) != meta["n_trees"]:
            i = 1
            raise ValueError
    except (IndexError, KeyError, ValueError):
        what = "unexpected end of file" if i >= len(lines) else "bad line"
        raise ValueError(f"{path}:{i + 1}: {what}") from None
    return ForestModel(trees, ids, meta)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of ``x``; tied values share their mean rank."""
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], x.size]
    ranks = np.empty(x.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def auc_score(scores, labels) -> float:
    """Rank-based (Mann-Whitney) AUC with tie averaging."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray([1 if v else 0 for v in labels])
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabels("AUC needs both classes present")
    ranks = _average_ranks(s)
    rank_sum = ranks[y == 1].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def eval_auc(model: ForestModel, records) -> float:
    records = list(records)
    X = featurize(records, model.feature_ids)
    return auc_score(predict_proba(model, X), [r.label for r in records])


def top_attributes(corpus, k: int = 10) -> list[DescriptorId]:
    """Most-claimed implemented descriptors across parsed responses.

    Every claim (with or without polarity) is resolved against the
    registry; unresolvable or unimplemented mentions are ignored. Ties
    break alphabetically on the canonical name.
    """
    counts: Counter[str] = Counter()
    for parsed in corpus:
        if not isinstance(parsed, ParsedResponse) or not parsed.claims:
            continue
        for claim in parsed.claims:
            ident = resolve_attribute(claim.raw_name)
            if ident is not None and ident.implemented:
                counts[ident.name] += 1
    by_registry = {d.name: d for d in registry()}
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [by_registry[name] for name, _ in ranked[:k]]
