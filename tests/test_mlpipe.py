"""CSV loading, scaffold splitting, forest training, and AUC scoring."""

import hashlib
import io
import itertools
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import attrilens
from attrilens import mlpipe
from attrilens._data import data_path
from attrilens.descriptors import registry
from attrilens.mlpipe import (
    CsvSchema,
    DatasetRecord,
    DegenerateLabels,
    EmptyDataset,
    ForestConfig,
    ForestModel,
    MissingColumn,
    Tree,
    auc_score,
    eval_auc,
    featurize,
    load_csv,
    load_forest,
    predict_proba,
    save_forest,
    scaffold_split,
    top_attributes,
    train_forest,
)
from attrilens.molgraph import parse_smiles, scaffold_key
from attrilens.response import parse_response, render_response


def _write_csv(path, rows, header="smiles,label"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return path


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------


def test_load_csv_happy_path(tmp_path):
    path = _write_csv(tmp_path / "d.csv",
                      ["CCO,True", "c1ccccc1,False", "CCN,1", "CCC,0"])
    out = load_csv(path)
    assert len(out) == 4
    assert out.skipped == 0
    assert [r.label for r in out.records] == [True, False, True, False]


def test_load_csv_skips_unparseable_smiles(tmp_path):
    path = _write_csv(tmp_path / "d.csv",
                      ["CCO,True", "C(C,False", "[Zz]zz,True", "CCC,False"])
    out = load_csv(path)
    assert len(out) == 2
    assert out.skipped == 2


def test_load_csv_missing_column(tmp_path):
    path = _write_csv(tmp_path / "d.csv", ["CCO,True"],
                      header="structure,label")
    with pytest.raises(MissingColumn):
        load_csv(path)


def test_load_csv_empty(tmp_path):
    path = _write_csv(tmp_path / "d.csv", ["C(C,True"])
    with pytest.raises(EmptyDataset):
        load_csv(path)


def test_load_csv_strict_labels(tmp_path):
    path = _write_csv(tmp_path / "d.csv", ["CCO,maybe"])
    with pytest.raises(ValueError):
        load_csv(path)


def test_load_csv_regression_labels(tmp_path):
    path = _write_csv(tmp_path / "d.csv", ["CCO,-1.25", "CCC,0.5"])
    out = load_csv(path, CsvSchema(task="regression"))
    assert [r.label for r in out.records] == [-1.25, 0.5]


def test_load_csv_custom_columns(tmp_path):
    path = _write_csv(tmp_path / "d.csv", ["CCO;ignored", ],
                      header="mol;p_np")
    # semicolon is not a CSV separator here; build a real custom-col file
    path.write_text("mol,p_np\nCCO,True\n")
    out = load_csv(path, CsvSchema(smiles_col="mol", label_col="p_np"))
    assert len(out) == 1


# ---------------------------------------------------------------------------
# scaffold split
# ---------------------------------------------------------------------------


def test_single_scaffold_dataset_all_in_train(tmp_path):
    rows = [f"{'C' * k}c1ccccc1,True" for k in range(1, 11)]
    out = load_csv(_write_csv(tmp_path / "d.csv", rows))
    train, valid, test = scaffold_split(out.records)
    assert len(train) == 10 and not valid and not test


def test_split_partitions_without_scaffold_leak():
    out = load_csv(data_path("bbbp_synthetic.csv"))
    train, valid, test = scaffold_split(out.records)
    assert len(train) + len(valid) + len(test) == len(out)
    ids = lambda part: {id(r) for r in part}
    assert not (ids(train) & ids(valid))
    assert not (ids(train) & ids(test))
    assert not (ids(valid) & ids(test))
    keys = lambda part: {scaffold_key(r.molecule) for r in part}
    assert not (keys(train) & keys(valid))
    assert not (keys(train) & keys(test))
    assert not (keys(valid) & keys(test))


def test_split_deterministic():
    out = load_csv(data_path("bbbp_synthetic.csv"))
    a = scaffold_split(out.records)
    b = scaffold_split(out.records)
    for part_a, part_b in zip(a, b):
        assert [r.smiles for r in part_a] == [r.smiles for r in part_b]


def test_split_respects_fractions(tmp_path):
    out = load_csv(data_path("bbbp_synthetic.csv"))
    train, valid, test = scaffold_split(out.records, (0.5, 0.25, 0.25))
    n = len(out)
    # groups are 4 records each, so phase cutoffs land exactly
    assert (len(train), len(valid), len(test)) == (n // 2, n // 4, n // 4)


@pytest.mark.parametrize("fractions", [(0.5, 0.5), (0.8, 0.1, 0.2),
                                       (-0.1, 0.6, 0.5),
                                       (0.8, 0.1, float("nan")),
                                       (0.8, float("nan"), 0.2),
                                       (0.8, 0.1, float("inf"))])
def test_split_validates_fractions(fractions, tmp_path):
    rows = ["CCO,True", "CCN,False"]
    out = load_csv(_write_csv(tmp_path / "d.csv", rows))
    with pytest.raises(ValueError, match=re.escape(str(fractions))):
        scaffold_split(out.records, fractions)


def test_split_does_not_depend_on_key_strings(monkeypatch):
    # every BBBP scaffold group has 4 records, so all group order is ties
    records = load_csv(data_path("bbbp_synthetic.csv")).records
    before = scaffold_split(records)
    monkeypatch.setattr(mlpipe, "scaffold_key", lambda mol: hashlib.blake2s(
        b"salt" + scaffold_key(mol).encode()).hexdigest())
    after = scaffold_split(records)
    for part_a, part_b in zip(before, after):
        assert [r.smiles for r in part_a] == [r.smiles for r in part_b]


def test_equal_size_groups_land_in_first_record_order(monkeypatch):
    # group g is a chain of g carbons; its key sorts in reverse of the
    # order in which the groups first appear
    layout = "ABCADBCDEEE"
    records = [DatasetRecord(f"{g}{i}", True, parse_smiles("C" * (ord(g) - 64)))
               for i, g in enumerate(layout)]
    monkeypatch.setattr(mlpipe, "scaffold_key",
                        lambda mol: "zyxwv"[mol.heavy_atom_count - 1])
    parts = scaffold_split(records, (0.5, 0.25, 0.25))
    assert ["".join(r.smiles[0] for r in part) for part in parts] == [
        "AAEEE", "BCBC", "DD"]


def test_split_preserves_input_order_within_parts(tmp_path):
    rows = ["Cc1ccccc1,True", "CCc1ccccc1,False", "Cc1ccncc1,True",
            "CCCC,False", "CCCCC,True", "C1CCCCC1,False"]
    out = load_csv(_write_csv(tmp_path / "d.csv", rows))
    train, valid, test = scaffold_split(out.records, (0.5, 0.25, 0.25))
    order = {r.smiles: i for i, r in enumerate(out.records)}
    for part in (train, valid, test):
        indices = [order[r.smiles] for r in part]
        assert indices == sorted(indices)


# ---------------------------------------------------------------------------
# featurization
# ---------------------------------------------------------------------------


def test_featurize_shape_and_values(tmp_path):
    out = load_csv(_write_csv(tmp_path / "d.csv", ["CCO,True", "CCC,False"]))
    X = featurize(out.records, ["MolWt", "NumHDonors"])
    assert X.shape == (2, 2)
    assert X[0, 0] == pytest.approx(46.069, abs=0.01)
    assert X[0, 1] == 1.0 and X[1, 1] == 0.0


def test_featurize_uses_largest_component(tmp_path):
    out = load_csv(_write_csv(tmp_path / "d.csv", ["CCO.O,True"]))
    X = featurize(out.records, ["HeavyAtomCount"])
    assert X[0, 0] == 3.0


def test_unknown_feature_is_named(tmp_path):
    records = _separable_records(tmp_path)
    for build in (featurize, train_forest):
        with pytest.raises(KeyError, match="'NotADescriptorAtAll'"):
            build(records, ["MolWt", "NotADescriptorAtAll"])


# ---------------------------------------------------------------------------
# forest
# ---------------------------------------------------------------------------


def _separable_records(tmp_path, n=30):
    # long alkanes heavy, short alcohols light: HeavyAtomCount separates
    rows = [f"{'C' * (10 + i % 5)},True" for i in range(n // 2)]
    rows += [f"{'C' * (1 + i % 3)}O,False" for i in range(n // 2)]
    return load_csv(_write_csv(tmp_path / "sep.csv", rows)).records


def test_forest_learns_separable_data(tmp_path):
    records = _separable_records(tmp_path)
    model = train_forest(records, ["MolWt", "HeavyAtomCount"],
                         ForestConfig(n_trees=20, max_depth=3, seed=1))
    assert eval_auc(model, records) == 1.0


def _noisy_records(tmp_path):
    # MolWt correlates with the label but flips keep it non-separable, so
    # the bootstrap draws actually matter
    rows = []
    for i in range(12):
        label = (i % 4 != 0)
        rows.append(f"{'C' * (8 + i)},{label}")
    for i in range(12):
        label = (i % 4 == 0)
        rows.append(f"{'C' * (1 + i % 4)}O,{label}")
    return load_csv(_write_csv(tmp_path / "noisy.csv", rows)).records


def test_forest_deterministic_per_seed(tmp_path):
    records = _noisy_records(tmp_path)
    cfg = ForestConfig(n_trees=10, max_depth=4, seed=7)
    a = train_forest(records, ["MolWt"], cfg)
    b = train_forest(records, ["MolWt"], cfg)
    X = featurize(records, ["MolWt"])
    assert np.array_equal(predict_proba(a, X), predict_proba(b, X))
    c = train_forest(records, ["MolWt"], ForestConfig(10, 4, seed=8))
    assert not np.array_equal(predict_proba(a, X), predict_proba(c, X))


def test_forest_rejects_single_class(tmp_path):
    out = load_csv(_write_csv(tmp_path / "d.csv", ["CCO,True", "CCC,True"]))
    with pytest.raises(DegenerateLabels):
        train_forest(out.records, ["MolWt"])


def test_forest_probabilities_bounded(tmp_path):
    records = _separable_records(tmp_path)
    model = train_forest(records, ["MolWt", "NumHDonors"],
                         ForestConfig(n_trees=15, max_depth=2, seed=3))
    proba = predict_proba(model, featurize(records, ["MolWt", "NumHDonors"]))
    assert np.all(proba >= 0.0) and np.all(proba <= 1.0)


def test_forest_save_load_roundtrip(tmp_path):
    records = _separable_records(tmp_path)
    model = train_forest(records, ["MolWt", "HeavyAtomCount"],
                         ForestConfig(n_trees=8, max_depth=3, seed=2))
    path = tmp_path / "model.txt"
    with open(path, "w") as fh:
        save_forest(model, fh)
    back = load_forest(path)
    X = featurize(records, ["MolWt", "HeavyAtomCount"])
    assert np.array_equal(predict_proba(model, X), predict_proba(back, X))
    assert back.feature_names == model.feature_names


@pytest.mark.parametrize("kwargs", [{"n_trees": 0}, {"max_depth": 0},
                                    {"seed": -1}])
def test_forest_config_validation(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        ForestConfig(**kwargs)


def test_load_forest_rejects_garbage(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("not a forest\n")
    with pytest.raises(ValueError):
        load_forest(path)


def _truncate_tree(lines):
    return lines[:-1], len(lines)


def _drop_meta(lines):
    return lines[:1] + lines[2:], 2


def _unknown_feature(lines):
    return lines[:2] + ["features MolWt NoSuchDescriptor"] + lines[3:], 3


def _child_out_of_range(lines):
    at = next(i for i, ln in enumerate(lines) if ln.startswith("split"))
    tag, f, thr, left, _ = lines[at].split()
    bad = f"{tag} {f} {thr} {left} 99"
    return lines[:at] + [bad] + lines[at + 1:], at + 1


def _tree_count_mismatch(lines):
    second = [i for i, ln in enumerate(lines) if ln.startswith("tree")][1]
    return lines[:second], 2


def _non_utf8_byte(lines):
    # "\udcff" is the byte 0xff under the surrogateescape error handler
    return lines[:3] + [lines[3] + " \udcff"] + lines[4:], 4


@pytest.mark.parametrize("corrupt", [
    _truncate_tree, _drop_meta, _unknown_feature, _child_out_of_range,
    _tree_count_mismatch, _non_utf8_byte,
], ids=lambda fn: fn.__name__.lstrip("_"))
def test_load_forest_rejects_malformed_dump_naming_line(tmp_path, corrupt):
    records = _separable_records(tmp_path)
    model = train_forest(records, ["MolWt", "HeavyAtomCount"],
                         ForestConfig(n_trees=2, max_depth=2, seed=2))
    buf = io.StringIO()
    save_forest(model, buf)
    lines, bad_line = corrupt(buf.getvalue().splitlines())
    path = tmp_path / "model.txt"
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8",
                                                       "surrogateescape"))
    with pytest.raises(ValueError, match=re.escape(f"{path}:{bad_line}:")):
        load_forest(path)


# ---------------------------------------------------------------------------
# lockstep growth against one-tree-at-a-time growth
# ---------------------------------------------------------------------------


def _ref_best_split(X, y, feat_candidates):
    """Best (feature, threshold, gini) over candidate features.

    Scans midpoints between consecutive distinct sorted values using
    prefix sums of positive counts; returns None when nothing splits.
    """
    n = len(y)
    total_pos = y.sum()
    best = None
    best_gini = None
    for f in feat_candidates:
        order = np.argsort(X[:, f], kind="stable")
        xs = X[order, f]
        ys = y[order]
        pos_prefix = np.cumsum(ys)
        # candidate boundaries: between i and i+1 where value changes
        change = np.nonzero(xs[1:] != xs[:-1])[0]
        if change.size == 0:
            continue
        n_left = change + 1
        n_right = n - n_left
        pos_left = pos_prefix[change]
        pos_right = total_pos - pos_left
        p_l = pos_left / n_left
        p_r = pos_right / n_right
        gini = (
            n_left * (2 * p_l * (1 - p_l))
            + n_right * (2 * p_r * (1 - p_r))
        ) / n
        k = int(np.argmin(gini))
        if best_gini is None or gini[k] < best_gini - 1e-15:
            best_gini = float(gini[k])
            thr = (xs[change[k]] + xs[change[k] + 1]) / 2.0
            best = (int(f), float(thr))
    if best is None:
        return None
    return best[0], best[1], best_gini


def _ref_grow_tree(X, y, max_depth, rng, n_candidates) -> Tree:
    """Recursive depth-first growth of one tree on its bootstrap sample."""
    tree = Tree([], [], [], [], [])

    def new_node():
        tree.feature.append(-1)
        tree.threshold.append(0.0)
        tree.left.append(-1)
        tree.right.append(-1)
        tree.value.append(0.0)
        return len(tree.feature) - 1

    def build(idx, depth):
        node = new_node()
        ys = y[idx]
        p = ys.mean()
        tree.value[node] = float(p)
        if depth >= max_depth or p == 0.0 or p == 1.0 or len(idx) < 2:
            return node
        feats = rng.choice(X.shape[1], size=n_candidates, replace=False)
        found = _ref_best_split(X[idx], ys, feats)
        if found is None:
            return node
        f, thr, _ = found
        mask = X[idx, f] <= thr
        # float midpoints between near-equal values can collapse one side
        if mask.all() or not mask.any():
            return node
        left = build(idx[mask], depth + 1)
        right = build(idx[~mask], depth + 1)
        tree.feature[node] = f
        tree.threshold[node] = thr
        tree.left[node] = left
        tree.right[node] = right
        return node

    build(np.arange(len(y)), 0)
    return tree


def _ref_forest(X, y, feature_ids, cfg):
    """The forest grown one tree at a time, each from its own stream."""
    n_candidates = max(1, int(np.ceil(np.sqrt(X.shape[1]))))
    trees = []
    n = len(y)
    for ss in np.random.SeedSequence(cfg.seed).spawn(cfg.n_trees):
        rng = np.random.default_rng(ss)
        boot = rng.integers(0, n, size=n)
        trees.append(
            _ref_grow_tree(X[boot], y[boot], cfg.max_depth, rng, n_candidates)
        )
    meta = {"seed": cfg.seed, "n_trees": cfg.n_trees,
            "max_depth": cfg.max_depth}
    return ForestModel(trees, tuple(feature_ids), meta)


@st.composite
def _forest_problems(draw):
    """A feature matrix and two-class labels that stress split ties."""
    n = draw(st.integers(min_value=2, max_value=60))
    finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
    columns = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        # a small pool of values repeats in the column; a pool of one makes
        # it constant, and nextafter neighbours give collapsing midpoints
        pool = [draw(finite)]
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            pool.append(float(np.nextafter(pool[-1], np.inf)))
        pool += draw(st.lists(finite, max_size=4))
        columns.append(draw(st.lists(st.sampled_from(pool), min_size=n,
                                     max_size=n)))
    labels = draw(st.lists(st.booleans(), min_size=n, max_size=n).filter(
        lambda ls: any(ls) and not all(ls)))
    return np.array(columns).T, labels


@settings(max_examples=200, deadline=None)
# at this root the two features' best Gini values differ by less than
# 1e-15, so the tolerance keeps the first feature's split
@example(problem=(np.array([[2, 2], [0, 0], [0, 1], [2, 2], [0, 2], [2, 0],
                            [1, 2], [1, 1]], dtype=float),
                  [True, False, True, False, False, False, False, False]),
         max_depth=1, n_trees=1, seed=546)
@given(problem=_forest_problems(),
       max_depth=st.integers(min_value=1, max_value=8),
       n_trees=st.integers(min_value=1, max_value=6),
       seed=st.integers(min_value=0, max_value=2**128))
def test_lockstep_forest_dumps_like_one_tree_at_a_time(problem, max_depth,
                                                       n_trees, seed):
    X, labels = problem
    mol = parse_smiles("C")
    records = [DatasetRecord(str(i), lab, mol) for i, lab in enumerate(labels)]
    names = [d.name for d in registry() if d.implemented][:X.shape[1]]
    cfg = ForestConfig(n_trees=n_trees, max_depth=max_depth, seed=seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mlpipe, "featurize", lambda recs, ids: X)
        model = train_forest(records, names, cfg)
    y = np.array([1.0 if lab else 0.0 for lab in labels])
    reference = _ref_forest(X, y, model.feature_ids, cfg)
    got, want = io.StringIO(), io.StringIO()
    save_forest(model, got)
    save_forest(reference, want)
    assert got.getvalue() == want.getvalue()


# ---------------------------------------------------------------------------
# AUC
# ---------------------------------------------------------------------------


def test_auc_hand_case():
    # positives at ranks 3,4 of 4 -> 3/4 of positive-negative pairs won...
    # scores: n=0.1, p=0.4, n=0.3, p=0.2 -> pairs won: (0.4>0.1, 0.4>0.3,
    # 0.2>0.1) = 3 of 4
    assert auc_score([0.1, 0.4, 0.3, 0.2],
                     [False, True, False, True]) == pytest.approx(0.75)


def test_auc_perfect_and_inverted():
    labels = [False, False, True, True]
    assert auc_score([0.1, 0.2, 0.8, 0.9], labels) == 1.0
    assert auc_score([0.9, 0.8, 0.2, 0.1], labels) == 0.0


def test_auc_ties_average():
    assert auc_score([0.5, 0.5, 0.5, 0.5],
                     [False, True, False, True]) == pytest.approx(0.5)


def test_auc_needs_both_classes():
    with pytest.raises(ValueError):
        auc_score([0.1, 0.2], [True, True])


@settings(max_examples=150, deadline=None)
@given(
    scores=st.lists(
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        min_size=4,
        max_size=30,
    ),
    labels=st.data(),
)
def test_auc_invariant_under_monotone_transform(scores, labels):
    n = len(scores)
    lab = labels.draw(
        st.lists(st.booleans(), min_size=n, max_size=n).filter(
            lambda ls: any(ls) and not all(ls)
        )
    )
    base = auc_score(scores, lab)
    # Slope 1 on [-1, 1] and 8 outside: every product by 8 is exact, so
    # the map is strictly increasing on float64 itself, not only on the
    # reals (tanh(s/50) sends 100 and 99.99999999999999 to one float).
    mapped = [8.0 * s if abs(s) > 1.0 else s for s in scores]
    for (a, fa), (b, fb) in itertools.combinations(zip(scores, mapped), 2):
        assert np.sign(fa - fb) == np.sign(a - b)
    assert base == pytest.approx(auc_score(mapped, lab), abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.integers(min_value=-3, max_value=3), st.booleans()),
        min_size=2,
        max_size=40,
    ).filter(lambda ps: len({y for _, y in ps}) == 2)
)
def test_auc_equals_pairwise_count(pairs):
    # Seven score values over up to 40 records: most draws hold ties.
    pos = [s for s, y in pairs if y]
    neg = [s for s, y in pairs if not y]
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0
               for p in pos for n in neg)
    scores = [float(s) for s, _ in pairs]
    labels = [y for _, y in pairs]
    assert auc_score(scores, labels) == wins / (len(pos) * len(neg))


def test_import_does_not_load_scipy():
    src = str(Path(attrilens.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import attrilens; "
            "print('scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, src], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


_REWARD_PATH_RUN = """
import io, sys
sys.path.insert(0, sys.argv[1])
from contextlib import redirect_stdout
import attrilens, attrilens.cli as cli
with redirect_stdout(io.StringIO()):
    codes = [cli.main(["score", sys.argv[2], "--format", "plain"]),
             cli.main(["descriptors", "CCO"])]
print(codes, "numpy" in sys.modules)
with redirect_stdout(io.StringIO()):
    code = cli.main(["train-sim", "--steps", "1", "--out", sys.argv[3]])
print(code, "numpy" in sys.modules)
"""


def test_reward_path_does_not_load_numpy(tmp_path):
    """``score`` and ``descriptors`` run without numpy; ``train-sim`` in
    the same interpreter loads it on first use."""
    src = str(Path(attrilens.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _REWARD_PATH_RUN, src,
         str(data_path("case_studies.jsonl")), str(tmp_path / "c.csv")],
        capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[0, 0] False", "0 True"]


# ---------------------------------------------------------------------------
# attribute tallies
# ---------------------------------------------------------------------------


def test_top_attributes_counts_and_ties():
    corpus = [
        parse_response(render_response("t", claims, True))
        for claims in (
            [("LogP", "promotes"), ("TPSA", "inhibits")],
            [("LogP", None), ("Nonsense Attr Xyz", "promotes")],
            [("TPSA", "promotes"), ("MolWt", None)],
            [("LogP", "inhibits")],
        )
    ]
    top = top_attributes(corpus, k=3)
    assert [d.name for d in top] == ["MolLogP", "TPSA", "MolWt"]
