"""End-to-end command-line behavior: outputs, manifests, exit codes."""

import csv
import json
import os
import warnings
from collections import Counter

import pytest

import attrilens
from attrilens import cli, descriptors
from attrilens._data import data_path
from attrilens.cli import main
from attrilens.molgraph import parse_smiles
from attrilens.response import parse_response, render_response
from attrilens.rewards import load_range_table, total_reward


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------


def test_score_fixture_corpus_json(capsys):
    code, out, _ = run(capsys, "score", str(data_path("case_studies.jsonl")))
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    rows = [l for l in lines if "summary" not in l]
    summary = lines[-1]["summary"]
    assert len(rows) == 12
    by_id = {r["id"]: r for r in rows}
    assert by_id["bbbp-tuned"]["total"] == 4.0
    assert by_id["tox-base"]["total"] == -3.0
    assert by_id["bace-r1"]["rational"] == pytest.approx(2 / 3)
    assert summary["n"] == 12
    assert summary["format"] == pytest.approx(0.25)


def test_score_json_layout(capsys):
    """Row and summary keys, in order: the layout readers of the JSON see."""
    code, out, _ = run(capsys, "score", str(data_path("case_studies.jsonl")))
    assert code == 0
    *rows, summary = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == 12
    for row in rows:
        assert list(row) == ["id", "format", "correct", "count", "rational",
                             "total", "n_att", "verified", "matched"]
    assert list(summary) == ["summary"]
    assert list(summary["summary"]) == ["n", "format", "correct", "count",
                                        "rational", "total"]


def test_score_both_tables_agree(capsys):
    corpus = str(data_path("case_studies.jsonl"))
    _, out_a, _ = run(capsys, "score", corpus, "--table", "gpt4o-default")
    _, out_b, _ = run(capsys, "score", corpus, "--table", "r1-default")
    totals = lambda out: [
        json.loads(l).get("total") for l in out.strip().splitlines()
        if "summary" not in l
    ]
    assert totals(out_a) == totals(out_b)


def test_score_writes_output_and_manifest(capsys, tmp_path):
    out_file = tmp_path / "scores.jsonl"
    code, _, _ = run(
        capsys, "score", str(data_path("case_studies.jsonl")),
        "--out", str(out_file),
    )
    assert code == 0
    assert out_file.exists()
    umask = os.umask(0)
    os.umask(umask)
    for path in tmp_path.iterdir():
        assert path.stat().st_mode & 0o777 == 0o666 & ~umask, path
    manifest = json.loads((tmp_path / "scores.jsonl.manifest.json").read_text())
    assert manifest["command"] == "score"
    assert manifest["outputs"] == [str(out_file)]
    assert manifest["version"]


def test_score_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "score", "/no/such/corpus.jsonl")
    assert code == 2 and "error" in err


def test_score_malformed_json_names_line(capsys, tmp_path):
    corpus = tmp_path / "c.jsonl"
    corpus.write_text('{"ok": 1}\nnot json\n')
    code, _, err = run(capsys, "score", str(corpus))
    assert code == 2
    assert ":2:" in err


def test_score_empty_corpus_exit_2(capsys, tmp_path):
    corpus = tmp_path / "c.jsonl"
    corpus.write_text("\n\n")
    code, _, err = run(capsys, "score", str(corpus))
    assert code == 2 and "EmptyDataset" in err


_GOOD_RECORD = {
    "id": "x", "smiles": "CCO", "task": "classification",
    "target": "BBBP", "label": True,
    "response_text": "<think> t </think>\n<name> MolWt: promotes "
                     "</name>\n<answer> True </answer>",
}


@pytest.mark.parametrize(
    "override",
    [
        {"task": "foo"},
        {"target": None},
        {"target": ""},
        {"response_text": None},
        {"label": "true"},
        {"task": "regression", "label": True},
        {"task": "regression", "label": "1.5"},
    ],
    ids=["task-unknown", "target-null", "target-empty", "response-null",
         "classification-label-str", "regression-label-bool",
         "regression-label-str"],
)
def test_score_bad_record_exit_2_names_line(capsys, tmp_path, override):
    corpus = tmp_path / "c.jsonl"
    corpus.write_text(json.dumps(_GOOD_RECORD) + "\n"
                      + json.dumps({**_GOOD_RECORD, **override}) + "\n")
    out_file = tmp_path / "scores.jsonl"
    code, _, err = run(capsys, "score", str(corpus), "--out", str(out_file))
    assert code == 2
    assert f"{corpus}:2:" in err
    assert not out_file.exists()


def test_score_target_missing_from_table_exit_3_before_any_row(capsys,
                                                              tmp_path):
    corpus = tmp_path / "c.jsonl"
    corpus.write_text(json.dumps(_GOOD_RECORD) + "\n"
                      + json.dumps({**_GOOD_RECORD, "target": "FOO"}) + "\n")
    for fmt in ("json", "plain"):
        code, out, err = run(capsys, "score", str(corpus), "--format", fmt)
        assert code == 3
        assert out == ""
        assert f"{corpus}:2:" in err and "'FOO'" in err


def test_score_bad_smiles_prints_no_earlier_row(capsys, tmp_path):
    corpus = tmp_path / "c.jsonl"
    corpus.write_text(json.dumps(_GOOD_RECORD) + "\n"
                      + json.dumps({**_GOOD_RECORD, "smiles": "C(C"}) + "\n")
    for fmt in ("json", "plain"):
        code, out, err = run(capsys, "score", str(corpus), "--format", fmt)
        assert code == 2
        assert out == ""
        assert f"{corpus}:2: bad SMILES" in err


@pytest.mark.parametrize("label", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400],
                         ids=["nan", "inf", "-inf", "int-past-float-range"])
def test_score_non_finite_regression_label_exit_2(capsys, tmp_path, label):
    record = json.dumps({**_GOOD_RECORD, "task": "regression", "label": 1.5})
    corpus = tmp_path / "c.jsonl"
    corpus.write_text(record + "\n" + record.replace("1.5", label) + "\n")
    code, _, err = run(capsys, "score", str(corpus))
    assert code == 2
    assert f"{corpus}:2: regression label must be a finite number" in err


def test_score_unknown_table_exit_3(capsys):
    code, _, _ = run(
        capsys, "score", str(data_path("case_studies.jsonl")),
        "--table", "/missing/table.tsv",
    )
    assert code == 3


def test_score_bad_table_line_names_the_path(capsys, tmp_path):
    table = tmp_path / "short.tsv"
    table.write_text("BBBP\tMolWt\n")
    code, _, err = run(
        capsys, "score", str(data_path("case_studies.jsonl")),
        "--table", str(table),
    )
    assert code == 3
    assert f"{table}:1: expected 3 tab-separated fields, got 2" in err


def test_score_target_not_in_table_exit_3(capsys, tmp_path):
    corpus = tmp_path / "c.jsonl"
    corpus.write_text(json.dumps({
        "id": "x", "smiles": "CCO", "task": "classification",
        "target": "SIDER", "label": True,
        "response_text": "<think> t </think>\n<name> MolWt: promotes "
                         "</name>\n<answer> True </answer>",
    }) + "\n")
    code, _, _ = run(capsys, "score", str(corpus))
    assert code == 3


def test_score_bad_count_bounds_exit_3(capsys):
    code, _, _ = run(
        capsys, "score", str(data_path("case_studies.jsonl")),
        "--count-bounds", "banana",
    )
    assert code == 3


def test_score_non_string_id_exit_2(capsys, tmp_path):
    corpus = tmp_path / "c.jsonl"
    corpus.write_text(json.dumps(_GOOD_RECORD) + "\n"
                      + json.dumps({**_GOOD_RECORD, "id": 5}) + "\n")
    for fmt in ("json", "plain"):
        code, _, err = run(capsys, "score", str(corpus), "--format", fmt)
        assert code == 2
        assert f"{corpus}:2:" in err and "id" in err


@pytest.mark.parametrize(
    "override, exit_code",
    [({"smiles": "C(C"}, 2), ({"target": "SIDER"}, 3)],
    ids=["bad-smiles", "target-not-in-table"],
)
def test_score_failure_leaves_out_untouched(capsys, tmp_path, override,
                                            exit_code):
    corpus = tmp_path / "c.jsonl"
    corpus.write_text(json.dumps(_GOOD_RECORD) + "\n"
                      + json.dumps({**_GOOD_RECORD, **override}) + "\n")
    out_file = tmp_path / "scores.jsonl"
    code, _, _ = run(capsys, "score", str(corpus), "--out", str(out_file))
    assert code == exit_code
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.jsonl"]
    out_file.write_text("earlier scores\n")
    code, _, _ = run(capsys, "score", str(corpus), "--out", str(out_file))
    assert code == exit_code
    assert out_file.read_text() == "earlier scores\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.jsonl",
                                                          "scores.jsonl"]


_MEMO_RESPONSES = [
    "<think> t </think>\n<name> MolLogP: promotes, TPSA: inhibits, "
    "MolWt: inhibits </name>\n<answer> True </answer>",
    "<think> t </think>\n<name> LogP: inhibits, HBD: promotes, "
    "RingCount: promotes, Mol Weight: promotes </name>\n<answer> False "
    "</answer>",
    "<think> t </think>\n<name> TPSA: promotes, NumHAcceptors: inhibits, "
    "FractionCSP3: promotes </name>\n<answer> True </answer>",
]


def _bbbp_smiles(n):
    with open(data_path("bbbp_synthetic.csv")) as fh:
        distinct = list(dict.fromkeys(r["smiles"] for r in csv.DictReader(fh)))
    return distinct[:n]


def _memo_corpus(tmp_path, smiles_order):
    records = [
        {"id": f"r{i}", "smiles": smi, "task": "classification",
         "target": "BBBP", "label": i % 3 == 0,
         "response_text": _MEMO_RESPONSES[i % len(_MEMO_RESPONSES)]}
        for i, smi in enumerate(smiles_order)
    ]
    corpus = tmp_path / "c.jsonl"
    corpus.write_text("".join(json.dumps(r) + "\n" for r in records))
    return corpus, records


def test_score_memo_rows_equal_fresh_parses(capsys, tmp_path):
    smiles = _bbbp_smiles(74)
    order = ([smiles[0]] * 4 + [smiles[1]] * 4           # adjacent groups
             + [smiles[2], smiles[3]] * 3 + [smiles[0]]  # interleaved
             + smiles[4:]                                # past the memo bound
             + [smiles[0], smiles[2], smiles[2]])        # evicted, then again
    corpus, records = _memo_corpus(tmp_path, order)
    code, out, _ = run(capsys, "score", str(corpus))
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()][:-1]
    table = load_range_table("gpt4o-default")
    expected = []
    for rec in records:
        bd = total_reward(
            parse_response(rec["response_text"], task=rec["task"]),
            parse_smiles(rec["smiles"]), rec["label"], rec["target"], table,
            count_bounds=(3, 10), task=rec["task"],
        )
        expected.append({
            "id": rec["id"], "format": bd.format, "correct": bd.correct,
            "count": bd.count, "rational": bd.rational, "total": bd.total,
            "n_att": bd.n_att, "verified": bd.verified, "matched": bd.matched,
        })
    assert rows == expected


def test_score_parses_each_adjacent_group_once_per_call(capsys, tmp_path,
                                                        monkeypatch):
    smiles = _bbbp_smiles(5)
    corpus, _ = _memo_corpus(tmp_path, [s for s in smiles for _ in range(8)])
    calls = Counter()
    real = cli.parse_smiles

    def counting(text):
        calls[text] += 1
        return real(text)

    monkeypatch.setattr(cli, "parse_smiles", counting)
    assert run(capsys, "score", str(corpus))[0] == 0
    assert calls == Counter({s: 1 for s in smiles})
    assert run(capsys, "score", str(corpus))[0] == 0
    assert calls == Counter({s: 2 for s in smiles})


def test_score_resolves_and_computes_at_most_once_per_claim(capsys, tmp_path,
                                                          monkeypatch):
    # a grouped corpus: each case study four times in a row, then once
    # with a response that holds a claim of every kind; the traced score
    # path's time grows with these call counts
    with open(data_path("case_studies.jsonl")) as fh:
        cases = [json.loads(line) for line in fh if line.strip()]
    mixed = render_response("t", [
        ("MolWt", "promotes"), ("Molecular Wieght", "inhibits"),
        ("LogP", None), ("Quantum Vibes", "promotes"),
        ("Molar Refractivity", "inhibits"), ("HBA", "promotes")], True)
    records = [{**rec, "id": f"{rec['id']}-{i}"}
               for rec in cases for i in range(4)]
    records += [{**rec, "id": f"{rec['id']}-mixed", "response_text": mixed}
                for rec in cases]
    corpus = tmp_path / "c.jsonl"
    corpus.write_text("".join(json.dumps(r) + "\n" for r in records))
    calls = Counter()

    def counting(name):
        real = getattr(descriptors, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)
        return counted

    for name in ("resolve_attribute", "compute"):
        monkeypatch.setattr(descriptors, name, counting(name))
    code, out, _ = run(capsys, "score", str(corpus))
    assert code == 0
    verified = sum(json.loads(line).get("verified", 0)
                   for line in out.splitlines())
    polar = sum(claim.polarity is not None for rec in records
                for claim in parse_response(rec["response_text"]).claims
                or ())
    assert 0 < verified < polar
    assert 0 < calls["resolve_attribute"] <= polar
    assert 0 < calls["compute"] <= verified


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------


def test_descriptors_plain(capsys):
    code, out, _ = run(capsys, "descriptors", "O", "--ids", "Molecular Weight")
    assert code == 0
    assert "MolWt" in out and "18.015" in out


def test_descriptors_json_all(capsys):
    code, out, _ = run(capsys, "descriptors", "c1ccccc1", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["values"]["TPSA"] == 0.0
    assert len(rows[0]["values"]) == 14


def test_descriptors_unknown_id_exit_2(capsys):
    code, _, _ = run(capsys, "descriptors", "CCO", "--ids", "Voodoo")
    assert code == 2


def test_descriptors_unimplemented_id_exit_2(capsys):
    code, _, err = run(capsys, "descriptors", "CCO", "--ids",
                       "Molar Refractivity")
    assert code == 2


def test_descriptors_bad_smiles_exit_2(capsys):
    code, _, _ = run(capsys, "descriptors", "C(C")
    assert code == 2


# str.isdigit holds for these characters; SMILES digits are ASCII only.
_NON_ASCII_DIGIT_SMILES = ["[²C]", "[CH²]", "[C+²]", "C²CC²", "C١CC١",
                           "C%²²CC%²²"]


@pytest.mark.parametrize("smiles", _NON_ASCII_DIGIT_SMILES)
def test_descriptors_non_ascii_digit_exit_2(capsys, smiles):
    code, out, err = run(capsys, "descriptors", smiles)
    assert code == 2
    assert out == ""
    assert f"bad SMILES {smiles!r}" in err


@pytest.mark.parametrize("smiles", _NON_ASCII_DIGIT_SMILES)
def test_score_non_ascii_digit_names_line(capsys, tmp_path, smiles):
    corpus = tmp_path / "c.jsonl"
    corpus.write_text(json.dumps(_GOOD_RECORD) + "\n"
                      + json.dumps({**_GOOD_RECORD, "smiles": smiles}) + "\n")
    code, out, err = run(capsys, "score", str(corpus))
    assert code == 2
    assert out == ""
    assert f"{corpus}:2: bad SMILES" in err


def test_split_skips_and_counts_non_ascii_digit_rows(capsys, tmp_path):
    rows = [f"{smiles},{k % 2}" for k, smiles in enumerate(
        ["c1ccccc1CCO", "C1CCCCC1N", "c1ccncc1C", "C1CCC1CO", "CCO",
         "c1ccsc1CC"] + _NON_ASCII_DIGIT_SMILES)]
    data = tmp_path / "d.csv"
    data.write_text("smiles,label\n" + "\n".join(rows) + "\n")
    code, out, _ = run(capsys, "split", str(data), "--outdir", str(tmp_path),
                       "--format", "json")
    assert code == 0
    result = json.loads(out)
    assert result["skipped"] == len(_NON_ASCII_DIGIT_SMILES)
    assert sum(result["sizes"]) == 6


def test_descriptors_duplicate_ring_bond_exit_2(capsys):
    code, out, err = run(capsys, "descriptors", "C1C1")
    assert code == 2
    assert out == ""
    assert "duplicates the bond" in err


# ---------------------------------------------------------------------------
# train-sim
# ---------------------------------------------------------------------------


def test_train_sim_writes_curves(capsys, tmp_path):
    out = tmp_path / "curves.csv"
    code, _, _ = run(capsys, "train-sim", "--steps", "3",
                     "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 4
    manifest = json.loads((tmp_path / "curves.csv.manifest.json").read_text())
    assert manifest["seed"] == 0
    assert manifest["config"]["steps"] == 3


def test_train_sim_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, "train-sim", "--steps", "3", "--seed", "5", "--out", str(a))
    run(capsys, "train-sim", "--steps", "3", "--seed", "5", "--out", str(b))
    assert a.read_text() == b.read_text()


def test_train_sim_config_file_flags_override(capsys, tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("steps=9\nalgorithm=dapo\n")
    out = tmp_path / "c.csv"
    code, _, _ = run(capsys, "train-sim", "--config", str(cfg),
                     "--steps", "2", "--out", str(out))
    assert code == 0
    manifest = json.loads((tmp_path / "c.csv.manifest.json").read_text())
    assert manifest["config"]["steps"] == 2
    assert manifest["config"]["algorithm"] == "dapo"


def test_train_sim_bad_config_line_exit_3(capsys, tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("bogus=1\n")
    code, _, _ = run(capsys, "train-sim", "--config", str(cfg))
    assert code == 3


@pytest.mark.parametrize("line", ["steps=abc", "temperature=warm",
                                  "count_bounds=5,3"])
def test_train_sim_bad_config_value_names_line(capsys, tmp_path, line):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(f"# sim\nseed=1\n{line}\n")
    code, _, err = run(capsys, "train-sim", "--config", str(cfg))
    assert code == 3
    assert f"{cfg}:3:" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_train_sim_overflowing_temperature_exit_3(capsys, tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("temperature=1e-320\nsteps=3\n")
    code, _, err = run(capsys, "train-sim", "--config", str(cfg),
                       "--out", str(tmp_path / "c.csv"))
    assert code == 3
    assert "temperature" in err


def test_train_sim_overflowing_table_is_one_error_line(capsys, tmp_path):
    # 1/1e-300 is finite, so the config passes; the first policy table's
    # logit/T overflows and must be reported without a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, "train-sim", "--steps", "2",
                           "--temperature", "1e-300",
                           "--out", str(tmp_path / "c.csv"))
    assert code == 3
    assert len(err.splitlines()) == 1
    assert err.startswith("error: policy probabilities must be finite")


def test_train_sim_bad_steps_exit_3(capsys, tmp_path):
    code, _, _ = run(capsys, "train-sim", "--steps", "0",
                     "--out", str(tmp_path / "c.csv"))
    assert code == 3


@pytest.mark.parametrize("spelling", ["flag", "config"])
def test_train_sim_negative_seed_exit_3(capsys, tmp_path, spelling):
    out = tmp_path / "c.csv"
    argv = ["train-sim", "--steps", "1", "--out", str(out)]
    if spelling == "flag":
        argv += ["--seed", "-1"]
    else:
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("seed=-1\n")
        argv += ["--config", str(cfg)]
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert "seed" in err and "-1" in err
    assert not out.exists()


def test_train_sim_missing_dataset_exit_2(capsys, tmp_path):
    code, _, _ = run(capsys, "train-sim", "--dataset", "/no/such.csv",
                     "--out", str(tmp_path / "c.csv"))
    assert code == 2


def test_train_sim_unwritable_out_fails_before_training(capsys, tmp_path,
                                                       monkeypatch):
    calls = []
    monkeypatch.setattr(attrilens.policysim, "train",
                        lambda *a, **k: calls.append(a))
    code, _, _ = run(capsys, "train-sim", "--steps", "1000",
                     "--out", str(tmp_path / "no_such_dir" / "c.csv"))
    assert code == 2
    assert calls == []
    assert list(tmp_path.iterdir()) == []


def test_train_sim_failure_leaves_out_untouched(capsys, tmp_path):
    out = tmp_path / "c.csv"
    out.write_text("earlier curves\n")
    code, _, _ = run(capsys, "train-sim", "--steps", "1",
                     "--table", str(tmp_path / "no_such_table.tsv"),
                     "--out", str(out))
    assert code == 3
    assert out.read_text() == "earlier curves\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.csv"]


def test_train_sim_short_dataset_row_names_line(capsys, tmp_path):
    data = tmp_path / "sim.csv"
    data.write_text("smiles,target,task,label\n"
                    "CCO,BBBP,classification,True\n\n"
                    "CCN,BBBP,classification\n")
    code, _, err = run(capsys, "train-sim", "--dataset", str(data),
                       "--steps", "1", "--out", str(tmp_path / "c.csv"))
    assert code == 3
    assert f"{data}:4:" in err


def test_train_sim_target_missing_from_table_names_row(capsys, tmp_path,
                                                     monkeypatch):
    data = tmp_path / "sim.csv"
    data.write_text("smiles,target,task,label\n"
                    "CCO,BBBP,classification,True\n"
                    "CCN,ESOL,classification,False\n")
    steps = []
    monkeypatch.setattr(attrilens.policysim, "_train_step",
                        lambda *a: steps.append(a))
    code, _, err = run(capsys, "train-sim", "--dataset", str(data),
                       "--steps", "1", "--out", str(tmp_path / "c.csv"))
    assert code == 3
    assert f"{data}: row 2: range table " in err
    assert "has no entries for target 'ESOL'" in err
    assert steps == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sim.csv"]


# ---------------------------------------------------------------------------
# split
# ---------------------------------------------------------------------------


def test_split_bundled_bace(capsys, tmp_path):
    code, out, _ = run(
        capsys, "split", str(data_path("bace_synthetic.csv")),
        "--outdir", str(tmp_path), "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["sizes"] == [1210, 151, 152]
    for name in ("train", "valid", "test"):
        assert (tmp_path / f"{name}.csv").exists()
    manifest = json.loads((tmp_path / "train.csv.manifest.json").read_text())
    assert len(manifest["outputs"]) == 3


def test_split_missing_column_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("structure,label\nCCO,True\n")
    code, _, _ = run(capsys, "split", str(bad), "--outdir", str(tmp_path))
    assert code == 2


@pytest.mark.parametrize("command,out_flag",
                         [("split", "--outdir"), ("dtree", "--out")])
@pytest.mark.parametrize("row", ["CCN", "CCN,maybe"],
                         ids=["short-row", "bad-label"])
def test_csv_bad_row_exit_2_names_line(capsys, tmp_path, command, out_flag,
                                       row):
    bad = tmp_path / "bad.csv"
    # the blank line counts: the message names the row's line in the file
    bad.write_text(f"smiles,label\nCCO,1\n\n{row}\n")
    code, _, err = run(capsys, command, str(bad),
                       out_flag, str(tmp_path / "out"))
    assert code == 2
    assert f"{bad}:4:" in err


def test_split_bad_fractions_exit_3(capsys, tmp_path):
    code, _, _ = run(
        capsys, "split", str(data_path("bbbp_synthetic.csv")),
        "--fractions", "0.5,0.5", "--outdir", str(tmp_path),
    )
    assert code == 3
    # nan compares False with everything, so a sum check alone lets it by
    for bad in ("0.8,0.1,nan", "0.8,nan,0.2"):
        code, _, err = run(
            capsys, "split", str(data_path("bbbp_synthetic.csv")),
            "--fractions", bad, "--outdir", str(tmp_path),
        )
        assert code == 3
        assert f"({bad.replace(',', ', ')})" in err
    assert list(tmp_path.iterdir()) == []


def test_split_unwritable_part_exit_2_writes_no_part(capsys, tmp_path):
    (tmp_path / "train.csv").write_text("old\n")
    (tmp_path / "test.csv").mkdir()
    code, _, err = run(
        capsys, "split", str(data_path("bbbp_synthetic.csv")),
        "--outdir", str(tmp_path),
    )
    assert code == 2
    assert f"cannot write {tmp_path / 'test.csv'}:" in err
    # no temporary file is left and no part replaces its target
    assert sorted(p.name for p in tmp_path.iterdir()) == ["test.csv",
                                                          "train.csv"]
    assert (tmp_path / "train.csv").read_text() == "old\n"


# ---------------------------------------------------------------------------
# dtree
# ---------------------------------------------------------------------------


def test_dtree_metrics(capsys, tmp_path):
    out = tmp_path / "metrics.json"
    code, stdout, _ = run(
        capsys, "dtree", str(data_path("bbbp_synthetic.csv")),
        "--n-trees", "40", "--out", str(out),
    )
    assert code == 0
    metrics = json.loads(out.read_text())
    assert metrics == json.loads(stdout)
    assert 0.0 <= metrics["auc"] <= 1.0
    assert metrics["train_size"] == 320
    assert len(metrics["features"]) == 10
    assert metrics["features"][0] == "MolWt"


def test_dtree_deterministic(capsys, tmp_path):
    args = ("dtree", str(data_path("bbbp_synthetic.csv")),
            "--n-trees", "20", "--seed", "3")
    _, out_a, _ = run(capsys, *args, "--out", str(tmp_path / "a.json"))
    _, out_b, _ = run(capsys, *args, "--out", str(tmp_path / "b.json"))
    assert json.loads(out_a)["auc"] == json.loads(out_b)["auc"]


def test_dtree_custom_features_and_model_dump(capsys, tmp_path):
    out = tmp_path / "m.json"
    model = tmp_path / "forest.txt"
    code, stdout, _ = run(
        capsys, "dtree", str(data_path("bbbp_synthetic.csv")),
        "--features", "MolWt,TPSA", "--n-trees", "10",
        "--out", str(out), "--model-out", str(model),
    )
    assert code == 0
    assert json.loads(stdout)["features"] == ["MolWt", "TPSA"]
    assert model.exists()


def test_dtree_unknown_feature_exit_2(capsys, tmp_path):
    code, _, _ = run(
        capsys, "dtree", str(data_path("bbbp_synthetic.csv")),
        "--features", "Voodoo", "--out", str(tmp_path / "m.json"),
    )
    assert code == 2


def test_dtree_negative_seed_exit_3_before_reading(capsys, tmp_path,
                                                  monkeypatch):
    loads = []
    monkeypatch.setattr(attrilens.mlpipe, "load_csv",
                        lambda *a: loads.append(a))
    out = tmp_path / "m.json"
    code, _, err = run(capsys, "dtree", str(data_path("bbbp_synthetic.csv")),
                       "--seed", "-1", "--out", str(out))
    assert code == 3
    assert "seed" in err and "-1" in err
    assert loads == []
    assert list(tmp_path.iterdir()) == []


def test_dtree_degenerate_labels_exit_2(capsys, tmp_path):
    bad = tmp_path / "one_class.csv"
    bad.write_text("smiles,label\n" + "\n".join(
        f"{'C' * k}c1ccccc1,True" for k in range(1, 8)
    ) + "\n")
    code, _, _ = run(capsys, "dtree", str(bad),
                     "--out", str(tmp_path / "m.json"))
    assert code == 2


def test_dtree_failed_model_out_leaves_no_metrics(capsys, tmp_path):
    code, _, _ = run(
        capsys, "dtree", str(data_path("bbbp_synthetic.csv")),
        "--n-trees", "2", "--out", str(tmp_path / "m.json"),
        "--model-out", str(tmp_path / "no_such_dir" / "forest.txt"),
    )
    assert code == 2
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# unwritable --out
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ("score", str(data_path("case_studies.jsonl"))),
    ("train-sim", "--steps", "1"),
    ("dtree", str(data_path("bbbp_synthetic.csv")), "--n-trees", "2"),
], ids=["score", "train-sim", "dtree"])
@pytest.mark.parametrize("target", ["missing/out.txt", "taken"],
                         ids=["missing-dir", "is-a-dir"])
def test_unwritable_out_exit_2_names_the_path(capsys, tmp_path, argv,
                                              target):
    (tmp_path / "taken").mkdir()
    out = tmp_path / target
    code, _, err = run(capsys, *argv, "--out", str(out))
    assert code == 2
    assert f"cannot write {out}:" in err
    assert ".tmp" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
    assert list((tmp_path / "taken").iterdir()) == []


# ---------------------------------------------------------------------------
# undecodable input
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("first, argv, want_code", [
    ('{"id": "a"}', ("score", "{bad}"), 2),
    ("smiles,label", ("split", "{bad}", "--outdir", "{tmp}/out"), 2),
    ("smiles,label", ("dtree", "{bad}", "--out", "{tmp}/m.json"), 2),
    ("smiles,target,task,label",
     ("train-sim", "--dataset", "{bad}", "--out", "{tmp}/c.csv"), 3),
    ("steps=1", ("train-sim", "--config", "{bad}", "--out", "{tmp}/c.csv"), 3),
    ("# range table",
     ("score", str(data_path("case_studies.jsonl")), "--table", "{bad}"), 3),
], ids=["score", "split", "dtree", "train-sim-dataset", "train-sim-config",
        "score-table"])
def test_undecodable_input_names_file_and_line(capsys, tmp_path, first, argv,
                                               want_code):
    bad = tmp_path / "bad.txt"
    # a valid first line, a blank line, then a byte that is not UTF-8
    bad.write_bytes(first.encode() + b"\n\n\xff\n")
    argv = [a.format(bad=bad, tmp=tmp_path) for a in argv]
    code, _, err = run(capsys, *argv)
    assert code == want_code
    assert f"{bad}:3: not valid" in err
