"""Command-line surface for the reward stack and pipeline.

Subcommands: ``score`` (reward a response corpus), ``descriptors``
(compute attribute values for SMILES), ``train-sim`` (toy-policy
training curves), ``split`` (scaffold split a CSV), ``dtree`` (forest
on descriptor features + AUC). Exit codes: 0 success, 2 input error,
3 configuration error, 4 internal invariant violation.

Every command that writes an output artifact also writes a manifest
JSON next to it (atomically), capturing the command, its configuration,
inputs/outputs, seed, package version, and wall time.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import sys
import tempfile
import time
from dataclasses import asdict

from . import __version__
from ._data import (BadRecord, ConfigError, DegenerateLabels, EmptyDataset,
                    MissingColumn, data_path, open_text)
from .descriptors import Unimplemented, compute, registry, resolve_attribute
from .molgraph import SmilesError, parse_smiles
from .response import CLASSIFICATION, REGRESSION, parse_response
from .rewards import (
    REWARD_COMPONENTS,
    ParseError,
    TableMissing,
    UnknownDescriptor,
    load_range_table,
    total_reward,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONFIG = 3
EXIT_INTERNAL = 4


class InputError(Exception):
    """User-supplied data is unusable (exit 2)."""


_CONFIG_ERRORS = (ConfigError, TableMissing, ParseError, UnknownDescriptor)
_INPUT_ERRORS = (
    InputError,
    SmilesError,
    OSError,
    MissingColumn,
    EmptyDataset,
    DegenerateLabels,
    BadRecord,
)


# ---------------------------------------------------------------------------
# Run manifests
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _atomic_output(target):
    """Write to a temp file beside ``target``; it replaces ``target`` only
    if the block finishes, and is removed on any error.  A ``target`` that
    cannot be written raises :class:`InputError` naming it."""
    directory = os.path.dirname(os.path.abspath(target)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    except OSError as exc:
        raise InputError(f"cannot write {target}: {exc.strerror}") from None
    try:
        with os.fdopen(fd, "w") as fh:
            # mkstemp creates the file 0600; give it the mode open() would.
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            yield fh
        try:
            os.replace(tmp, target)
        except OSError as exc:
            raise InputError(f"cannot write {target}: {exc.strerror}") from None
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _manifest(command, config, inputs, outputs, seed, started) -> None:
    """Write the run's manifest atomically next to its first output."""
    payload = {
        "command": command,
        "config": config,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "seed": seed,
        "version": __version__,
        "wall_time_s": round(time.time() - started, 3),
    }
    with _atomic_output(f"{outputs[0]}.manifest.json") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------


def _parse_count_bounds(text: str) -> tuple[int, int]:
    try:
        lo, hi = (int(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(
            f"count bounds must look like '3,10', got {text!r}"
        ) from None
    if lo > hi or lo < 0:
        raise ConfigError(f"invalid count bounds ({lo}, {hi})")
    return lo, hi


def _record_error(rec) -> str | None:
    """What is wrong with one ``score`` corpus record, or None."""
    if not isinstance(rec, dict):
        return "record is not a JSON object"
    for key in ("smiles", "task", "target", "response_text", "label"):
        if key not in rec:
            return f"missing field {key!r}"
    if "id" in rec and not isinstance(rec["id"], str):
        return f"id must be a string, got {rec['id']!r}"
    task, label = rec["task"], rec["label"]
    if task not in (CLASSIFICATION, REGRESSION):
        return f"task must be {CLASSIFICATION!r} or {REGRESSION!r}, got {task!r}"
    if not isinstance(rec["smiles"], str):
        return f"smiles must be a string, got {rec['smiles']!r}"
    if not isinstance(rec["target"], str) or not rec["target"]:
        return f"target must be a non-empty string, got {rec['target']!r}"
    if not isinstance(rec["response_text"], str):
        return f"response_text must be a string, got {rec['response_text']!r}"
    if task == CLASSIFICATION and not isinstance(label, bool):
        return f"classification label must be true/false, got {label!r}"
    if task == REGRESSION and (isinstance(label, bool)
                               or not isinstance(label, (int, float))):
        return f"regression label must be a number, got {label!r}"
    # NaN, +-Infinity and integers past the float range (json.loads takes
    # all of them) fail this comparison.
    if task == REGRESSION and not abs(label) <= sys.float_info.max:
        return "regression label must be a finite number"
    return None


def cmd_score(args) -> int:
    started = time.time()
    try:
        table = load_range_table(args.table)
    except FileNotFoundError as exc:
        raise ConfigError(str(exc)) from exc
    bounds = _parse_count_bounds(args.count_bounds)
    records = []
    with open_text(args.corpus, InputError) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                records.append((lineno, json.loads(line)))
            except json.JSONDecodeError as exc:
                raise InputError(
                    f"{args.corpus}:{lineno}: malformed JSON: {exc}"
                ) from exc
    if not records:
        raise InputError(f"{args.corpus}: EmptyDataset: no records")
    for lineno, rec in records:
        problem = _record_error(rec)
        if problem is not None:
            raise InputError(f"{args.corpus}:{lineno}: {problem}")
        try:
            table.rows(rec["target"])
        except TableMissing as exc:
            raise TableMissing(f"{args.corpus}:{lineno}: {exc}") from exc

    # Records that share a SMILES (the G responses of a group) share one
    # Molecule and its descriptor cache. The memo lives for this call only.
    parse = functools.lru_cache(maxsize=64)(parse_smiles)
    sums = [0.0] * len(REWARD_COMPONENTS)
    held = io.StringIO()  # stdout rows wait until every record has scored
    with (_atomic_output(args.out) if args.out
          else contextlib.nullcontext(held)) as out:
        for lineno, rec in records:
            try:
                mol = parse(rec["smiles"])
            except SmilesError as exc:
                raise InputError(
                    f"{args.corpus}:{lineno}: bad SMILES: {exc}"
                ) from exc
            parsed = parse_response(rec["response_text"], task=rec["task"])
            bd = total_reward(
                parsed, mol, rec["label"], rec["target"], table,
                count_bounds=bounds, task=rec["task"],
            )
            sums = [s + v for s, v in zip(sums, bd.components)]
            row = {"id": rec.get("id", f"line-{lineno}"), **vars(bd)}
            if args.format == "json":
                print(json.dumps(row), file=out)
            else:
                print(
                    f"{row['id']:<16s} fmt={bd.format:+.0f} "
                    f"cor={bd.correct:.0f} cnt={bd.count:+.0f} "
                    f"rat={bd.rational:.4f} total={bd.total:.4f}",
                    file=out,
                )
        means = [s / len(records) for s in sums]
        summary = {"summary": {"n": len(records),
                               **dict(zip(REWARD_COMPONENTS, means))}}
        if args.format == "json":
            print(json.dumps(summary), file=out)
        else:
            print(
                f"mean over {len(records)}: fmt={means[0]:.3f} "
                f"cor={means[1]:.3f} cnt={means[2]:.3f} "
                f"rat={means[3]:.3f} total={means[4]:.3f}",
                file=out,
            )
    sys.stdout.write(held.getvalue())
    if args.out:
        _manifest(
            "score",
            {"table": args.table, "count_bounds": list(bounds),
             "format": args.format},
            [args.corpus], [args.out], None, started,
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------


def cmd_descriptors(args) -> int:
    if args.ids:
        idents = []
        for name in args.ids.split(","):
            ident = resolve_attribute(name.strip())
            if ident is None:
                raise InputError(f"unknown descriptor {name.strip()!r}")
            idents.append(ident)
    else:
        idents = [d for d in registry() if d.implemented]
    rows = []
    for smiles in args.smiles:
        try:
            mol = parse_smiles(smiles)
        except SmilesError as exc:
            raise InputError(f"bad SMILES {smiles!r}: {exc}") from exc
        values = {}
        for ident in idents:
            try:
                values[ident.name] = float(compute(mol, ident))
            except Unimplemented as exc:
                raise InputError(str(exc)) from exc
        rows.append({"smiles": smiles, "values": values})
    if args.format == "json":
        print(json.dumps(rows, indent=2))
    else:
        for row in rows:
            print(row["smiles"])
            for name, value in row["values"].items():
                print(f"  {name:<24s} {value:.4f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train-sim
# ---------------------------------------------------------------------------


_CONFIG_CASTS = {
    "steps": int, "group_size": int, "temperature": float,
    "learning_rate": float, "seed": int, "algorithm": str,
    "range_table": str, "dataset": str, "count_bounds": _parse_count_bounds,
}


def _read_config_file(path) -> dict:
    """key=value lines; blank lines and #-comments ignored."""
    overrides = {}
    with open_text(path, ConfigError) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            key = key.strip()
            if not sep or key not in _CONFIG_CASTS:
                raise ConfigError(f"{path}:{lineno}: bad config line {line!r}")
            try:
                overrides[key] = _CONFIG_CASTS[key](value.strip())
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {key}: {exc}") from exc
    return overrides


def cmd_train_sim(args) -> int:
    from . import policysim
    started = time.time()
    kwargs = {}
    if args.config:
        kwargs.update(_read_config_file(args.config))
    for key in ("steps", "group_size", "temperature", "learning_rate",
                "seed", "algorithm"):
        flag = getattr(args, key)
        if flag is not None:
            kwargs[key] = flag
    if args.count_bounds is not None:
        kwargs["count_bounds"] = _parse_count_bounds(args.count_bounds)
    if args.table is not None:
        kwargs["range_table"] = args.table
    kwargs["dataset"] = args.dataset or kwargs.get(
        "dataset", str(data_path("toy_train.csv"))
    )
    if not os.path.exists(kwargs["dataset"]):
        raise InputError(f"dataset not found: {kwargs['dataset']}")
    config = policysim.TrainConfig(**kwargs)
    # --out is opened before training, so an unwritable path fails at once
    with _atomic_output(args.out) as fh:
        try:
            curves, _policy = policysim.train(config)
        except FileNotFoundError as exc:
            raise ConfigError(str(exc)) from exc
        policysim.export_curves(curves, fh)
    cfg_dict = asdict(config)
    cfg_dict["count_bounds"] = list(config.count_bounds)
    _manifest("train-sim", cfg_dict, [config.dataset], [args.out],
              config.seed, started)
    print(f"wrote {args.out} ({len(curves.steps)} steps)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# split
# ---------------------------------------------------------------------------


def cmd_split(args) -> int:
    from . import mlpipe
    started = time.time()
    schema = mlpipe.CsvSchema(args.smiles_col, args.label_col, args.task)
    loaded = mlpipe.load_csv(args.input, schema)
    fractions = tuple(float(f) for f in args.fractions.split(","))
    parts = mlpipe.scaffold_split(loaded.records, fractions)
    os.makedirs(args.outdir, exist_ok=True)
    outputs = [os.path.join(args.outdir, f"{name}.csv")
               for name in ("train", "valid", "test")]
    # all three parts are written before any replaces its target
    with contextlib.ExitStack() as stack:
        for path, part in zip(outputs, parts):
            fh = stack.enter_context(_atomic_output(path))
            fh.write(f"{args.smiles_col},{args.label_col}\n")
            for rec in part:
                fh.write(f"{rec.smiles},{rec.label}\n")
    _manifest(
        "split",
        {"fractions": list(fractions), "smiles_col": args.smiles_col,
         "label_col": args.label_col, "task": args.task,
         "skipped": loaded.skipped},
        [args.input], outputs, None, started,
    )
    sizes = tuple(len(p) for p in parts)
    if args.format == "json":
        print(json.dumps({"sizes": list(sizes), "skipped": loaded.skipped}))
    else:
        print(f"train/valid/test sizes: {sizes[0]}/{sizes[1]}/{sizes[2]} "
              f"(skipped {loaded.skipped})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# dtree
# ---------------------------------------------------------------------------


def _default_features() -> list[str]:
    return [d.name for d in registry() if d.implemented][:10]


def cmd_dtree(args) -> int:
    from . import mlpipe
    started = time.time()
    # the flags are checked before the CSV is read
    cfg = mlpipe.ForestConfig(args.n_trees, args.max_depth, args.seed)
    schema = mlpipe.CsvSchema(args.smiles_col, args.label_col)
    loaded = mlpipe.load_csv(args.input, schema)
    train, valid, test = mlpipe.scaffold_split(loaded.records)
    if args.features:
        names = [n.strip() for n in args.features.split(",")]
        for name in names:
            ident = resolve_attribute(name)
            if ident is None or not ident.implemented:
                raise InputError(f"unknown or unimplemented feature {name!r}")
    else:
        names = _default_features()
    model = mlpipe.train_forest(train, names, cfg)
    metrics = {
        "auc": mlpipe.eval_auc(model, test),
        "train_size": len(train),
        "valid_size": len(valid),
        "test_size": len(test),
        "skipped": loaded.skipped,
        "features": list(model.feature_names),
        "n_trees": cfg.n_trees,
        "max_depth": cfg.max_depth,
        "seed": cfg.seed,
    }
    outputs = [args.out]
    # --out is replaced only after --model-out has been written
    with _atomic_output(args.out) as fh:
        json.dump(metrics, fh, indent=2, sort_keys=True)
        fh.write("\n")
        if args.model_out:
            with _atomic_output(args.model_out) as model_fh:
                mlpipe.save_forest(model, model_fh)
            outputs.append(args.model_out)
    _manifest(
        "dtree",
        {"features": names, "n_trees": cfg.n_trees,
         "max_depth": cfg.max_depth},
        [args.input], outputs, cfg.seed, started,
    )
    print(json.dumps(metrics, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="attrilens",
        description="Attribute-guided reward stack for molecular "
                    "property prediction.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("score", help="score a JSONL response corpus")
    p.add_argument("corpus", help="JSONL with smiles/task/target/"
                                  "response_text/label per line")
    p.add_argument("--table", default="gpt4o-default",
                   help="range table name or path")
    p.add_argument("--count-bounds", default="3,10")
    p.add_argument("--format", choices=("plain", "json"), default="json")
    p.add_argument("--out", default=None,
                   help="write results here instead of stdout")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("descriptors", help="compute descriptor values")
    p.add_argument("smiles", nargs="+")
    p.add_argument("--ids", default=None,
                   help="comma-separated descriptor names "
                        "(default: all implemented)")
    p.add_argument("--format", choices=("plain", "json"), default="plain")
    p.set_defaults(func=cmd_descriptors)

    p = sub.add_parser("train-sim", help="train the toy policy")
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--group-size", dest="group_size", type=int, default=None)
    p.add_argument("--temperature", type=float, default=None)
    p.add_argument("--lr", dest="learning_rate", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--algorithm", choices=("grpo", "dapo"), default=None)
    p.add_argument("--count-bounds", default=None)
    p.add_argument("--table", default=None)
    p.add_argument("--dataset", default=None)
    p.add_argument("--config", default=None,
                   help="key=value config file; flags override")
    p.add_argument("--out", default="curves.csv")
    p.set_defaults(func=cmd_train_sim)

    p = sub.add_parser("split", help="scaffold-split a CSV")
    p.add_argument("input")
    p.add_argument("--smiles-col", default="smiles")
    p.add_argument("--label-col", default="label")
    p.add_argument("--task", choices=("classification", "regression"),
                   default="classification")
    p.add_argument("--fractions", default="0.8,0.1,0.1")
    p.add_argument("--outdir", default=".")
    p.add_argument("--format", choices=("plain", "json"), default="plain")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("dtree", help="forest on descriptor features")
    p.add_argument("input")
    p.add_argument("--smiles-col", default="smiles")
    p.add_argument("--label-col", default="label")
    p.add_argument("--features", default=None,
                   help="comma-separated descriptor names "
                        "(default: first 10 implemented)")
    p.add_argument("--n-trees", dest="n_trees", type=int, default=200)
    p.add_argument("--max-depth", dest="max_depth", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="dtree_metrics.json")
    p.add_argument("--model-out", dest="model_out", default=None)
    p.set_defaults(func=cmd_dtree)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        # bad flag values (fractions, bounds) surfaced by library checks
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # pragma: no cover - internal invariant
        print(f"internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
