"""In-memory spans around the package's public functions.

``Tracer.install`` replaces each traced function at every module attribute
of the package that holds it, which is where its callers look it up, so
spans nest exactly as the calls do. A span is ``[name, start, end,
parent]`` and stays in memory until the run ends; a span's self time is
its duration minus the durations of its direct children (calls are
single-threaded, so children never overlap). Spans are recorded only
while ``enabled`` is set, which keeps the benchmark's own checks out of
the trace.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter, defaultdict

import gen

TRACED = {
    "molgraph": ("parse_smiles", "murcko_scaffold", "molecule_key",
                 "scaffold_key"),
    "descriptors": ("compute", "resolve_attribute"),
    "response": ("parse_response",),
    "rewards": ("total_reward", "load_range_table"),
    "grpo": ("fill_advantages", "grpo_objective", "grpo_gradient",
             "dapo_filter"),
    "policysim": ("sample_response", "action_logp", "train"),
    "mlpipe": ("load_csv", "scaffold_split", "featurize", "train_forest",
               "predict_proba", "eval_auc"),
    "cli": ("cmd_score", "cmd_train_sim", "cmd_split", "cmd_dtree"),
}

DESCRIPTOR_NAMES = tuple(gen.MISSPELLED)  # the 14 implemented calculators

# (name, unit) of every per-layer metric, in report order.
LAYER_METRICS = (
    [
        ("molgraph.parse_smiles.us", "us"),
        ("molgraph.parse_smiles.calls_per_distinct_smiles", "ratio"),
        ("molgraph.murcko_scaffold.us", "us"),
        ("molgraph.molecule_key.us", "us"),
        ("molgraph.scaffold_key.us", "us"),
    ]
    + [(f"descriptors.compute.cold_us.{n}", "us") for n in DESCRIPTOR_NAMES]
    + [
        ("descriptors.compute.warm_us", "us"),
        ("descriptors.compute.hit_ratio", "ratio"),
        ("descriptors.resolve_attribute.us", "us"),
        ("descriptors.resolve_attribute.hit_ratio", "ratio"),
        ("response.parse_response.us", "us"),
        ("rewards.total_reward.us", "us"),
        ("rewards.total_reward.self_us", "us"),
        ("rewards.load_range_table.ms", "ms"),
        ("policysim.sample_response.us", "us"),
        ("policysim.action_logp.us", "us"),
        ("policysim.action_logp.calls_per_sample", "ratio"),
        ("policysim.train.step_self_ms", "ms"),
        ("grpo.fill_advantages.us", "us"),
        ("grpo.grpo_objective.us", "us"),
        ("grpo.grpo_gradient.us", "us"),
        ("grpo.dapo_filter.us", "us"),
        ("grpo.dapo_kept_ratio", "ratio"),
        ("mlpipe.load_csv.ms", "ms"),
        ("mlpipe.scaffold_split.ms", "ms"),
        ("mlpipe.featurize.ms", "ms"),
        ("mlpipe.train_forest.self_ms", "ms"),
        ("mlpipe.predict_proba.ms", "ms"),
        ("mlpipe.eval_auc.ms", "ms"),
        ("cli.score.self_us_per_record", "us"),
        ("traced.round_s", "s"),
    ]
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.enabled = False
        self.counts: Counter = Counter()
        self.round_smiles: list[Counter] = []
        self._patched: list[tuple[object, str, object]] = []
        self.resolve_cache = None

    # -- recording -----------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        on_call = getattr(self, "_on_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            label = name if on_call is None else on_call(args, kwargs)
            idx = len(spans)
            spans.append([label, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if name == "grpo.dapo_filter":
                self.counts["dapo.attempted"] += len(args[0])
                self.counts["dapo.kept"] += len(result)
            return result

        return wrapper

    def _on_molgraph_parse_smiles(self, args, kwargs):
        self.round_smiles[-1][args[0] if args else kwargs["text"]] += 1
        return "molgraph.parse_smiles"

    def _on_descriptors_compute(self, args, kwargs):
        mol = args[0] if args else kwargs["mol"]
        ident = args[1] if len(args) > 1 else kwargs["ident"]
        key = getattr(ident, "name", ident)
        if key in getattr(mol, "descriptor_cache", ()):
            return "descriptors.compute.warm"
        return f"descriptors.compute.cold.{key}"

    def _on_policysim_train(self, args, kwargs):
        self.counts["train.steps"] += args[0].steps
        return "policysim.train"

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "attrilens"
                                         or n.startswith("attrilens."))]
        for short, names in TRACED.items():
            home = sys.modules[f"attrilens.{short}"]
            for fn_name in names:
                original = getattr(home, fn_name)
                if fn_name == "resolve_attribute":
                    self.resolve_cache = original.cache_info
                wrapper = self._wrap(f"{short}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def start_round(self) -> None:
        self.round_smiles.append(Counter())

    # -- reduction -----------------------------------------------------

    def metrics(self, rounds: int, records_per_round: int,
                round_times: list[float], resolve_info) -> dict:
        """Per-layer metrics over ``rounds`` traced rounds."""
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        child: dict[int, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _parent) in enumerate(self.spans):
            total[name] += end - start
            self_time[name] += end - start - child[i]
            calls[name] += 1

        def mean(name, scale):
            return scale * total[name] / calls[name] if calls[name] else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        cold = [n for n in calls if n.startswith("descriptors.compute.cold.")]
        n_cold = sum(calls[n] for n in cold)
        n_warm = calls["descriptors.compute.warm"]
        per_round = self.round_smiles[-1]
        hits0, misses0, hits1, misses1 = resolve_info
        out = {
            "molgraph.parse_smiles.us": mean("molgraph.parse_smiles", 1e6),
            "molgraph.parse_smiles.calls_per_distinct_smiles":
                ratio(sum(per_round.values()), len(per_round)),
            "molgraph.murcko_scaffold.us":
                mean("molgraph.murcko_scaffold", 1e6),
            "molgraph.molecule_key.us": mean("molgraph.molecule_key", 1e6),
            "molgraph.scaffold_key.us": mean("molgraph.scaffold_key", 1e6),
        }
        for n in DESCRIPTOR_NAMES:
            out[f"descriptors.compute.cold_us.{n}"] = mean(
                f"descriptors.compute.cold.{n}", 1e6)
        out.update({
            "descriptors.compute.warm_us":
                mean("descriptors.compute.warm", 1e6),
            "descriptors.compute.hit_ratio": ratio(n_warm, n_warm + n_cold),
            "descriptors.resolve_attribute.us":
                mean("descriptors.resolve_attribute", 1e6),
            "descriptors.resolve_attribute.hit_ratio":
                ratio(hits1 - hits0, hits1 - hits0 + misses1 - misses0),
            "response.parse_response.us": mean("response.parse_response", 1e6),
            "rewards.total_reward.us": mean("rewards.total_reward", 1e6),
            "rewards.total_reward.self_us": ratio(
                1e6 * self_time["rewards.total_reward"],
                calls["rewards.total_reward"]),
            "rewards.load_range_table.ms":
                mean("rewards.load_range_table", 1e3),
            "policysim.sample_response.us":
                mean("policysim.sample_response", 1e6),
            "policysim.action_logp.us": mean("policysim.action_logp", 1e6),
            "policysim.action_logp.calls_per_sample": ratio(
                calls["policysim.action_logp"],
                calls["policysim.sample_response"]),
            "policysim.train.step_self_ms": ratio(
                1e3 * self_time["policysim.train"],
                self.counts["train.steps"]),
            "grpo.fill_advantages.us": mean("grpo.fill_advantages", 1e6),
            "grpo.grpo_objective.us": mean("grpo.grpo_objective", 1e6),
            "grpo.grpo_gradient.us": mean("grpo.grpo_gradient", 1e6),
            "grpo.dapo_filter.us": mean("grpo.dapo_filter", 1e6),
            "grpo.dapo_kept_ratio": ratio(self.counts["dapo.kept"],
                                          self.counts["dapo.attempted"]),
            "mlpipe.load_csv.ms": mean("mlpipe.load_csv", 1e3),
            "mlpipe.scaffold_split.ms": mean("mlpipe.scaffold_split", 1e3),
            "mlpipe.featurize.ms": mean("mlpipe.featurize", 1e3),
            "mlpipe.train_forest.self_ms": ratio(
                1e3 * self_time["mlpipe.train_forest"],
                calls["mlpipe.train_forest"]),
            "mlpipe.predict_proba.ms": mean("mlpipe.predict_proba", 1e3),
            "mlpipe.eval_auc.ms": mean("mlpipe.eval_auc", 1e3),
            "cli.score.self_us_per_record": ratio(
                1e6 * self_time["cli.cmd_score"], rounds * records_per_round),
            "traced.round_s": statistics.median(round_times),
        })
        return out
