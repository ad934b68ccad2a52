"""Seeded benchmark inputs, built only from the package's bundled data.

Each generated ``score`` record comes with its ground truth: the format,
correct and count rewards it must earn, how many of its claims are
verifiable, and bounds on how many of those must agree with the range
table. Claims about HeavyAtomCount and RingCount are predicted exactly
from the benchmark's own count of heavy-atom tokens and ring-closure
pairs in the SMILES.

The traffic mix of the responses is measured from the 12 bundled
case-study transcripts (``measured_mix``): their tag patterns, claim
counts, name styles, named descriptors, bare name blocks, polarities,
answer agreement and think texts. A share of ``COVERAGE_SHARE`` records
is drawn instead from ``coverage_mix``, which adds the variants the
transcripts never show (duplicated tags, claim counts past the band,
misspelled and unimplemented names). That share is not measured; it is
there so the checks reach those paths.
"""

from __future__ import annotations

import csv
import json
import math
import random
import re
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

DATA = Path(__file__).resolve().parent.parent / "src" / "attrilens" / "data"

# The bundled table and count band every score run is given explicitly.
TABLE_NAME = "gpt4o-default"
TABLE_FILE = "ranges_gpt4o_default.tsv"
COUNT_BOUNDS = (3, 10)
DATASETS = (("bace_synthetic.csv", "BACE"), ("bbbp_synthetic.csv", "BBBP"))

# Misspellings checked to resolve to their descriptor under the 0.80
# similarity floor; a resolver change that breaks one fails the checks.
MISSPELLED = {
    "MolWt": ("Molecular Wieght", "Moleculer Weight"),
    "HeavyAtomCount": ("HeavyAtomCuont", "Heavy Atm Count"),
    "MolLogP": ("Lipophilicty", "Octanol Water Partiton"),
    "TPSA": ("Polar Surfce Area", "Polar Surface Aera"),
    "NumHDonors": ("Hydrogen Bond Donnors", "NumHDonor"),
    "NumHAcceptors": ("Hydrogen Bond Aceptors", "NumHAceptors"),
    "NumRotatableBonds": ("Rotatble Bonds", "NumRotatableBond"),
    "RingCount": ("Ring Numbr", "Numbr of Rings"),
    "NumAromaticRings": ("Aromatc Rings", "NumAromaticRigns"),
    "FractionCSP3": ("Fraction Csp3s", "FractionSCP3"),
    "NumSulfurAtoms": ("Sulphur Atoms", "NumSulfurAtom"),
    "NumHalogenAtoms": ("Halogen Atom", "NumHalogenAtms"),
    "FormalCharge": ("Formal Chrage", "FormalCharges"),
    "NumNitrogenPlusOxygen": ("Nitrogen Plus Oxygn", "NumNitrogenPlusOxygens"),
}
PREDICTED = ("HeavyAtomCount", "RingCount")
TAGS = ("think", "name", "answer")
STYLES = ("canonical", "alias", "misspelled", "unimplemented", "unknown")
# Share of records drawn from the coverage mix; not measured (see above).
COVERAGE_SHARE = 0.1
MAX_COVERAGE_CLAIMS = 13  # past the 3..10 band


@dataclass(frozen=True)
class Mix:
    """What one response is drawn from; tuples are drawn uniformly."""

    tags: tuple[tuple[int, ...], ...]  # think, name, answer block counts
    counts: tuple[int, ...]            # claims in a name block
    styles: dict[str, int]             # name style -> weight
    descriptors: dict[str, int]        # named implemented descriptor -> weight
    unknown: tuple[str, ...]           # names that resolve to nothing
    bare: float                        # share of name blocks without polarity
    promotes: float                    # share of polarities that promote
    agree: float                       # share of answers equal to the label
    thinks: tuple[str, ...]            # think-block texts

@dataclass(frozen=True)
class Truth:
    """What ``score`` must report for one generated record."""

    format: float
    correct: float
    count: float
    n_att: int
    verified: int
    matched_lo: int
    matched_hi: int


# ---------------------------------------------------------------------------
# Bundled data
# ---------------------------------------------------------------------------


def distinct_molecules() -> list[tuple[str, str, bool]]:
    """(smiles, target, label) for the first occurrence of each SMILES."""
    seen: dict[str, tuple[str, str, bool]] = {}
    for filename, target in DATASETS:
        with open(DATA / filename, newline="") as fh:
            for row in csv.DictReader(fh):
                smiles = row["smiles"].strip()
                label = row["label"].strip().lower() in ("true", "1")
                seen.setdefault(smiles, (smiles, target, label))
    return list(seen.values())


def case_studies() -> list[dict]:
    return [json.loads(line)
            for line in (DATA / "case_studies.jsonl").read_text().splitlines()
            if line.strip()]


def _registry() -> tuple[dict[str, bool], dict[str, tuple[str, ...]]]:
    implemented: dict[str, bool] = {}
    aliases: dict[str, tuple[str, ...]] = {}
    for line in (DATA / "descriptor_registry.tsv").read_text().splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        name, flag, alias_text = (line.split("\t") + ["", ""])[:3]
        implemented[name] = flag.strip() == "1"
        aliases[name] = tuple(a.strip() for a in alias_text.split("|")
                              if a.strip())
    return implemented, aliases


_INTERVAL = re.compile(r"([\[(])\s*([^,]+?)\s*,\s*([^\])]+?)\s*([\])])")


def _table() -> dict[tuple[str, str], list[tuple[float, float, bool, bool]]]:
    rows = {}
    for line in (DATA / TABLE_FILE).read_text().splitlines():
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        target, name, text = (p.strip() for p in line.split("\t"))
        rows[(target.lower(), name)] = [
            (float(lo), float(hi), lb == "[", rb == "]")
            for lb, lo, hi, rb in _INTERVAL.findall(text)
        ]
    return rows


def _inside(intervals, x: float) -> bool:
    return any((x >= lo if lc else x > lo) and (x <= hi if hc else x < hi)
               for lo, hi, lc, hc in intervals)


_TOKEN = re.compile(r"\[[^\]]*\]|Cl|Br|%\d\d|[BCNOPSFIbcnops]|\d|.")
_BRACKET_ELEMENT = re.compile(r"\[\d*([A-Z][a-z]?|[a-z]+)")


def smiles_counts(smiles: str) -> tuple[int, int]:
    """(heavy-atom tokens, ring-closure pairs) read off the SMILES text."""
    heavy = 0
    closures = 0
    for tok in _TOKEN.findall(smiles):
        if tok.startswith("["):
            heavy += _BRACKET_ELEMENT.match(tok).group(1) != "H"
        elif tok.isdigit() or tok.startswith("%"):
            closures += 1
        elif tok.isalpha():
            heavy += 1
    return heavy, closures // 2


def _normalize(text: str) -> str:
    return "".join(ch for ch in text.lower() if ch.isalnum())


def _block(text: str, tag: str) -> str | None:
    found = re.search(f"<{tag}>(.*?)</{tag}>", text, re.S)
    return found.group(1).strip() if found else None


def measured_mix() -> Mix:
    """The mix of the 12 case-study transcripts.

    A claim name is canonical or an alias when its letters and digits
    match a registry name or alias, and unknown otherwise; none of the
    transcripts' unknown names comes within the resolver's similarity
    floor of a registry entry, so they hold no misspellings.
    """
    implemented, aliases = _registry()
    exact = {_normalize(n): ("canonical", n) for n in implemented}
    for name, names in aliases.items():
        for alias in names:
            exact.setdefault(_normalize(alias), ("alias", name))
    tags, counts, thinks = [], [], []
    styles, named = Counter(), Counter()
    unknown: list[str] = []
    bare = promotes = polar = agree = answered = 0
    for case in case_studies():
        text = case["response_text"]
        tags.append(tuple(text.count(f"<{tag}>") for tag in TAGS))
        thinks.append(_block(text, "think"))
        answer = _block(text, "answer")
        if answer is not None:
            answered += 1
            agree += (answer == "True") == case["label"]
        block = _block(text, "name")
        if block is None:
            continue
        claims = [c.partition(":") for c in block.split(",")]
        counts.append(len(claims))
        bare += all(not sep for _, sep, _ in claims)
        for text_name, _, polarity in claims:
            polar += polarity.strip() in ("promotes", "inhibits")
            promotes += polarity.strip() == "promotes"
            style, name = exact.get(_normalize(text_name), ("unknown", None))
            if name is not None and not implemented[name]:
                style = "unimplemented"
            styles[style] += 1
            if style == "unknown":
                unknown.append(text_name.strip())
            elif style != "unimplemented":
                named[name] += 1
    return Mix(tags=tuple(tags), counts=tuple(counts),
               styles={s: styles[s] for s in STYLES},
               descriptors=dict(sorted(named.items())),
               unknown=tuple(sorted(set(unknown))),
               bare=bare / len(counts), promotes=promotes / polar,
               agree=agree / answered, thinks=tuple(thinks))


def coverage_mix(measured: Mix) -> Mix:
    """``measured`` with every tag, count, style and descriptor variant."""
    implemented, _ = _registry()
    tags = [(1, 1, 1)]
    for i in range(len(TAGS)):
        for n in (0, 2):
            tags.append(tuple(n if j == i else 1 for j in range(len(TAGS))))
    return replace(measured, tags=tuple(tags),
                   counts=tuple(range(MAX_COVERAGE_CLAIMS + 1)),
                   styles=dict.fromkeys(STYLES, 1),
                   descriptors={n: 1 for n, ok in implemented.items() if ok})


# ---------------------------------------------------------------------------
# Responses
# ---------------------------------------------------------------------------


class ResponseMaker:
    """Builds response texts from known parts and keeps their truth."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.implemented, self.aliases = _registry()
        self.table = _table()
        self.measured = measured_mix()
        self.coverage = coverage_mix(self.measured)
        self.unimpl_names = [n for n, ok in self.implemented.items() if not ok]
        self.style_counts = dict.fromkeys(STYLES + ("bare",), 0)
        self.coverage_records = 0

    def _name(self, style: str, mix: Mix) -> tuple[str, str | None]:
        """(text, canonical descriptor or None) for one claim."""
        rng = self.rng
        if style == "unknown":
            return rng.choice(mix.unknown), None
        if style == "unimplemented":
            name = rng.choice(self.unimpl_names)
            return name, name
        name = rng.choices(list(mix.descriptors),
                           list(mix.descriptors.values()))[0]
        if style == "alias":
            return rng.choice(self.aliases[name]).title(), name
        if style == "misspelled":
            return rng.choice(MISSPELLED[name]), name
        return name, name

    def make(self, smiles: str, target: str,
             label: bool) -> tuple[str, Truth]:
        rng = self.rng
        mix = self.measured
        if rng.random() < COVERAGE_SHARE:
            mix = self.coverage
            self.coverage_records += 1
        tags = rng.choice(mix.tags)
        n_claims = rng.choice(mix.counts)
        bare = rng.random() < mix.bare
        heavy, rings = smiles_counts(smiles)
        values = {"HeavyAtomCount": heavy, "RingCount": rings}
        # a salt's counts come from its largest component, not the text
        predictable = "." not in smiles
        claims = []
        verified = matched_lo = open_claims = 0
        for _ in range(n_claims):
            style = rng.choices(list(mix.styles), list(mix.styles.values()))[0]
            text, name = self._name(style, mix)
            self.style_counts[style] += 1
            if bare:
                self.style_counts["bare"] += 1
                claims.append(text)
                continue
            promotes = rng.random() < mix.promotes
            polarity = "promotes" if promotes else "inhibits"
            claims.append(f"{text}: {polarity}")
            row = self.table.get((target.lower(), name))
            if not (name and self.implemented[name] and row):
                continue
            verified += 1
            if predictable and name in PREDICTED:
                inside = _inside(row, values[name])
                matched_lo += promotes == inside
            else:
                open_claims += 1
        answer = label if rng.random() < mix.agree else not label
        blocks = {
            "think": f"<think> {rng.choice(mix.thinks)} </think>",
            "name": f"<name> {', '.join(claims)} </name>",
            "answer": f"<answer> {'True' if answer else 'False'} </answer>",
        }
        parts = [blocks[tag] for tag, n in zip(TAGS, tags) for _ in range(n)]
        has_name, has_answer = tags[1] > 0, tags[2] > 0
        n_att = n_claims if has_name else 0
        lo, hi = COUNT_BOUNDS
        if not has_name:
            verified = matched_lo = open_claims = 0
        truth = Truth(
            format=1.0 if tags == (1, 1, 1) else -2.0,
            correct=2.0 if has_answer and answer == label else 0.0,
            count=0.0 if lo <= n_att <= hi else -1.0,
            n_att=n_att,
            verified=verified,
            matched_lo=matched_lo,
            matched_hi=matched_lo + open_claims,
        )
        return "\n".join(parts), truth


# ---------------------------------------------------------------------------
# Corpora
# ---------------------------------------------------------------------------


@dataclass
class ScoreCorpus:
    records: list[dict]
    truth: dict[str, Truth]          # generated records only
    stats: dict


def _score_corpus(rng: random.Random, prefix: str, picks,
                  group: int) -> ScoreCorpus:
    maker = ResponseMaker(rng)
    records = []
    truth = {}
    for m, (smiles, target, label) in enumerate(picks):
        for g in range(group):
            rid = f"{prefix}-{m:04d}-{g:02d}"
            text, truth[rid] = maker.make(smiles, target, label)
            records.append({"id": rid, "smiles": smiles,
                            "task": "classification", "target": target,
                            "label": label, "response_text": text})
    records.extend(case_studies())
    distinct = len({r["smiles"] for r in records})
    stats = {
        "records": len(records),
        "molecules": len(picks),
        "group": group,
        "repeated_smiles_share": round(1 - distinct / len(records), 4),
        "coverage_records": maker.coverage_records,
        "claim_names": maker.style_counts,
    }
    return ScoreCorpus(records, truth, stats)


def score_distinct(seed: int, limit: int | None = None) -> ScoreCorpus:
    """One response for each distinct bundled SMILES, in seeded order."""
    rng = random.Random(f"score-distinct/{seed}")
    picks = distinct_molecules()
    rng.shuffle(picks)
    return _score_corpus(rng, "distinct", picks[:limit], group=1)


def score_grouped(seed: int, molecules: int = 48,
                  group: int = 8) -> ScoreCorpus:
    """``molecules`` SMILES, each with ``group`` adjacent responses.

    The molecules are drawn one per stratum of SMILES length, so every
    seed gets a different set of the same size profile.
    """
    rng = random.Random(f"score-grouped/{seed}")
    pool = sorted(distinct_molecules(), key=lambda m: (len(m[0]), m[0]))
    edges = [math.floor(i * len(pool) / molecules)
             for i in range(molecules + 1)]
    picks = [pool[rng.randrange(lo, hi)] for lo, hi in zip(edges, edges[1:])]
    rng.shuffle(picks)
    return _score_corpus(rng, "grouped", picks, group)


def write_jsonl(records: list[dict], path: Path) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def shuffled_csv(filename: str, seed: int, path: Path) -> None:
    """Copy a bundled CSV with its data rows in seeded order."""
    lines = (DATA / filename).read_text().splitlines()
    rows = lines[1:]
    random.Random(f"{filename}/{seed}").shuffle(rows)
    path.write_text("\n".join([lines[0]] + rows) + "\n")
