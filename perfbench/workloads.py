"""The benchmark's workloads: seeded inputs, one op each, and its checks.

Every workload is a closed loop with one client. Inputs are generated in
``__init__`` from the seed (benchmark code, untimed); ``setup`` does the
program-side work an op needs first (timed as ``setup_s``); ``specs(b)``
gives the ops of block ``b`` with a fixed mix of op kinds, so a run that
ends on a block boundary always measures the same mix.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import densem as D
from oracles import SupportOracle, grammatical
from spans import read_spans

FEATURES = [f"f{i:02d}" for i in range(16)]
LAUNCHER = Path(__file__).with_name("densem_cli.py")


def _rng(seed: int, *parts) -> random.Random:
    return random.Random(":".join(str(p) for p in (seed, *parts)))


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def _unit(x: float) -> bool:
    return 0.0 <= x <= 1.0


def _save(lex, destination) -> float:
    start = time.perf_counter()
    D.save(lex, destination)
    return time.perf_counter() - start


def _save_in_memory(wl, lex) -> str:
    """Serialize ``lex`` as set-up does: timed, sized, kept as text."""
    buffer = io.StringIO()
    wl.save_s.append(_save(lex, buffer))
    text = buffer.getvalue()
    wl.file_bytes = len(text.encode("utf-8"))
    return text


# --- nouns over 16 features: subsets-built leaves under a taxonomy --------------


@dataclass
class Noun:
    name: str
    level: str  # leaf, parent, kind, thing or root
    rows: list  # 0/1 record vectors whose span is the noun's support
    records: list | None = None  # (features, count) for a subsets-built noun
    children: list | None = None  # (child, weight) for a taxonomy mixture
    synonym_of: str | None = None
    ancestors: list = field(default_factory=list)


# Record sizes of leaf k of a group. Fixing the shapes keeps the cost of
# each kind of pair, and so the op-time quantiles, nearly seed-independent.
LEAF_RECORDS = ((2,), (1, 3), (2, 2, 3), (1, 2, 3))


def noun_taxonomy(rng: random.Random, groups: int, prefix: str) -> list[Noun]:
    """Four leaves (rank 1-3, features from a 6-feature pool) under each parent,
    four parents to a kind (16-dim, dense), and a root over the kinds and ``thing``.

    ``thing`` has all 16 singleton records, so it and the root have rank 16.
    One leaf per group and every other parent get a synonym: the same
    feature subsets with other counts, so an equivalent word. Children come
    before parents.
    """

    def rows(recs):
        return [tuple(int(f in feats) for f in FEATURES) for feats, _ in recs]

    def recount(recs):
        return [(feats, float(rng.randint(1, 9))) for feats, _ in recs]

    def mix(name, level, members):
        weights = [(m.name, float(rng.randint(1, 5))) for m in members]
        return Noun(name, level, [r for m in members for r in m.rows], children=weights)

    nouns, parents = [], []
    for g in range(groups):
        if g % 4 == 0:
            order = rng.sample(FEATURES, len(FEATURES))
        # The four pools of a kind cover all 16 features, so every kind is dense.
        chunk = order[4 * (g % 4) : 4 * (g % 4) + 4]
        pool = chunk + rng.sample([f for f in FEATURES if f not in chunk], 2)
        leaves = []
        for k, sizes in enumerate(LEAF_RECORDS):
            recs = [(tuple(sorted(rng.sample(pool, n))), float(rng.randint(1, 9))) for n in sizes]
            leaves.append(Noun(f"{prefix}{g}_{k}", "leaf", rows(recs), recs))
        base = leaves[g % len(LEAF_RECORDS)]
        leaves.append(
            Noun(base.name + "_syn", "leaf", base.rows, recount(base.records), synonym_of=base.name)
        )
        parent = mix(f"{prefix}{g}", "parent", leaves)
        nouns += leaves + [parent]
        parents.append(parent)
        if g % 2:
            recs = recount([rec for leaf in leaves for rec in leaf.records])
            nouns.append(Noun(parent.name + "_syn", "parent", parent.rows, recs, synonym_of=parent.name))
    kinds = [mix(f"{prefix}kind{i // 4}", "kind", parents[i : i + 4]) for i in range(0, groups, 4)]
    thing_recs = [((f,), float(rng.randint(1, 9))) for f in FEATURES]
    thing = Noun(f"{prefix}thing", "thing", rows(thing_recs), thing_recs)
    root = mix(f"{prefix}entity", "root", kinds + [thing])
    nouns += kinds + [thing, root]

    parent_of = {child: n.name for n in nouns if n.children for child, _ in n.children}
    for noun in nouns:
        name = noun.synonym_of if noun.level == "parent" and noun.synonym_of else noun.name
        while name in parent_of:
            name = parent_of[name]
            noun.ancestors.append(name)
    return nouns


def add_nouns(lex, atom: str, nouns: list[Noun]):
    labels = lex.registry.labels(atom)
    for noun in nouns:
        if noun.records is not None:
            records = [D.SubsetRecord(noun.name, frozenset(f), c) for f, c in noun.records]
            dm = D.build_from_subsets(records, labels)
        else:
            dm = D.taxonomy_mix(noun.children, lex)
        lex.add_word(D.WordMeaning.for_type(lex.registry, noun.name, atom, dm))


def noun_pairs(rng: random.Random, nouns: list[Noun]) -> list[tuple[str, str]]:
    """20 pairs in three cost tiers, shuffled.

    6 among leaves (2 synonym, 2 within a group, 2 across groups), 10 of a
    leaf or parent with a parent (3 hyponym, 3 hypernym, 2 foreign parent,
    2 parent-parent), 4 of a leaf with its kind or the root (16-dim, dense),
    each way. The tiers put op_ms.p50 inside the middle tier and op_ms.p90
    inside the top one.
    """
    leaves = [n for n in nouns if n.level == "leaf"]
    parents = [n for n in nouns if n.level == "parent"]
    groups = [[n for n in leaves if n.ancestors[0] == p.name] for p in parents if not p.synonym_of]

    def either(a, b):
        return (a, b) if rng.random() < 0.5 else (b, a)

    def leaf():
        return rng.choice(leaves)

    pairs = []
    for _ in range(2):
        syn = rng.choice([n for n in leaves if n.synonym_of])
        pairs.append(either(syn.name, syn.synonym_of))
        pairs.append(either(*(n.name for n in rng.sample(rng.choice(groups), 2))))
        first, second = rng.sample(groups, 2)
        pairs.append(either(rng.choice(first).name, rng.choice(second).name))
    for _ in range(3):
        n = leaf()
        pairs.append((n.name, n.ancestors[0]))
        n = leaf()
        pairs.append((n.ancestors[0], n.name))
    for _ in range(2):
        n = leaf()
        pairs.append(either(n.name, rng.choice([p for p in parents if p.name != n.ancestors[0]]).name))
        pairs.append(either(*(p.name for p in rng.sample(parents, 2))))
    for level in (1, -1):  # the leaf's kind, then the root
        n = leaf()
        pairs.append((n.name, n.ancestors[level]))
        n = leaf()
        pairs.append((n.ancestors[level], n.name))
    rng.shuffle(pairs)
    return pairs


# --- a sentence world: nouns, verbs and adjectives over positive vectors --------

CLASS_TYPES = {"N": "{n}", "I": "{n}^r {s}", "V": "{n}^r {s} {n}^l", "A": "{n} {n}^l"}
STRUCTURES = {
    "intransitive": "NI",
    "svo": "NVN",
    "adj-svo": "ANVN",
    "adj-both": "ANVAN",
}
# Each is refuted by oracles.grammatical: odd parity or a leading right adjoint.
UNGRAMMATICAL = ["VNN", "NV", "IN", "ANV"]


@dataclass
class Word:
    name: str
    cls: str
    vector: list | None = None  # a leaf is pure, so sentences of leaves are rank 1
    children: list | None = None  # hypernym: (child, weight)
    ancestors: list = field(default_factory=list)


def sentence_world(rng, prefix: str, classes: dict, dims: dict) -> dict[str, list[Word]]:
    """Per word class: groups of leaves, one hypernym per group, and a top word."""
    sizes = {"N": dims["n"], "I": dims["n"] * dims["s"], "V": dims["n"] ** 2 * dims["s"]}
    sizes["A"] = dims["n"] ** 2
    world = {}
    for cls, groups in classes.items():
        words, hypernyms = [], []
        for g in range(groups):
            leaves = [
                Word(f"{prefix}{cls.lower()}{g}_{k}", cls, [rng.uniform(0.05, 1.0) for _ in range(sizes[cls])])
                for k in range(3)
            ]
            hyper = Word(
                f"{prefix}{cls.lower()}{g}",
                cls,
                children=[(w.name, float(rng.randint(1, 4))) for w in leaves],
            )
            for w in leaves:
                w.ancestors.append(hyper.name)
            words += leaves + [hyper]
            hypernyms.append(hyper)
        if groups > 1:
            top = Word(f"{prefix}{cls.lower()}top", cls, children=[(h.name, 1.0) for h in hypernyms])
            for w in words:
                w.ancestors.append(top.name)
            words.append(top)
        world[cls] = words
    return world


def add_world(lex, world: dict[str, list[Word]], atoms: dict):
    for cls, words in world.items():
        ptype = CLASS_TYPES[cls].format(**atoms)
        for w in words:
            if w.children is not None:
                dm = D.taxonomy_mix(w.children, lex)
            else:
                dm = D.pure(w.vector)
            lex.add_word(D.WordMeaning.for_type(lex.registry, w.name, ptype, dm))


def random_sentence(rng, world, structure: str, leaves_only: bool = False) -> list[str]:
    pool = {c: [w for w in ws if w.ancestors or not leaves_only] for c, ws in world.items()}
    return [rng.choice(pool[c]).name for c in structure]


def hypernym_swap(rng, world, words: list[str]) -> list[str]:
    """Replace each word by one of its ancestors with probability 1/2, at least one."""
    by_name = {w.name: w for ws in world.values() for w in ws}
    out = list(words)
    forced = rng.randrange(len(words))
    for i, name in enumerate(words):
        if i == forced or rng.random() < 0.5:
            out[i] = rng.choice(by_name[name].ancestors)
    return out


# --- workloads ------------------------------------------------------------------


class Workload:
    """Shared state: the seed, a scratch directory, and measured save times."""

    name = ""
    block = 1
    warmup = True  # run block 0 once before timing, so lazy set-up is done

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.save_s: list[float] = []
        self.file_bytes = 0
        self.tracer = None
        self.child_spans: list[list] = []

    def specs(self, b: int) -> list:
        raise NotImplementedError

    def finish(self) -> set[int]:
        """Op indices failed by checks that run once after the loop."""
        return set()

    def cleanup(self):
        pass


class WordEntail(Workload):
    """fidelity + classify on seeded pairs of 16-dim taxonomy nouns."""

    name = "word-entail"
    block = 20

    def __init__(self, seed, workdir, scale=1.0):
        super().__init__(seed, workdir)
        self.nouns = noun_taxonomy(_rng(seed, self.name), max(5, round(16 * scale)), "w")
        self.oracle = SupportOracle({n.name: n.rows for n in self.nouns})

    def setup(self):
        lex = D.Lexicon(D.SpaceRegistry().register("n", FEATURES))
        add_nouns(lex, "n", self.nouns)
        loaded = D.load(io.StringIO(_save_in_memory(self, lex)))
        self.dms = {n.name: loaded.word(n.name).dm for n in self.nouns}

    def specs(self, b):
        return noun_pairs(_rng(self.seed, self.name, b), self.nouns)

    def run(self, spec):
        a, b = self.dms[spec[0]], self.dms[spec[1]]
        return D.fidelity(a, b), D.classify(a, b)

    def check(self, i, spec, out):
        f, verdict = out
        return (
            verdict.relation.value == self.oracle.relation(*spec)
            and _unit(f)
            and _unit(verdict.forward)
            and _unit(verdict.backward)
        )


class SentenceEntail(Workload):
    """Parse, reduce and compose two sentences (n=8, s=2), then score the pair."""

    name = "sentence-entail"
    block = 10

    def __init__(self, seed, workdir, scale=1.0):
        super().__init__(seed, workdir)
        groups = max(1, round(2 * scale))
        classes = {"N": 2 * groups, "I": groups, "V": groups, "A": groups}
        self.world = sentence_world(_rng(seed, self.name), "", classes, {"n": 8, "s": 2})
        self.types = {
            w.name: CLASS_TYPES[w.cls].format(n="n", s="s")
            for ws in self.world.values()
            for w in ws
        }

    def setup(self):
        registry = D.SpaceRegistry()
        registry.register("n", [f"e{i}" for i in range(8)]).register("s", ["true", "false"])
        lex = D.Lexicon(registry)
        add_world(lex, self.world, {"n": "n", "s": "s"})
        _save_in_memory(self, lex)
        self.lex = lex

    def specs(self, b):
        """10 ops, 20 sequences: 1 intransitive, 3 SVO, 2 adj+SVO and 2 adj-both
        pairs, plus 2 ops whose first sequence is ungrammatical. The second
        adj+SVO and adj-both pairs are random; the others swap hypernyms into
        a sentence of leaves.

        The mix puts op_ms.p50 inside the SVO swaps, which all take the same
        path through the measures, and op_ms.p90 inside the adj-both pairs,
        which dominate the run's time.
        """
        rng = _rng(self.seed, self.name, b)
        out = []
        for structure, count in (("intransitive", 1), ("svo", 3), ("adj-svo", 2), ("adj-both", 2)):
            letters = STRUCTURES[structure]
            for k in range(count):
                if structure.startswith("adj") and k == 1:
                    out.append(("random", *(random_sentence(rng, self.world, letters) for _ in "ab")))
                    continue
                words = random_sentence(rng, self.world, letters, leaves_only=True)
                swapped = hypernym_swap(rng, self.world, words)
                out.append(("hyponym", words, swapped) if rng.random() < 0.5 else ("hypernym", swapped, words))
        for _ in range(2):
            bad = random_sentence(rng, self.world, rng.choice(UNGRAMMATICAL))
            good = random_sentence(rng, self.world, rng.choice(list(STRUCTURES.values())))
            out.append(("ungrammatical", bad, good))
        rng.shuffle(out)
        return out

    def run(self, spec):
        _, first, second = spec
        target = D.parse_type("s")
        diagrams = [
            D.reduce([D.parse_type(self.types[w]) for w in words], target)
            for words in (first, second)
        ]
        if None in diagrams:
            return diagrams, None, None
        a, b = (
            D.compose([self.lex.word(w) for w in words], d, self.lex.registry).dm
            for words, d in zip((first, second), diagrams)
        )
        return diagrams, D.classify(a, b), D.fidelity(a, b)

    def check(self, i, spec, out):
        kind, first, second = spec
        diagrams, verdict, f = out
        for words, d in zip((first, second), diagrams):
            if (d is not None) != grammatical([self.types[w] for w in words]):
                return False
        if kind == "ungrammatical":
            return verdict is None
        if not (_unit(f) and _unit(verdict.forward) and _unit(verdict.backward)):
            return False
        if kind == "hyponym":
            return verdict.forward > 0.0
        if kind == "hypernym":
            return verdict.backward > 0.0
        return True


class LexiconCli(Workload):
    """Save a seeded lexicon, then run one ``densem`` command on it."""

    name = "lexicon-cli"
    block = 4
    warmup = False  # each command is a fresh process; nothing to warm

    def __init__(self, seed, workdir, scale=1.0):
        super().__init__(seed, workdir)
        self.path = workdir / f"{self.name}-{seed}-{os.getpid()}.json"
        rng = _rng(seed, self.name)
        self.nouns = noun_taxonomy(rng, max(5, round(22 * scale)), "n")
        self.oracle = SupportOracle({n.name: n.rows for n in self.nouns})
        self.world = sentence_world(rng, "m", {"N": 2, "V": 1, "A": 1}, {"n": 4, "s": 2})
        self.tables = {}
        for k in range(3):
            pairs = [
                D.PairRecord(
                    f"table{k}",
                    {f"m{rng.randrange(4)}": rng.uniform(0.1, 1.0)},
                    {f"m{rng.randrange(4)}": rng.uniform(0.1, 1.0)},
                    float(rng.randint(1, 5)),
                )
                for _ in range(6)
            ]
            self.tables[f"table{k}"] = pairs
        self.outputs: dict[int, tuple] = {}

    def setup(self):
        registry = D.SpaceRegistry().register("n", FEATURES)
        registry.register("m", [f"m{i}" for i in range(4)]).register("t", ["true", "false"])
        lex = D.Lexicon(registry)
        add_nouns(lex, "n", self.nouns)
        add_world(lex, self.world, {"n": "m", "s": "t"})
        labels = registry.labels("m")
        for name, pairs in self.tables.items():
            table = D.build_verb_from_pairs(pairs, labels, labels)
            lex.add_verb_table(name, D.VerbTable("m", "m", table))
        self.save_s.append(_save(lex, self.path))
        self.file_bytes = self.path.stat().st_size
        self.lex = lex

    def specs(self, b):
        rng = _rng(self.seed, self.name, b)
        pair = noun_pairs(rng, self.nouns)[0]
        structure = ("svo", "adj-svo")[b % 2]
        words = random_sentence(rng, self.world, STRUCTURES[structure], leaves_only=True)
        path = str(self.path)
        return [
            ("validate", ["lexicon", "validate", path, "--json"]),
            ("sim", ["sim", path, *pair, "--json"]),
            (
                "compose",
                ["compose", path, *words, "--target", "t", "--json",
                 "--against", " ".join(hypernym_swap(rng, self.world, words))],
            ),
            ("repro", ["repro", "--all", "--json"]),
        ]

    def run(self, spec):
        self.save_s.append(_save(self.lex, self.path))
        env = dict(os.environ)
        src = str(Path.cwd() / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        trace_file = None
        if self.tracer is not None:
            trace_file = self.workdir / f"cli-spans-{os.getpid()}.jsonl"
            env["PERFBENCH_TRACE_FILE"] = str(trace_file)
        proc = subprocess.run(
            [sys.executable, str(LAUNCHER), *spec[1]],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        if trace_file is not None:
            self.child_spans.append(read_spans(trace_file, self.tracer.op))
            trace_file.unlink()
        if proc.returncode != 0:
            raise RuntimeError(f"densem {spec[1][0]} exited {proc.returncode}: {proc.stderr[-500:]}")
        return json.loads(proc.stdout)

    def check(self, i, spec, out):
        kind, args = spec
        if kind == "validate":
            registry = self.lex.registry
            return out == {
                "valid": True,
                "spaces": {atom: registry.dim(atom) for atom in registry.atoms()},
                "words": sorted(self.lex.words()),
                "verbs": sorted(self.lex.verbs()),
            }
        if kind == "repro":
            return bool(out) and all(case["passed"] for case in out)
        if kind == "sim":
            if out["relation"] != self.oracle.relation(args[2], args[3]):
                return False
        elif kind == "compose" and not out["against"]["representativeness_fwd"] > 0.0:
            return False
        self.outputs[i] = (spec, out)
        return True

    def finish(self):
        """load(save(lex)) must be bit-exact; CLI numbers must match the API.

        A lexicon that does not round-trip fails every op whose output was kept.
        """
        loaded = D.load(self.path)
        outputs, self.outputs = self.outputs, {}
        if set(loaded.words()) != set(self.lex.words()) or any(
            not np.array_equal(loaded.word(w).dm.matrix, self.lex.word(w).dm.matrix)
            for w in self.lex.words()
        ) or any(
            not np.array_equal(loaded.verb_table(v).table, self.lex.verb_table(v).table)
            for v in self.lex.verbs()
        ):
            return set(outputs)
        failed = set()
        for i, ((kind, args), out) in outputs.items():
            match = self._sim_matches if kind == "sim" else self._compose_matches
            if not match(loaded, args, out):
                failed.add(i)
        return failed

    def cleanup(self):
        self.path.unlink(missing_ok=True)

    @staticmethod
    def _sim_matches(lex, args, out):
        a, b = args[2], args[3]
        rho, sigma = lex.word(a).dm, lex.word(b).dm
        verdict = D.classify(rho, sigma)
        return (
            _close(out["fidelity"], D.fidelity(rho, sigma))
            and _close(out["representativeness_ab"], verdict.forward)
            and _close(out["representativeness_ba"], verdict.backward)
            and out["relation"] == verdict.relation.value
        )

    @staticmethod
    def _compose_matches(lex, args, out):
        words = args[2 : args.index("--target")]
        other = args[args.index("--against") + 1].split()
        target = D.parse_type("t")

        def sentence(ws):
            meanings = [lex.word(w) for w in ws]
            diagram = D.reduce([m.ptype for m in meanings], target)
            return D.compose(meanings, diagram, lex.registry).dm

        first, second = sentence(words), sentence(other)
        against = out["against"]
        return (
            np.allclose(out["matrix"], first.matrix, rtol=1e-9, atol=1e-12)
            and np.allclose(against["matrix"], second.matrix, rtol=1e-9, atol=1e-12)
            and _close(against["fidelity"], D.fidelity(first, second))
            and _close(against["representativeness_fwd"], D.representativeness(first, second))
            and _close(against["representativeness_bwd"], D.representativeness(second, first))
        )


WORKLOADS = {w.name: w for w in (WordEntail, SentenceEntail, LexiconCli)}
