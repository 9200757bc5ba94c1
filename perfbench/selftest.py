"""Self-test of the benchmark at tiny sizes.

Run from the root of a source checkout:  python3 perfbench/selftest.py

Checks that one seed gives identical inputs, that the oracles and the span
arithmetic are right on small known cases, and that an injected wrong
answer is counted as a failure by each workload's checks.
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import run  # pins BLAS threads before numpy loads

D = run.import_densem()

from oracles import grammatical, rank  # noqa: E402
from spans import layer_metrics  # noqa: E402
from workloads import CLASS_TYPES, STRUCTURES, UNGRAMMATICAL, WORKLOADS  # noqa: E402

SCALE = 0.2


def inputs(wl) -> str:
    """Everything a workload generated from its seed, as comparable text."""
    fields = {k: v for k, v in vars(wl).items() if k in ("nouns", "world", "tables", "types")}
    return repr(fields) + repr([wl.specs(b) for b in range(3)])


def check_inputs(workdir):
    for cls in WORKLOADS.values():
        first, again = cls(7, workdir, SCALE), cls(7, workdir, SCALE)
        assert inputs(first) == inputs(again), f"{cls.name}: seed 7 gave different inputs"
        assert inputs(first) != inputs(cls(8, workdir, SCALE)), f"{cls.name}: seed ignored"


def check_oracles():
    assert rank([(1, 1, 0), (0, 1, 1), (1, 2, 1)]) == 2
    assert rank([(1, 0), (0, 1)]) == 2 and rank([(0, 0)]) == 0
    types = {cls: t.format(n="n", s="s") for cls, t in CLASS_TYPES.items()}
    for structure in STRUCTURES.values():
        assert grammatical([types[c] for c in structure]) is True, structure
    for structure in UNGRAMMATICAL:
        assert grammatical([types[c] for c in structure]) is False, structure


def check_spans():
    ms = 1_000_000
    spans = [
        [0, "op", 0, 10 * ms, None, 0, None],
        [1, "density.classify", 1 * ms, 9 * ms, 0, 0, None],
        [2, "spectral.eigh", 2 * ms, 5 * ms, 1, 0, 11],
        [3, "spectral.eigh", 5 * ms, 8 * ms, 1, 0, 11],
    ]
    m = layer_metrics([spans], 1, 12.0, 10.0)
    assert m["density.classify.self_ms"]["value"] == 2.0
    assert m["spectral.eigh.calls"]["value"] == 2.0
    assert m["spectral.eigh.self_ms"]["value"] == 6.0
    assert m["spectral.eigh.distinct_frac"]["value"] == 0.5
    assert m["trace.coverage"]["value"] == 0.8
    assert abs(m["trace.overhead_frac"]["value"] - 0.2) < 1e-12


def once(fn, fake):
    """``fn``, except that its first non-None result ``r`` comes back as ``fake(r)``."""
    done = []

    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        if out is None or done:
            return out
        done.append(True)
        return fake(out)

    return wrapper


def one_block(wl) -> set:
    """Failed op ids of one block; the failure reports are expected, so hidden."""
    wl.setup()
    with contextlib.redirect_stderr(io.StringIO()):
        _, _, failed = run.measure(wl, 0.0)
    return failed


def check_injected(workdir):
    wl = WORKLOADS["word-entail"](3, workdir, SCALE)
    assert one_block(wl) == set(), "word-entail fails without injection"
    original = D.classify
    wrong = {r: s for r, s in zip(D.Relation, list(D.Relation)[1:] + list(D.Relation)[:1])}
    D.classify = once(original, lambda v: D.EntailmentVerdict(v.forward, v.backward, wrong[v.relation]))
    try:
        assert one_block(wl) == {0}, "an injected wrong verdict was not counted"
    finally:
        D.classify = original

    wl = WORKLOADS["sentence-entail"](3, workdir, SCALE)
    assert one_block(wl) == set(), "sentence-entail fails without injection"
    original = D.reduce
    D.reduce = once(original, lambda d: None)
    try:
        failed = one_block(wl)
    finally:
        D.reduce = original
    assert len(failed) == 1, "a reduction dropped for a grammatical sequence was not counted"

    wl = WORKLOADS["lexicon-cli"](3, workdir, SCALE)
    assert one_block(wl) == set(), "lexicon-cli fails without injection"
    original_run = wl.run

    def skewed(spec):
        out = original_run(spec)
        if spec[0] == "sim":
            out["fidelity"] *= 1 + 1e-6
        return out

    wl.run = skewed
    assert one_block(wl) == {1}, "a CLI fidelity off the API value was not counted"
    wl.cleanup()


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT, prefix="selftest-") as tmp:
        workdir = Path(tmp)
        check_inputs(workdir)
        check_oracles()
        check_spans()
        check_injected(workdir)
    print("perfbench selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
