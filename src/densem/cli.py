"""Command-line surface: measures, reductions, composition, and repro cases."""

from __future__ import annotations

import json
import math
import sys

import click
import numpy as np
from click.core import ParameterSource

from . import lexicon as lexicon_io
from . import repro
from .compose import compose, compose_kronecker
from .density import classify, fidelity, representativeness
from .errors import DensemError, TypeParseError
from .pregroup import format_type, parse_type, reduce as reduce_types
from .spectral import Tolerance

_LOG_BASES = {"2": 2.0, "e": math.e}


def _tolerance(ctx, param, tol: float | None) -> Tolerance | None:
    """Click callback: ``--tol`` as a ``Tolerance``, or a usage error (exit 2)."""
    if tol is None:
        return None
    try:
        return Tolerance(rank_cut=tol)
    except ValueError as err:
        raise click.BadParameter(str(err), ctx=ctx, param=param) from None


json_option = click.option("--json", "as_json", is_flag=True, help="Machine-readable output.")


def measure_options(f):
    f = click.option(
        "--tol",
        type=float,
        default=None,
        callback=_tolerance,
        help="Override the relative rank tolerance (default 1e-9).",
    )(f)
    f = json_option(f)
    f = click.option(
        "--log-base",
        type=click.Choice(["2", "e"]),
        default="2",
        show_default=True,
        help="Logarithm base for divergence-derived scores.",
    )(f)
    return f


class _Command(click.Command):
    """A command whose package errors become exit codes in one place.

    A ``TypeParseError`` is a usage error (exit 2, with the command's usage
    line); any other ``DensemError`` is a domain failure (exit 1).
    """

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except TypeParseError as err:
            raise click.UsageError(str(err), ctx) from None
        except DensemError as err:
            raise click.ClickException(str(err)) from None


class _Group(click.Group):
    """Makes every command, and every subgroup's commands, a ``_Command``."""

    command_class = _Command
    group_class = type


def _load_lexicon(path: str) -> lexicon_io.Lexicon:
    try:
        return lexicon_io.load(path)
    except FileNotFoundError:
        raise click.ClickException(f"no such lexicon file: {path}")
    except OSError as err:
        raise click.ClickException(f"cannot read lexicon file {path}: {err.strerror}")


def _format_matrix(matrix: np.ndarray) -> str:
    return np.array2string(
        matrix, formatter={"float_kind": lambda x: f"{x: .4f}"}, separator=" "
    )


def _matrix_payload(matrix: np.ndarray) -> list[list[float]]:
    return [[float(x) for x in row] for row in matrix]


def _emit(as_json: bool, payload: dict, human: str):
    if as_json:
        click.echo(json.dumps(payload, indent=2))
    else:
        click.echo(human)


@click.group(cls=_Group)
@click.version_option(package_name="densem")
def main():
    """Graded similarity and entailment for operator-valued word meanings."""


@main.command()
@click.argument("lexicon_path", metavar="LEXICON")
@click.argument("word_a")
@click.argument("word_b")
@measure_options
def sim(lexicon_path, word_a, word_b, as_json, tol, log_base):
    """Compare two lexicon words: fidelity, both entailment scores, verdict."""
    lex = _load_lexicon(lexicon_path)
    base = _LOG_BASES[log_base]
    a = lex.word(word_a).dm
    b = lex.word(word_b).dm
    f = fidelity(a, b, tol=tol)
    verdict = classify(a, b, base=base, tol=tol)
    payload = {
        "word_a": word_a,
        "word_b": word_b,
        "fidelity": f,
        "representativeness_ab": verdict.forward,
        "representativeness_ba": verdict.backward,
        "relation": verdict.relation.value,
        "log_base": log_base,
    }
    human = "\n".join(
        [
            f"F({word_a}, {word_b})  = {f:.4f}",
            f"R({word_a} -> {word_b}) = {verdict.forward:.4f}",
            f"R({word_b} -> {word_a}) = {verdict.backward:.4f}",
            f"relation: {verdict.relation.value}",
        ]
    )
    _emit(as_json, payload, human)


main.add_command(sim, name="entail")


@main.command(name="reduce")
@click.argument("types", nargs=-1, required=True)
@click.option("--target", default="s", show_default=True, help="Target type string.")
@json_option
def reduce_cmd(types, target, as_json):
    """Reduce a sequence of word types; print the link diagram if one exists."""
    sequence = [parse_type(t) for t in types]
    diagram = reduce_types(sequence, parse_type(target))
    if diagram is None:
        _emit(as_json, {"reduces": False}, "NO REDUCTION")
        sys.exit(1)
    payload = {
        "reduces": True,
        "links": [list(link) for link in diagram.links],
        "residuals": list(diagram.residuals),
        "target": format_type(diagram.target),
    }
    human = "\n".join(
        [
            f"links: {[list(link) for link in diagram.links]}",
            f"residuals: {list(diagram.residuals)}",
        ]
    )
    _emit(as_json, payload, human)


@main.command(name="compose")
@click.argument("lexicon_path", metavar="LEXICON")
@click.argument("words", nargs=-1, required=True)
@click.option("--target", default="s", show_default=True, help="Target type string.")
@click.option(
    "--kronecker",
    metavar="VERB",
    default=None,
    help="Use the named verb table in the entrywise closed form (words: SUBJ OBJ); "
    "takes no --target.",
)
@click.option(
    "--against",
    default=None,
    help="Space-separated second word sequence to compare the sentence with.",
)
@measure_options
def compose_cmd(lexicon_path, words, target, kronecker, against, as_json, tol, log_base):
    """Compose lexicon words into a sentence operator."""
    source = click.get_current_context().get_parameter_source("target")
    if kronecker is not None and source is not ParameterSource.DEFAULT:
        raise click.UsageError("--target does not apply to --kronecker")
    lex = _load_lexicon(lexicon_path)
    base = _LOG_BASES[log_base]

    def build(word_list):
        if kronecker is not None:
            if len(word_list) != 2:
                raise click.UsageError(
                    "the entrywise closed form takes exactly two words: SUBJ OBJ"
                )
            table = lex.verb_table(kronecker).table
            subj, obj = (lex.word(w).dm for w in word_list)
            return compose_kronecker(table, subj, obj)
        meanings = [lex.word(w) for w in word_list]
        diagram = reduce_types([m.ptype for m in meanings], parse_type(target))
        if diagram is None:
            raise click.ClickException(
                f"types of {' '.join(word_list)} do not reduce to '{target}'"
            )
        return compose(meanings, diagram, lex.registry).dm

    sentence = build(list(words))
    payload = {
        "words": list(words),
        "matrix": _matrix_payload(sentence.matrix),
        "trace": sentence.trace,
    }
    lines = [
        f"sentence operator for: {' '.join(words)}",
        _format_matrix(sentence.matrix),
        f"trace = {sentence.trace:.4f}",
    ]
    if against is not None:
        other_words = against.split()
        other = build(other_words)
        f = fidelity(sentence, other, tol=tol)
        fwd = representativeness(sentence, other, base=base, tol=tol)
        bwd = representativeness(other, sentence, base=base, tol=tol)
        payload["against"] = {
            "words": other_words,
            "matrix": _matrix_payload(other.matrix),
            "trace": other.trace,
            "fidelity": f,
            "representativeness_fwd": fwd,
            "representativeness_bwd": bwd,
            "log_base": log_base,
        }
        lines += [
            "",
            f"against: {' '.join(other_words)}",
            _format_matrix(other.matrix),
            f"trace = {other.trace:.4f}",
            f"F  = {f:.4f}",
            f"R(first -> second) = {fwd:.4f}",
            f"R(second -> first) = {bwd:.4f}",
        ]
    _emit(as_json, payload, "\n".join(lines))


@main.command(name="repro")
@click.argument("case_id", required=False, type=click.Choice(sorted(repro.CASES)))
@click.option("--all", "run_all_cases", is_flag=True, help="Run every case.")
@json_option
def repro_cmd(case_id, run_all_cases, as_json):
    """Re-evaluate the built-in worked examples against their expected values."""
    if run_all_cases == (case_id is not None):
        raise click.UsageError("give exactly one of CASE_ID or --all")
    results = repro.run_all() if run_all_cases else [repro.run_case(case_id)]
    if as_json:
        click.echo(json.dumps([r.to_dict() for r in results], indent=2))
    else:
        for result in results:
            click.echo(f"case {result.case_id}: {'PASS' if result.passed else 'FAIL'}")
            for check in result.checks:
                if check.mode == "gt":
                    detail = f"got {check.got:.6f}, needs > {check.expected:.6f}"
                else:
                    detail = f"got {check.got:.6f}, expected {check.expected:.6f} ± {check.tol:g}"
                if check.hard:
                    status = "PASS" if check.passed else "FAIL"
                else:
                    status = "pass" if check.passed else "MISS (reported, non-gating)"
                click.echo(f"  [{status}] {check.name}: {detail}")
            for note in result.notes:
                click.echo(f"  note: {note}")
    if not all(r.passed for r in results):
        sys.exit(1)


@main.group(name="lexicon")
def lexicon_group():
    """Lexicon file utilities."""


@lexicon_group.command(name="validate")
@click.argument("path")
@json_option
def lexicon_validate(path, as_json):
    """Check a lexicon file and summarize its contents."""
    lex = _load_lexicon(path)
    payload = {
        "valid": True,
        "spaces": {atom: lex.registry.dim(atom) for atom in lex.registry.atoms()},
        "words": sorted(lex.words()),
        "verbs": sorted(lex.verbs()),
    }
    human = (
        f"OK: {len(lex.registry.atoms())} spaces, {len(lex.words())} words, "
        f"{len(lex.verbs())} verb tables"
    )
    _emit(as_json, payload, human)


if __name__ == "__main__":
    main()
