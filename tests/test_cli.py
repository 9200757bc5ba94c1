"""End-to-end tests of the command-line interface."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import densem
from densem.cli import main
from densem.compose import SpaceRegistry, WordMeaning
from densem.density import DensityMatrix, mixture, pure
from densem.errors import DensemError
from densem.lexicon import Lexicon, SubsetRecord, VerbTable, build_from_subsets, save


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def lexicon_path(tmp_path):
    """A lexicon exercising every word kind plus a verb table."""
    registry = SpaceRegistry()
    registry.register("n", ("pub", "pitcher", "tonic"))
    registry.register("p", ("patient", "mental", "surgery"))
    registry.register("t", ("lions", "sloths", "meat", "plants"))
    registry.register("s", ("true", "false"))
    lex = Lexicon(registry)

    lex.add_word(WordMeaning.for_type(registry, "lager", "n", pure([6.0, 5.0, 0.0])))
    lex.add_word(WordMeaning.for_type(registry, "ale", "n", pure([7.0, 3.0, 0.0])))
    lex.add_word(
        WordMeaning.for_type(
            registry,
            "beer",
            "n",
            build_from_subsets(
                [
                    SubsetRecord("beer", frozenset({"pub"}), 6.0),
                    SubsetRecord("beer", frozenset({"pub", "pitcher"}), 7.0),
                ],
                registry.labels("n"),
            ),
        )
    )
    lex.add_word(
        WordMeaning.for_type(
            registry, "psychiatrist", "p", DensityMatrix(np.diag([2.0, 5.0, 0.0]))
        )
    )
    lex.add_word(
        WordMeaning.for_type(
            registry, "doctor", "p", DensityMatrix(np.diag([5.0, 2.0, 3.0]))
        )
    )

    lions = pure([1.0, 0.0, 0.0, 0.0])
    sloths = pure([0.0, 1.0, 0.0, 0.0])
    meat = pure([0.0, 0.0, 1.0, 0.0])
    lex.add_word(WordMeaning.for_type(registry, "lions", "t", lions))
    lex.add_word(WordMeaning.for_type(registry, "sloths", "t", sloths))
    lex.add_word(WordMeaning.for_type(registry, "meat", "t", meat))
    lex.add_word(
        WordMeaning.for_type(registry, "mammals", "t", mixture([0.5, 0.5], [lions, sloths]))
    )
    eat_vec = np.zeros(4 * 2 * 4)
    for i, j, k in [(0, 0, 2), (0, 1, 3), (1, 1, 2), (1, 0, 3)]:
        eat_vec[i * 8 + j * 4 + k] = 1.0
    lex.add_word(WordMeaning.for_type(registry, "eat", "t^r s t^l", pure(eat_vec)))

    lex.add_verb_table(
        "drink",
        VerbTable("p", "n", np.array([[4.0, 5, 3], [6, 3, 2], [1, 2, 1]])),
    )
    path = tmp_path / "lexicon.json"
    save(lex, path)
    return str(path)


class TestSim:
    def test_beer_lager(self, runner, lexicon_path):
        result = runner.invoke(main, ["sim", lexicon_path, "lager", "beer"])
        assert result.exit_code == 0
        assert "F(lager, beer)  = 0.9334" in result.output
        assert "R(lager -> beer) = 0.8203" in result.output
        assert "R(beer -> lager) = 0.0000" in result.output
        assert "relation: hyponym" in result.output

    def test_self_comparison(self, runner, lexicon_path):
        result = runner.invoke(main, ["sim", lexicon_path, "beer", "beer"])
        assert result.exit_code == 0
        assert "relation: equivalent" in result.output
        assert "F(beer, beer)  = 1.0000" in result.output

    def test_psychiatrist_doctor(self, runner, lexicon_path):
        result = runner.invoke(main, ["sim", lexicon_path, "psychiatrist", "doctor"])
        assert result.exit_code == 0
        assert "F(psychiatrist, doctor)  = 0.7559" in result.output
        assert "R(psychiatrist -> doctor) = 0.4805" in result.output
        assert "R(doctor -> psychiatrist) = 0.0000" in result.output

    def test_json_output_and_stability(self, runner, lexicon_path):
        args = ["sim", lexicon_path, "lager", "beer", "--json"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == 0
        assert first.output == second.output
        payload = json.loads(first.output)
        assert abs(payload["fidelity"] - 0.9334406651790116) < 1e-12
        assert payload["relation"] == "hyponym"

    def test_log_base_e(self, runner, lexicon_path):
        result = runner.invoke(
            main, ["sim", lexicon_path, "lager", "beer", "--json", "--log-base", "e"]
        )
        payload = json.loads(result.output)
        n2 = 1.0 / 0.820319655362545 - 1.0
        assert abs(payload["representativeness_ab"] - 1.0 / (1.0 + n2 * math.log(2))) < 1e-9

    def test_missing_word_is_domain_failure(self, runner, lexicon_path):
        result = runner.invoke(main, ["sim", lexicon_path, "lager", "stout"])
        assert result.exit_code == 1
        assert "stout" in result.output

    def test_entail_alias(self, runner, lexicon_path):
        result = runner.invoke(main, ["entail", lexicon_path, "lager", "beer"])
        assert result.exit_code == 0
        assert "relation: hyponym" in result.output

    def test_tol_flag(self, runner, lexicon_path):
        result = runner.invoke(
            main, ["sim", lexicon_path, "lager", "beer", "--tol", "1e-6"]
        )
        assert result.exit_code == 0

    def test_strict_tol_on_rank_deficient_words(self, runner, tmp_path):
        # Kernel eigenvalues of these mixtures are round-off of either sign,
        # far above a 1e-17 relative cut; a strict --tol must still score them.
        rng = np.random.default_rng(5)
        registry = SpaceRegistry().register("n", tuple(f"f{i}" for i in range(16)))
        lex = Lexicon(registry)
        for name, rank in (("a", 3), ("b", 2)):
            parts = [pure(rng.standard_normal(16)) for _ in range(rank)]
            dm = mixture(rng.uniform(0.5, 2.0, rank), parts)
            lex.add_word(WordMeaning.for_type(registry, name, "n", dm))
        path = tmp_path / "lex.json"
        save(lex, path)
        for pair in (["a", "b"], ["b", "a"]):
            args = ["sim", str(path), *pair, "--tol", "1e-17", "--json"]
            result = runner.invoke(main, args)
            assert result.exit_code == 0, result.output
            assert 0.0 <= json.loads(result.output)["fidelity"] <= 1.0

    @pytest.mark.parametrize("bad", ["0", "1.5", "nan"])
    def test_tol_out_of_range_is_usage_error(self, runner, lexicon_path, bad):
        result = runner.invoke(main, ["sim", lexicon_path, "lager", "beer", "--tol", bad])
        assert result.exit_code == 2
        assert "--tol" in result.output


class TestReduce:
    def test_transitive(self, runner):
        result = runner.invoke(main, ["reduce", "n", "n^r s n^l", "n", "--target", "s"])
        assert result.exit_code == 0
        assert "links: [[0, 1], [3, 4]]" in result.output
        assert "residuals: [2]" in result.output

    def test_single_residual(self, runner):
        result = runner.invoke(main, ["reduce", "n", "--target", "n"])
        assert result.exit_code == 0
        assert "links: []" in result.output

    def test_no_reduction_exit_one(self, runner):
        result = runner.invoke(main, ["reduce", "n", "n", "--target", "s"])
        assert result.exit_code == 1
        assert "NO REDUCTION" in result.output

    def test_json(self, runner):
        result = runner.invoke(
            main, ["reduce", "n", "n^r s n^l", "n", "--target", "s", "--json"]
        )
        payload = json.loads(result.output)
        assert payload == {
            "reduces": True,
            "links": [[0, 1], [3, 4]],
            "residuals": [2],
            "target": "s",
        }

    def test_parse_error_exit_two(self, runner):
        result = runner.invoke(main, ["reduce", "n^x", "--target", "s"])
        assert result.exit_code == 2
        assert "position" in result.output

    def test_too_long_for_the_search_exit_one(self, runner):
        result = runner.invoke(main, ["reduce", *["n n^l"] * 600, "n", "--target", "n"])
        assert result.exit_code == 1
        assert "too long" in result.output
        assert not isinstance(result.exception, DensemError)
        assert "Traceback" not in result.output


class TestCompose:
    def test_truth_sentence(self, runner, lexicon_path):
        result = runner.invoke(
            main, ["compose", lexicon_path, "lions", "eat", "meat", "--target", "s"]
        )
        assert result.exit_code == 0
        assert "trace = 1.0000" in result.output

    def test_against_mixture(self, runner, lexicon_path):
        result = runner.invoke(
            main,
            [
                "compose", lexicon_path, "lions", "eat", "meat",
                "--target", "s", "--against", "mammals eat meat", "--json",
            ],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        np.testing.assert_allclose(payload["matrix"], [[1.0, 0.0], [0.0, 0.0]], atol=1e-9)
        np.testing.assert_allclose(
            payload["against"]["matrix"], [[0.5, 0.0], [0.0, 0.5]], atol=1e-9
        )
        assert abs(payload["against"]["representativeness_fwd"] - 0.5) < 1e-9
        assert payload["against"]["representativeness_bwd"] == 0.0

    def test_ungrammatical_exit_one(self, runner, lexicon_path):
        result = runner.invoke(
            main, ["compose", lexicon_path, "lions", "meat", "--target", "s"]
        )
        assert result.exit_code == 1
        assert "reduce" in result.output

    def test_too_long_for_the_search_exit_one(self, runner, lexicon_path):
        result = runner.invoke(
            main, ["compose", lexicon_path, *["lions"] * 600, "--target", " ".join(["t"] * 600)]
        )
        assert result.exit_code == 1
        assert "too long" in result.output
        assert not isinstance(result.exception, DensemError)
        assert "Traceback" not in result.output

    def test_kronecker_pair(self, runner, lexicon_path):
        result = runner.invoke(
            main,
            [
                "compose", lexicon_path, "psychiatrist", "lager",
                "--kronecker", "drink", "--against", "doctor beer", "--json",
            ],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert abs(payload["against"]["fidelity"] - 0.8517340478908533) < 1e-8
        assert abs(payload["against"]["representativeness_fwd"] - 0.5882834945505457) < 1e-8
        assert payload["against"]["representativeness_bwd"] == 0.0

    @pytest.mark.parametrize("target", ["n^x", "s"])
    def test_kronecker_with_target_is_usage_error(self, runner, lexicon_path, target):
        result = runner.invoke(
            main,
            [
                "compose", lexicon_path, "psychiatrist", "lager",
                "--kronecker", "drink", "--target", target,
            ],
        )
        assert result.exit_code == 2
        assert "--target does not apply to --kronecker" in result.output

    def test_kronecker_needs_two_words(self, runner, lexicon_path):
        result = runner.invoke(
            main, ["compose", lexicon_path, "psychiatrist", "--kronecker", "drink"]
        )
        assert result.exit_code == 2


class TestRepro:
    @pytest.mark.parametrize(
        "case_id",
        [
            "lions-mammals",
            "truth-1d",
            "truth-2d",
            "dogs-2d",
            "mammals-again",
            "beer-lager",
            "psychiatrist-doctor",
            "drinking-sentences",
        ],
    )
    def test_each_case_passes(self, runner, case_id):
        result = runner.invoke(main, ["repro", case_id])
        assert result.exit_code == 0, result.output
        assert f"case {case_id}: PASS" in result.output

    def test_all(self, runner):
        result = runner.invoke(main, ["repro", "--all"])
        assert result.exit_code == 0
        case_lines = [l for l in result.output.splitlines() if l.startswith("case ")]
        assert len(case_lines) == 8

    def test_json(self, runner):
        result = runner.invoke(main, ["repro", "--all", "--json"])
        payload = json.loads(result.output)
        assert len(payload) == 8
        assert all(case["passed"] for case in payload)

    def test_reported_windows_present(self, runner):
        result = runner.invoke(main, ["repro", "drinking-sentences"])
        assert "MISS (reported, non-gating)" in result.output
        assert "Achieved values" in result.output

    def test_natural_log_figures_noted(self, runner):
        result = runner.invoke(main, ["repro", "mammals-again"])
        assert "base e" in result.output
        assert "0.41" in result.output and "0.71" in result.output

    def test_unknown_case_exit_two(self, runner):
        result = runner.invoke(main, ["repro", "nope"])
        assert result.exit_code == 2

    def test_requires_case_or_all(self, runner):
        result = runner.invoke(main, ["repro"])
        assert result.exit_code == 2

    def test_no_log_base_option(self, runner):
        result = runner.invoke(main, ["repro", "--all", "--log-base", "e"])
        assert result.exit_code == 2
        assert "--log-base" in result.output


class TestLexiconValidate:
    def test_valid(self, runner, lexicon_path):
        result = runner.invoke(main, ["lexicon", "validate", lexicon_path])
        assert result.exit_code == 0
        assert result.output.startswith("OK:")

    def test_invalid_reports_path(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"spaces": {}, "words": {}}')
        result = runner.invoke(main, ["lexicon", "validate", str(bad)])
        assert result.exit_code == 1
        assert "$" in result.output

    def test_missing_file(self, runner, tmp_path):
        result = runner.invoke(main, ["lexicon", "validate", str(tmp_path / "nope.json")])
        assert result.exit_code == 1


class TestErrorBoundary:
    @pytest.mark.parametrize(
        "args, fragment",
        [
            (["sim", "{lex}", "lager", "lions"], "dimension mismatch: 3 vs 4"),
            (
                ["compose", "{lex}", "psychiatrist", "lager", "--kronecker", "nope"],
                "lexicon has no verb table 'nope'",
            ),
            (
                ["compose", "{lex}", "lions", "lager", "--kronecker", "drink"],
                "verb table shape (3, 3) does not match subject dim 4",
            ),
            (
                ["compose", "{lex}", "lions", "eat", "meat", "--against", "lions meat"],
                "types of lions meat do not reduce to 's'",
            ),
        ],
        ids=["sim-dims", "kronecker-unknown", "kronecker-shape", "against-no-reduction"],
    )
    def test_domain_failure_exit_one(self, runner, lexicon_path, args, fragment):
        result = runner.invoke(main, [a.format(lex=lexicon_path) for a in args])
        assert result.exit_code == 1
        assert fragment in result.output
        assert isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize(
        "args",
        [["lexicon", "validate", "{dir}"], ["sim", "{dir}", "a", "b"]],
        ids=["validate", "sim"],
    )
    def test_unreadable_lexicon_exit_one(self, runner, tmp_path, args):
        result = runner.invoke(main, [a.format(dir=tmp_path) for a in args])
        assert result.exit_code == 1
        assert f"cannot read lexicon file {tmp_path}: " in result.output
        assert isinstance(result.exception, SystemExit)

    def test_no_traceback_in_a_real_process(self, tmp_path):
        src = Path(densem.__file__).resolve().parents[1]
        utf16 = tmp_path / "utf16.json"
        utf16.write_bytes(b"\xff\xfe{\x00}\x00")
        cases = [
            (["lexicon", "validate", str(tmp_path)], 1),
            (["lexicon", "validate", str(utf16)], 1),
            (["reduce", "n^x"], 2),
        ]
        env = {**os.environ, "PYTHONPATH": str(src)}
        for args, code in cases:
            result = subprocess.run(
                [sys.executable, "-m", "densem.cli", *args],
                capture_output=True,
                text=True,
                env=env,
            )
            assert result.returncode == code, (args, result.stderr)
            assert "Traceback" not in result.stderr, result.stderr
            assert "Error: " in result.stderr
        assert "Usage: " in result.stderr and "reduce [OPTIONS] TYPES..." in result.stderr


class TestDependencies:
    def test_cli_import_leaves_jsonschema_unloaded(self):
        src = Path(densem.__file__).resolve().parents[1]
        code = (
            f"import sys; sys.path.insert(0, {str(src)!r}); import densem.cli; "
            "assert 'jsonschema' not in sys.modules, 'jsonschema was imported'"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
