"""Command-line interface: subcommands, flags, exit codes."""

import json

import pytest

from streamcheck import cli, harness
from streamcheck.cli import main


def test_list_enumerates_examples(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    names = [line.split()[0] for line in out.strip().splitlines()]
    assert len(names) == 8
    assert "banning-stateful" in names and "counts-drain-to-zero" in names


def test_run_expected_pass_example(capsys):
    assert main(["run", "banning-stateful", "--seed", "7", "--min-tests", "20"]) == 0
    out = capsys.readouterr().out
    assert "failed=0" in out and "observed=pass" in out


def test_run_expected_fail_example_exits_zero(capsys):
    # the stateless subject is expected to be refuted; observing the
    # refutation is a match
    assert main(["run", "banning-stateless", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "observed=fail" in out and "[ok]" in out


def test_run_all_with_json(tmp_path, capsys):
    path = tmp_path / "reports.json"
    code = main(
        ["run", "all", "--seed", "5", "--min-tests", "5", "--json", str(path)]
    )
    assert code == 0
    documents = json.loads(path.read_text())
    assert len(documents) == 8
    assert all(doc["observed"] == doc["expected"] for doc in documents)
    capsys.readouterr()


def test_run_json_to_an_unwritable_path_exits_two(tmp_path, capsys):
    path = tmp_path / "missing" / "reports.json"
    assert main(["run", "hashtags-extracted", "--min-tests", "5", "--json", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"cannot write {path}: ")
    assert "Traceback" not in captured.err
    assert "hashtags-extracted" not in captured.out and not path.parent.exists()


@pytest.mark.parametrize("existing", [True, False])
def test_run_json_check_leaves_the_path_as_it_was(tmp_path, monkeypatch, capsys, existing):
    """A run that stops before writing leaves an existing file unchanged and
    creates none."""
    path = tmp_path / "reports.json"
    if existing:
        path.write_text("earlier reports\n")

    def mismatch(spec, cfg):
        raise harness.OracleMismatch("case 0")

    monkeypatch.setattr(cli, "run_example", mismatch)
    assert main(["run", "hashtags-extracted", "--json", str(path)]) == 1
    capsys.readouterr()
    assert path.exists() is existing
    assert not existing or path.read_text() == "earlier reports\n"


def test_unknown_example_is_usage_error(capsys):
    assert main(["run", "does-not-exist"]) == 2
    assert "unknown example" in capsys.readouterr().err


def test_usage_error_exit_code(capsys):
    assert main(["run"]) == 2
    capsys.readouterr()


def test_verbose_prints_counterexample_trace(capsys):
    assert main(["run", "banning-stateless", "--verbose", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "counterexample in case" in out
    assert "instant 1:" in out


def test_inconclusive_warning(capsys):
    code = main(
        ["run", "banning-stateful", "--seed", "2", "--inconclusive-warn", "0.0"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "warning: inconclusive ratio" in out


def test_oracle_flag_runs_crosscheck(capsys):
    assert main(["run", "hashtags-counted", "--seed", "4", "--oracle"]) == 0
    capsys.readouterr()


def test_parallelism_flag_matches_sequential(tmp_path, capsys):
    seq_path = tmp_path / "seq.json"
    par_path = tmp_path / "par.json"
    assert main(["run", "all", "--seed", "8", "--json", str(seq_path)]) == 0
    assert main(["run", "all", "--seed", "8", "--parallelism", "4", "--json", str(par_path)]) == 0
    assert seq_path.read_bytes() == par_path.read_bytes()
    capsys.readouterr()


def test_eval_scenario(tmp_path, capsys):
    scenario = tmp_path / "scenario.sexpr"
    scenario.write_text(
        "(scenario (formula (always 2 (consume ?x ?o (= ?x a))))"
        " (word (a 0) (a 1)) (expect T))"
    )
    assert main(["eval", str(scenario), "--oracle"]) == 0
    out = capsys.readouterr().out
    assert "verdict=T" in out and "reference=T" in out


def test_eval_closes_a_huge_open_window(tmp_path, capsys):
    scenario = tmp_path / "scenario.sexpr"
    scenario.write_text(
        "(scenario (formula (eventually 100000000 (consume ?x ?o (= ?x c))))"
        " (word (a 0) (b 1)) (expect ?))"
    )
    assert main(["eval", str(scenario), "--oracle"]) == 0
    out = capsys.readouterr().out
    assert "verdict=?" in out and "reference=?" in out


def test_eval_decides_zero_windows_before_their_operands(tmp_path, capsys):
    scenario = tmp_path / "scenario.sexpr"
    scenario.write_text(
        "(scenario (formula (and (always 0 (undefined a)) (not (eventually 0 (undefined b)))))"
        " (word (a 0)) (expect T))"
    )
    assert main(["eval", str(scenario), "--oracle"]) == 0
    out = capsys.readouterr().out
    assert "verdict=T" in out and "reference=T" in out


def test_eval_mismatch_exits_one(tmp_path, capsys):
    scenario = tmp_path / "scenario.sexpr"
    scenario.write_text(
        "(scenario (formula (consume ?x ?o (= ?x a))) (word (b 0)) (expect T))"
    )
    assert main(["eval", str(scenario)]) == 1
    capsys.readouterr()


def test_eval_parse_error_exits_two(tmp_path, capsys):
    scenario = tmp_path / "broken.sexpr"
    scenario.write_text("(scenario (formula (= a)")
    assert main(["eval", str(scenario)]) == 2
    assert main(["eval", str(tmp_path / "missing.sexpr")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--min-tests", "0"),
        ("--min-tests", "-1"),
        ("--parallelism", "0"),
        ("--batch-interval-ms", "0"),
    ],
)
def test_run_rejects_non_positive_numbers(flag, value, capsys):
    assert main(["run", "banning-stateful", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: must be a positive integer, got {value}" in captured.err


@pytest.mark.parametrize("value", ["-1", "-0.1", "1.5", "nan", "inf"])
def test_run_rejects_an_inconclusive_warn_outside_the_unit_interval(value, capsys):
    assert main(["run", "banning-stateful", "--inconclusive-warn", value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --inconclusive-warn: must be a ratio in [0, 1], got {value}" in captured.err


ILL_FORMED_SCENARIOS = {
    "negative_literal": (
        "(scenario (formula (eventually -1 (consume ?x ?o (= ?x a)))) (word (a 0)) (expect F))",
        "cannot parse",
    ),
    "uninterpreted_predicate": (
        "(scenario (formula (frob a)) (word (a 0)) (expect T))",
        "cannot evaluate",
    ),
    "uninterpreted_predicate_under_consume": (
        "(scenario (formula (consume ?x ?o (frob ?x))) (word (a 0)) (expect T))",
        "cannot evaluate",
    ),
    "nested_too_deeply": (
        "(scenario (formula " + "(next " * 1200 + "true" + ")" * 1200 + ") (word) (expect T))",
        "cannot parse",
    ),
    "open_word_letter": (
        "(scenario (formula (consume ?x ?o (= ?x 5))) (word (?o 5)) (expect F))",
        "cannot parse",
    ),
    "ill_typed_leq": (
        "(scenario (formula (leq a 5)) (word (0 0)) (expect T))",
        "cannot evaluate",
    ),
    "ill_typed_plus_under_consume": (
        "(scenario (formula (consume ?x ?o (leq (plus ?x b) 5))) (word (0 0)) (expect T))",
        "cannot evaluate",
    ),
    "unknown_expected_verdict": (
        "(scenario (formula true) (word (a 0)) (expect X))",
        "cannot parse",
    ),
    "repeated_entries": (
        "(scenario (formula true) (formula false) (word (a 0)) (word) (expect T) (expect F))",
        "cannot parse",
    ),
    "entry_head_is_a_list": ("(scenario ((a) 1))", "cannot parse"),
    "not_utf8": (b"\xff\xfe(scenario)", "cannot read"),
}


@pytest.mark.parametrize("name", sorted(ILL_FORMED_SCENARIOS))
def test_eval_ill_formed_scenario_exits_two(name, tmp_path, capsys):
    text, message = ILL_FORMED_SCENARIOS[name]
    scenario = tmp_path / f"{name}.sexpr"
    scenario.write_bytes(text if isinstance(text, bytes) else text.encode())
    assert main(["eval", str(scenario), "--oracle"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"{message} {scenario}: ")


@pytest.mark.parametrize(
    "formula, shown",
    [("(leq a 5)", "(leq 'a' 5)"), ("(consume ?x ?o (leq (plus ?x b) 5))", "(plus 0 'b')")],
    ids=["leq", "plus_under_consume"],
)
def test_eval_names_the_ill_typed_builtin(formula, shown, tmp_path, capsys):
    scenario = tmp_path / "ill_typed.sexpr"
    scenario.write_text(f"(scenario (formula {formula}) (word (0 0)) (expect T))")
    assert main(["eval", str(scenario)]) == 2
    assert shown in capsys.readouterr().err


def test_eval_leq_on_symbols_keeps_its_verdict(tmp_path, capsys):
    scenario = tmp_path / "symbols.sexpr"
    scenario.write_text("(scenario (formula (leq a b)) (word (0 0)) (expect T))")
    assert main(["eval", str(scenario), "--oracle"]) == 0
    assert "verdict=T" in capsys.readouterr().out


def test_run_oracle_disagreement_is_one_line_and_exit_one(monkeypatch, capsys):
    from streamcheck import harness, truth

    class UndecidedReference:
        @staticmethod
        def models(_word, _phi):
            return truth.INCONCLUSIVE

    monkeypatch.setattr(harness, "semantics", UndecidedReference)
    assert main(["run", "hashtags-extracted", "--oracle"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("hashtags-extracted: ")
    assert "case 1: stepwise verdict T != reference ?" in err
