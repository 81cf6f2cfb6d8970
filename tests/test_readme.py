"""The README's examples run as written."""

import pathlib
import re

from streamcheck import cli

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()


def fenced(language):
    """The one fenced block of ``language`` in the README."""
    [block] = re.findall(rf"^```{language}\n(.*?)^```$", README, re.S | re.M)
    return block


def test_python_quickstart_passes():
    namespace = {}
    exec(compile(fenced("python"), "README.md", "exec"), namespace)
    assert namespace["report"].ok()


def test_scenario_example_matches_its_expectation(tmp_path, capsys):
    path = tmp_path / "scenario.sexpr"
    path.write_text(fenced("lisp"))
    assert cli.main(["eval", "--oracle", str(path)]) == 0
