"""What ``import streamcheck`` loads: the run path eagerly, the symbolic layer on first use.

Each check runs in a fresh interpreter, because this test session has
long since imported every module of the package.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import streamcheck

SRC = str(Path(streamcheck.__file__).resolve().parent.parent)
CORPUS = Path(streamcheck.__file__).resolve().parent / "corpus"


def fresh(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120, check=False
    )


RUN_PATH = """
import json, sys
import streamcheck
import streamcheck.cli as cli
layer = ("sexpr", "symbolic", "wordgen")
codes = [cli.main(["list"]), cli.main(["run", "hashtags-extracted", "--min-tests", "2"])]
loaded = [name for name in layer if "streamcheck." + name in sys.modules]
var = streamcheck.symbolic.Var("x")
star = {}
exec("from streamcheck import *", star)
bound = [name for name in layer if star[name] is sys.modules["streamcheck." + name]]
print(json.dumps({"codes": codes, "loaded": loaded, "var": var.name, "star": bound}))
"""


def test_run_path_loads_no_symbolic_module():
    result = fresh(RUN_PATH)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["codes"] == [0, 0]
    assert report["loaded"] == []
    assert report["var"] == "x"
    assert report["star"] == ["sexpr", "symbolic", "wordgen"]


def test_eval_loads_the_symbolic_layer_on_first_use():
    scenario = str(sorted(CORPUS.glob("*.sexpr"))[0])
    result = fresh(f"import sys; from streamcheck.cli import main; sys.exit(main(['eval', {scenario!r}]))")
    assert result.returncode == 0, result.stderr
    assert "verdict=" in result.stdout
