"""The package surface: lazy public names, and the modules a process loads."""

import importlib
import os
import subprocess
import sys

import pytest

import gigp

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENV = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))


def test_public_names_are_their_modules_objects():
    star = {}
    exec("from gigp import *", star)
    assert [n for n in gigp.__all__ if n not in star] == []
    for module, names in gigp._EXPORTS.items():
        home = importlib.import_module(f"gigp.{module}")
        for name in names:
            value = getattr(home, name)
            assert getattr(gigp, name) is value, name
            assert star[name] is value, name
            # the table names the module that defines each function and class
            if callable(value):
                assert value.__module__ == home.__name__, name
    assert star["__version__"] == gigp.__version__ == "0.1.0"


def test_dir_lists_every_public_name_and_an_unknown_name_is_an_attribute_error():
    assert set(gigp.__all__) <= set(dir(gigp))
    with pytest.raises(AttributeError, match="no_such_name"):
        gigp.no_such_name


def _loaded(argv, cwd, code=0):
    """The gigp modules, numpy and csv that a fresh interpreter imports to run
    argv with exit code code, sorted."""
    done = subprocess.run([sys.executable, "-X", "importtime", *argv], env=ENV, cwd=cwd,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == code, done.stderr[-2000:]
    names = [line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines()
             if line.startswith("import time:") and "|" in line]
    return sorted(n for n in names if n in ("gigp", "numpy", "csv") or n.startswith("gigp."))


MODEL = ["--nu", "0.5", "--alpha", "2"]
# a process that only parses its arguments loads no numeric module
PARSE = ["gigp", "gigp.cli"]
CORE = PARSE + ["gigp.diagram", "gigp.distribution", "gigp.shape", "gigp.specfun", "numpy"]


@pytest.mark.parametrize("args, code, loaded", [
    (["--help"], 0, PARSE),
    (["shape", "--help"], 0, PARSE),
    (["shape", "--nu", "0.5"], 1, PARSE),
    (["shape", *MODEL, "--theta", "0.9", "--m", "100", "--seed", "1"], 0, CORE),
    (["simulate", *MODEL, "--theta", "0.9", "--m", "100", "--seed", "1"], 0, CORE),
    # a 3.2e6-entry table: every draw comes from a pmf table, up to its cap
    (["simulate", *MODEL, "--theta", "0.99999", "--m", "100", "--seed", "1"], 0, CORE),
    # only the commands that read a data CSV load csv
    (["fit", "--data", "tiny.csv", *MODEL], 0, CORE + ["gigp.fitgof", "csv"]),
    (["gof", "--data", "tiny.csv", *MODEL], 0, CORE + ["gigp.fitgof", "csv"]),
    (["chaotic", "--nu", "-0.5", "--alpha", "2", "--theta", "0.99", "--m", "35",
      "--x0", "0.2", "--replicates", "20", "--seed", "1"], 0,
     CORE + ["gigp.chaotic", "gigp.fitgof"]),
    # partition draws no GIGP model, so it needs no distribution, shape or specfun
    (["partition", "--n", "100", "--seed", "1"], 0,
     PARSE + ["gigp.diagram", "gigp.partition", "numpy"]),
], ids=["help", "shape-help", "usage-error", "shape", "simulate", "simulate-past-cap", "fit",
        "gof", "chaotic", "partition"])
def test_a_process_loads_only_its_commands_modules(tmp_path, args, code, loaded):
    (tmp_path / "tiny.csv").write_text("j,count\n1,50\n2,20\n3,14\n5,10\n8,6\n13,4\n30,3\n")
    assert _loaded(["-m", "gigp", *args], tmp_path, code) == sorted(loaded)


def test_importing_the_package_loads_no_submodule(tmp_path):
    assert _loaded(["-c", "import gigp"], tmp_path) == ["gigp"]
