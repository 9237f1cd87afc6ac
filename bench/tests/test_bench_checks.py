"""The output checkers accept real documents and reject corrupted ones.

Run with: python3 -m pytest bench/tests
"""

import json
import os
import subprocess
import sys

import pytest

import checks
import inputs
from conftest import ROOT, SRC

CHAOTIC = dict(nu=-0.5, alpha=2.0, theta=0.99, m=35, x0=0.2, replicates=2000, seed=3)
SHAPE = dict(nu=0.5, alpha=2.0, theta=0.99, m=2000, seed=5, delta=0.2)


def _gigp(*args, cwd=ROOT):
    done = subprocess.run([sys.executable, "-m", "gigp", *map(str, args)],
                          env=dict(os.environ, PYTHONPATH=SRC), cwd=cwd,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _flags(params):
    out = []
    for k, v in params.items():
        out += ["--" + k.replace("_", "-"), v]
    return out


@pytest.fixture(scope="module")
def chaotic_doc():
    return _gigp("chaotic", *_flags(CHAOTIC))


@pytest.fixture(scope="module")
def shape_doc():
    return _gigp("shape", *_flags(SHAPE))


def _mutate(text, edit):
    doc = json.loads(text)
    edit(doc)
    return json.dumps(doc)


def test_chaotic_document_passes(chaotic_doc):
    err = checks.check_chaotic(chaotic_doc, **CHAOTIC)
    assert 0.0 <= err < 1e-10


@pytest.mark.parametrize("edit", [
    lambda d: d["result"].update(p_value=d["result"]["p_value"] * (1 + 1e-6)),
    lambda d: d["result"]["bins"][0].__setitem__(1, d["result"]["bins"][0][1] + 1),
    lambda d: d["result"].update(**{"lambda": d["result"]["lambda"] * (1 + 1e-7)}),
    lambda d: d["config"].update(seed=4),
    lambda d: d["config"]["scaling"].update(case_label="a"),
    lambda d: d["result"]["bins"].pop(),
])
def test_chaotic_checker_rejects_corruption(chaotic_doc, edit):
    with pytest.raises(checks.CheckFailed):
        checks.check_chaotic(_mutate(chaotic_doc, edit), **CHAOTIC)


def test_shape_checker_accepts_and_rejects(shape_doc):
    assert checks.check_shape(shape_doc, **SHAPE) < 1e-12

    def bad_phi(d):
        d["result"]["pointwise"][0]["phi"] *= 1 + 1e-6

    with pytest.raises(checks.CheckFailed):
        checks.check_shape(_mutate(shape_doc, bad_phi), **SHAPE)
    with pytest.raises(checks.CheckFailed):
        checks.check_shape(shape_doc[: len(shape_doc) // 2], **SHAPE)


def test_fit_and_gof_checkers_on_generated_input(tmp_path):
    path = tmp_path / "input.csv"
    made = subprocess.run([sys.executable, os.path.join(ROOT, "bench", "inputs.py"),
                           "11", str(path)], capture_output=True, text=True, check=True)
    meta = json.loads(made.stdout)
    table = inputs.generate(11)
    assert meta["distinct"] == len(table) and meta["max"] == max(table)
    model = dict(nu=-0.5, alpha=2.0)
    req = dict(model, data=str(path))
    fit = _gigp("fit", "--data", path, *_flags(model))
    gof = _gigp("gof", "--data", path, *_flags(model))
    assert checks.check_fit(fit, **req) < 1e-10
    assert checks.check_gof(gof, **req) < 1e-8
    with pytest.raises(checks.CheckFailed):
        checks.check_fit(_mutate(fit, lambda d: d["result"].update(
            slope=d["result"]["slope"] * (1 + 1e-6))), **req)
    with pytest.raises(checks.CheckFailed):
        checks.check_gof(_mutate(gof, lambda d: d["result"]["bins"][3].__setitem__(
            2, d["result"]["bins"][3][2] * (1 + 1e-6))), **req)
