"""End-to-end checks of the command-line surface."""

import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gigp import cli, distribution
from gigp.chaotic import poisson_gof_experiment
from gigp.cli import _csv_doc, _json_doc, main, read_frequency_csv
from gigp.diagram import FrequencyTable
from gigp.distribution import GigpParams, pmf, sample, theta_from_mean
from gigp.shape import ShapeReport, sup_distance
from gigp.specfun import chi2_sf

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SHAPE_ARGS = ["shape", "--nu", "0.5", "--alpha", "2", "--theta", "0.99",
              "--m", "1000", "--seed", "7", "--delta", "0.2"]


def _run_to_file(tmp_path, name, args):
    out = tmp_path / name
    rc = main(args + ["--out", str(out)])
    assert rc == 0
    return out


def test_shape_json_anchors(tmp_path):
    out = _run_to_file(tmp_path, "report.json", SHAPE_ARGS + ["--format", "json"])
    doc = json.loads(out.read_text())
    scaling = doc["config"]["scaling"]
    assert scaling["a"] == pytest.approx(99.49916, abs=1e-4)
    assert scaling["b"] == pytest.approx(564.1896, abs=1e-3)
    assert scaling["case_label"] == "a"
    assert scaling["regime"] == "regular"
    assert doc["result"]["sup_distance"] > 0.0
    point = doc["result"]["pointwise"][0]
    assert set(point) == {"x", "y_scaled", "phi", "upsilon", "msd"}


def test_shape_outputs_are_deterministic(tmp_path):
    a = _run_to_file(tmp_path, "a.json", SHAPE_ARGS + ["--format", "json"])
    b = _run_to_file(tmp_path, "b.json", SHAPE_ARGS + ["--format", "json"])
    assert a.read_bytes() == b.read_bytes()
    c = _run_to_file(tmp_path, "c.svg", SHAPE_ARGS + ["--format", "svg"])
    d = _run_to_file(tmp_path, "d.svg", SHAPE_ARGS + ["--format", "svg"])
    assert c.read_bytes() == d.read_bytes()


# the fixed input of the pinned gof documents: 500 sources drawn at
# (0.5, 0, 0.9), written out as literal rows
GOF_ROWS = [(0, 163), (1, 80), (2, 54), (3, 31), (4, 23), (5, 18), (6, 14), (7, 14),
            (8, 18), (9, 11), (10, 7), (11, 8), (12, 11), (13, 3), (14, 3), (15, 5),
            (16, 6), (17, 5), (18, 5), (19, 5), (20, 3), (23, 1), (24, 1), (26, 1),
            (30, 3), (32, 1), (33, 2), (38, 1), (41, 1), (53, 1), (55, 1)]
# 300 sources drawn at (-0.5, 2, 0.95): below its sparse tail's right-edge
# bin, nine interior stragglers fold rightwards and the tenth leftwards
SPARSE_ROWS = [(0, 70), (1, 62), (2, 42), (3, 28), (4, 22), (5, 13), (6, 8), (7, 11),
               (8, 3), (9, 3), (10, 8), (11, 4), (12, 1), (13, 2), (14, 2), (15, 3),
               (16, 1), (17, 1), (18, 1), (19, 4), (20, 3), (22, 3), (23, 2), (26, 1),
               (31, 1), (32, 1)]

# below the table cap every draw comes from the pmf table by inverse cdf,
# the partition sampler is its own, and gof draws nothing, so these
# documents' bytes can be pinned
PINNED_ARGS = {
    "shape": ["shape", "--nu", "-0.5", "--alpha", "0", "--theta", "0.99",
              "--m", "1000", "--seed", "1"],
    "simulate": ["simulate", "--nu", "-0.5", "--alpha", "0", "--theta", "0.99",
                 "--m", "1000", "--seed", "1"],
    "partition": ["partition", "--n", "10000", "--seed", "4"],
    "gof": ["gof", "--data", "fixed.csv", "--nu", "0.5", "--alpha", "0"],
    "shape-alpha2": ["shape", "--nu", "0.5", "--alpha", "2", "--theta", "0.99",
                     "--m", "1000", "--seed", "1"],
    "simulate-alpha2": ["simulate", "--nu", "0.5", "--alpha", "2", "--theta", "0.99",
                        "--m", "1000", "--seed", "1"],
    "chaotic-alpha2": ["chaotic", "--nu", "-0.5", "--alpha", "2", "--theta", "0.99",
                       "--m", "35", "--x0", "0.2", "--replicates", "200", "--seed", "9"],
    "chaotic-fit-lambda": ["chaotic", "--nu", "-0.5", "--alpha", "2", "--theta", "0.99",
                           "--m", "35", "--x0", "0.2", "--replicates", "200", "--seed", "9",
                           "--fit-lambda"],
    "gof-sparse": ["gof", "--data", "sparse.csv", "--nu", "-0.5", "--alpha", "2"],
    # B = 8.9e-159, whose square is subnormal: msd reaches 2.9e158 and stays finite
    "shape-tiny-b": ["shape", "--nu", "-0.5", "--alpha", "1e-160", "--theta", "0.9",
                     "--m", "1000", "--seed", "1"],
}
PINNED = [
    ("shape", "json", "41324ef6aac7d4752b40f4ccb30a31bffbfa3573898c15c3e2334ec14a167cc5"),
    ("shape", "csv", "1b08d750f279f09cf6da7ae20eef92c86dd463bf435f2b15e9bacf7b01e78b8c"),
    ("simulate", "json", "a5f9fdaef9373def4af579bdbad9e6ae959ff9009c731d0b8359bf99fd03c82e"),
    ("simulate", "csv", "8da6cfd6b6b34ae03f01889e65c8c51c3d406249dd9b9655e7b55fa0a6345588"),
    ("partition", "json", "5030cd894bdb4ecf68e8c26bd7e3c00b0655bdabaac74a0679cf0d866050685b"),
    ("partition", "csv", "91bb23bf3d56eacfd94dd43005e006fac0baa2d0725ed33eece9cd09fc05f990"),
    ("gof", "json", "0e44816d5f954f404639a116e82043cf669a24fc5d2822ee2bc2d62a5cefee60"),
    ("gof", "csv", "1bef38174cb4d4793e14e30e9aa06d5b84f8dbee6d9f945b469501d4b52c1057"),
    ("shape-alpha2", "json", "deaabe02553a78c355ecedb49bc59393e9e34cebcc800cc107e7905e897b6b27"),
    ("simulate-alpha2", "json", "64575f54a34d61d187f6f767be5cb654b13247f2c2a3078321c36f91b60c92a7"),
    ("chaotic-alpha2", "json", "ce8ff1fe7cbabb8e4a9affe19ba8151e0b9c1ba08a928da989543050f847451d"),
    ("chaotic-fit-lambda", "json", "e24983f0089998a18afdf3b7f2d382dacf98ca01a1611b71c728b9318b4eec6e"),
    ("gof-sparse", "json", "a491465e7e9d9f5ae8bfe2a2cd9fa3731ace1efbac313f51149d6618bcd97dbb"),
    ("shape", "svg", "5daedd42cf3216794bfcbb5f5b968f2d1f3cdc4aeba4f105c6110d566c4ef321"),
    ("shape-alpha2", "svg", "c2f02f2c62adb8e6c15b2fc9f3a368a182b0e0d54202654bb4120dc62ce308fd"),
    ("shape-tiny-b", "json", "289502b6b2be82617e42a2ab98ab87a0394f7d0342185b9768adb83a2735ff77"),
]


# the shape cases keep the ids they had before the other commands joined
@pytest.mark.parametrize("command, fmt, digest", PINNED, ids=[
    f"{fmt}-{digest}" if command == "shape" else f"{command}-{fmt}-{digest}"
    for command, fmt, digest in PINNED])
def test_shape_output_bytes_are_pinned(tmp_path, monkeypatch, command, fmt, digest):
    # gof echoes its --data path into the document, so it runs from tmp_path
    monkeypatch.chdir(tmp_path)
    _write_csv(tmp_path, "fixed.csv", GOF_ROWS)
    _write_csv(tmp_path, "sparse.csv", SPARSE_ROWS)
    out = _run_to_file(tmp_path, "pinned." + fmt, PINNED_ARGS[command] + ["--format", fmt])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


MODEL = ["--nu", "-0.5", "--alpha", "2", "--theta", "0.99"]


@pytest.mark.parametrize("args", [
    ["simulate", *MODEL, "--m", "3000", "--seed", "3", "--format", "json"],
    ["simulate", *MODEL, "--m", "3000", "--seed", "3", "--format", "csv"],
    ["fit", "--nu", "-0.5", "--alpha", "2", "--format", "json"],
    ["fit", "--nu", "-0.5", "--alpha", "2", "--format", "csv"],
    ["gof", "--nu", "-0.5", "--alpha", "2", "--format", "json"],
    ["gof", "--nu", "-0.5", "--alpha", "2", "--format", "csv"],
    ["chaotic", *MODEL, "--m", "35", "--x0", "0.2", "--replicates", "200",
     "--seed", "9", "--format", "json"],
    ["chaotic", *MODEL, "--m", "35", "--x0", "0.2", "--replicates", "200",
     "--seed", "9", "--format", "csv"],
    ["partition", "--n", "10000", "--seed", "4", "--format", "json"],
    ["partition", "--n", "10000", "--seed", "4", "--format", "csv"],
], ids=lambda a: f"{a[0]}-{a[-1]}")
def test_every_command_output_is_deterministic(tmp_path, args):
    if args[0] in ("fit", "gof"):
        table = sample(GigpParams(-0.5, 2.0, 0.99), 13, 5000)
        data = _write_csv(tmp_path, "in.csv", table.counts.items())
        args = [args[0], "--data", str(data)] + args[1:]
    a = _run_to_file(tmp_path, "a.out", args)
    b = _run_to_file(tmp_path, "b.out", args)
    assert a.read_bytes() == b.read_bytes() and a.stat().st_size > 0


def test_shape_svg_without_tail_points(tmp_path):
    # every source sits at j = 0, so the tail pane has no point to draw:
    # it keeps its frame and no polyline, and the run succeeds as JSON does
    args = ["shape", "--nu", "0.5", "--alpha", "2", "--theta", "0.01",
            "--m", "5", "--seed", "1"]
    assert sample(GigpParams(0.5, 2.0, 0.01), 1, 5).support.tolist() == [0]
    text = _run_to_file(tmp_path, "flat.svg", args + ["--format", "svg"]).read_text()
    right = text[text.index('<rect x="460"'):]
    assert "<polyline" not in right and right.rstrip().endswith("</svg>")
    for fmt in ("json", "csv"):
        _run_to_file(tmp_path, "flat." + fmt, args + ["--format", fmt])


def test_shape_svg_left_pane_spans_its_width_when_every_source_is_at_zero(tmp_path):
    # the pane's j range is at least [0, 1], so the 200-point model curve
    # runs across the pane's 360 units instead of collapsing on its corner
    args = ["shape", "--nu", "0.5", "--alpha", "2", "--theta", "0.01",
            "--m", "5", "--seed", "1", "--format", "svg"]
    text = _run_to_file(tmp_path, "flat.svg", args).read_text()
    model = text[text.index('stroke="#d62728"'):]
    points = model[model.index('points="') + 8:model.index('"/>')].split()
    xs = [float(p.split(",")[0]) for p in points]
    assert len(xs) == 200
    assert xs[0] == pytest.approx(40.0 + 360.0 / 200.0) and xs[-1] == pytest.approx(400.0)


def test_shape_svg_structure(tmp_path):
    out = _run_to_file(tmp_path, "plot.svg", SHAPE_ARGS + ["--format", "svg"])
    text = out.read_text()
    assert text.startswith("<?xml")
    assert "<svg" in text and text.rstrip().endswith("</svg>")
    assert text.count("<polyline") >= 4  # step, model, shape, tail points
    assert "config:" in text


def test_simulate_csv_round_trip(tmp_path):
    args = ["simulate", "--nu", "-0.5", "--alpha", "0", "--theta", "0.96876",
            "--m", "50", "--seed", "3", "--format", "csv"]
    out = _run_to_file(tmp_path, "sim.csv", args)
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config: ")
    cfg = json.loads(lines[0][len("# config: "):])
    assert cfg["truncated"] is True  # auto for alpha=0, nu<=0
    assert cfg["scaling"]["case_label"] == "d"
    assert lines[1] == "j,count"
    rows = {int(j): int(c) for j, c in (ln.split(",") for ln in lines[2:])}
    want = sample(GigpParams(-0.5, 0.0, 0.96876, True), 3, 50)
    assert rows == want.counts


def _write_csv(tmp_path, name, counts):
    path = tmp_path / name
    path.write_text("j,count\n" + "".join(f"{j},{c}\n" for j, c in counts),
                    encoding="utf-8")
    return path


def test_fit_forced_theta_anchors(tmp_path):
    data = _write_csv(tmp_path, "lotka_like.csv",
                      [(1, 6000), (2, 600), (3, 291)])
    out = _run_to_file(tmp_path, "fit.json",
                       ["fit", "--data", str(data), "--nu", "-0.5",
                        "--alpha", "0", "--theta", "0.96876"])
    doc = json.loads(out.read_text())
    scaling = doc["config"]["scaling"]
    assert scaling["a"] == pytest.approx(31.5076, abs=1e-3)
    assert scaling["b"] == pytest.approx(343.5839, abs=1e-2)
    res = doc["result"]
    assert res["m"] == 6891
    assert res["theta_source"] == "given"
    assert res["alpha_hat"] is None
    assert res["nu_hat"] == pytest.approx(res["slope"] + 1.0, rel=1e-12)


def test_fit_estimates_theta(tmp_path):
    # nu=0.5, alpha=0: mean matching gives theta = eta/(eta + 1/2)
    data = _write_csv(tmp_path, "d.csv", [(1, 60), (2, 25), (3, 15)])
    out = _run_to_file(tmp_path, "fit.json",
                       ["fit", "--data", str(data), "--nu", "0.5",
                        "--alpha", "0"])
    res = json.loads(out.read_text())["result"]
    eta = res["eta_hat"]
    assert res["theta_source"] == "estimated"
    assert res["theta"] == pytest.approx(eta / (eta + 0.5), abs=1e-9)


def test_fit_reports_alpha_for_case_c(tmp_path):
    p = GigpParams(-0.5, 2.0, 0.99)
    table = sample(p, 11, 20_000)
    data = _write_csv(tmp_path, "c.csv", sorted(table.counts.items()))
    out = _run_to_file(tmp_path, "fit.json",
                       ["fit", "--data", str(data), "--nu", "-0.5",
                        "--alpha", "2", "--theta", "0.99"])
    res = json.loads(out.read_text())["result"]
    assert isinstance(res["alpha_hat"], float) and res["alpha_hat"] > 0.0


def test_gof_on_model_data(tmp_path):
    p = GigpParams(0.5, 0.0, 0.9)
    table = sample(p, 5, 2000)
    data = _write_csv(tmp_path, "g.csv", sorted(table.counts.items()))
    out = _run_to_file(tmp_path, "gof.json",
                       ["gof", "--data", str(data), "--nu", "0.5",
                        "--alpha", "0", "--theta", "0.9"])
    res = json.loads(out.read_text())["result"]
    assert res["fitted_params"] == 0
    assert res["df"] == len(res["bins"]) - 1
    assert res["p_value"] > 0.01
    out2 = _run_to_file(tmp_path, "gof2.json",
                        ["gof", "--data", str(data), "--nu", "0.5",
                         "--alpha", "0"])
    res2 = json.loads(out2.read_text())["result"]
    assert res2["fitted_params"] == 1
    assert res2["df"] == len(res2["bins"]) - 2
    assert 0.0 <= res2["p_value"] <= 1.0


def test_simulate_output_feeds_gof(tmp_path):
    sim = _run_to_file(tmp_path, "sim.csv",
                       ["simulate", "--nu", "0.5", "--alpha", "0",
                        "--theta", "0.9", "--m", "2000", "--seed", "5",
                        "--format", "csv"])
    out = _run_to_file(tmp_path, "gof.json",
                       ["gof", "--data", str(sim), "--nu", "0.5",
                        "--alpha", "0", "--theta", "0.9"])
    res = json.loads(out.read_text())["result"]
    assert res["p_value"] > 0.01


def test_chaotic_command(tmp_path):
    out = _run_to_file(tmp_path, "ch.json",
                       ["chaotic", "--nu", "-0.5", "--alpha", "2",
                        "--theta", "0.99", "--m", "35", "--x0", "0.2",
                        "--replicates", "100", "--seed", "20260814"])
    res = json.loads(out.read_text())["result"]
    assert res["lambda"] == pytest.approx(4.342498, abs=1e-3)
    assert res["tv_bound"] == pytest.approx(res["lambda"] ** 2 / 35, rel=1e-12)
    # a single seed's p-value is a 5% lottery (test_criterion_09 holds the
    # rate over 200 seeds); the document must carry the report's own numbers
    assert res["p_value"] == chi2_sf(res["statistic"], res["df"])
    assert res["df"] == len(res["bins"]) - 1
    assert sum(o for _, o, _ in res["bins"]) == 100
    assert sum(e for _, _, e in res["bins"]) == pytest.approx(100.0, rel=1e-12)


def test_partition_command(tmp_path):
    out = _run_to_file(tmp_path, "part.json",
                       ["partition", "--n", "400", "--seed", "5"])
    doc = json.loads(out.read_text())
    assert doc["config"]["kappa"] == pytest.approx(1.282550, abs=1e-6)
    assert doc["config"]["z"] == pytest.approx(math.exp(-1.282550 / 20.0),
                                               abs=1e-6)
    assert doc["result"]["weight"] > 0
    x, y, s = doc["result"]["series"][0]
    assert y >= 0.0 and s > 0.0


def test_stdout_when_no_out(capsys):
    rc = main(["partition", "--n", "100", "--seed", "1", "--format", "csv"])
    assert rc == 0
    text = capsys.readouterr().out
    assert text.startswith("# config: ")
    assert "x,y_scaled,shape" in text


def test_output_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("GIGP_OUTPUT_DIR", str(tmp_path))
    rc = main(["partition", "--n", "100", "--seed", "1", "--out", "bare.json"])
    assert rc == 0
    assert (tmp_path / "bare.json").exists()
    # a path with a directory part ignores the env var
    explicit = tmp_path / "sub"
    explicit.mkdir()
    rc = main(["partition", "--n", "100", "--seed", "1",
               "--out", str(explicit / "x.json")])
    assert rc == 0
    assert (explicit / "x.json").exists()


def test_exit_codes(tmp_path, capsys):
    assert main(["fit", "--data", str(tmp_path / "missing.csv"),
                 "--nu", "-0.5", "--alpha", "0"]) == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("j,count,extra\n1,2,3\n")
    assert main(["fit", "--data", str(bad), "--nu", "-0.5",
                 "--alpha", "0"]) == 1
    assert main(["simulate", "--nu", "0.5", "--alpha", "2", "--theta", "1.5",
                 "--m", "10", "--seed", "1"]) == 1
    assert main(["simulate", "--bogus-flag", "1"]) == 1
    # a kernel that gives up is an error line, not a traceback: at
    # theta = 0.9999998 the pmf table would pass its 1e8-entry cap, for
    # every family
    capsys.readouterr()
    for alpha in ("0", "2"):
        assert main(["simulate", "--nu", "0.5", "--alpha", alpha, "--theta", "0.9999998",
                     "--m", "10", "--seed", "1"]) == 1
        assert capsys.readouterr() == ("", "error: pmf support cutoff not reached\n")
    # a malformed table is one error line too: a value past 64 bits, and a
    # header without rows, with theta given so nothing is fitted
    huge = tmp_path / "huge.csv"
    huge.write_text("j,count\n10000000000000000000,1\n")
    header_only = tmp_path / "header.csv"
    header_only.write_text("j,count\n")
    zeros = tmp_path / "zeros.csv"
    zeros.write_text("j,count\n3,0\n")
    for data, line in ((huge, "error: table keys must be nonnegative integers below 2**63\n"),
                       (header_only, "error: input CSV holds no sources\n"),
                       (zeros, "error: input CSV holds no sources\n")):
        for cmd in ("fit", "gof"):
            assert main([cmd, "--data", str(data), "--nu", "-0.5", "--alpha", "2",
                         "--theta", "0.99"]) == 1
            assert capsys.readouterr() == ("", line)
    # a zero-truncated model cannot be fitted or tested on data with a
    # j = 0 row, whether truncation is automatic (alpha = 0, nu <= 0) or
    # asked for, and whether theta is given or estimated
    with_zeros = tmp_path / "with_zeros.csv"
    with_zeros.write_text("j,count\n0,7\n1,10\n2,4\n5,1\n")
    for cmd in ("gof", "fit"):
        for flags in (["--nu", "-0.5", "--alpha", "0"],
                      ["--nu", "-0.5", "--alpha", "0", "--theta", "0.9"],
                      ["--nu", "0.5", "--alpha", "2", "--truncated"],
                      ["--nu", "0.5", "--alpha", "2", "--truncated", "--theta", "0.9"]):
            assert main([cmd, "--data", str(with_zeros)] + flags) == 1
            assert capsys.readouterr() == ("", "error: a zero-truncated model gives j = 0 no "
                                               "mass, but the data has 7 sources in its j = 0 "
                                               "row\n")
    # an untruncated model takes the j = 0 row into the matched mean
    assert main(["fit", "--data", str(with_zeros), "--nu", "0.5", "--alpha", "2"]) == 0
    assert 0.0 < json.loads(capsys.readouterr().out)["config"]["theta"] < 1.0
    # argparse --help raises SystemExit(0), which main maps to success
    assert main(["--help"]) == 0


@pytest.mark.parametrize("nu, alpha, line", [
    ("-1", "0", "error: the corner nu = -1, alpha = 0 is excluded\n"),
    ("-2", "1", "error: nu must be >= -1\n"),
    ("nan", "1", "error: nu must be a finite number\n"),
], ids=["corner", "below-floor", "nan-nu"])
def test_a_bad_model_is_the_same_error_line_with_or_without_theta(tmp_path, capsys, nu,
                                                                 alpha, line):
    data = _write_csv(tmp_path, "small.csv", [(1, 50), (2, 20), (5, 10), (30, 3)])
    for cmd in ("fit", "gof"):
        for theta in ([], ["--theta", "0.9"]):
            assert main([cmd, "--data", str(data), "--nu", nu, "--alpha", alpha, *theta]) == 1
            assert capsys.readouterr() == ("", line), (cmd, theta)


def test_a_nan_min_expected_is_one_error_line(tmp_path, capsys):
    data = _write_csv(tmp_path, "small.csv", [(1, 50), (2, 20), (5, 10), (30, 3)])
    for args in (["gof", "--data", str(data), "--nu", "0.5", "--alpha", "2", "--theta", "0.9"],
                 ["chaotic", "--nu", "-0.5", "--alpha", "2", "--theta", "0.99", "--m", "35",
                  "--x0", "0.2", "--replicates", "100", "--seed", "1"]):
        out = tmp_path / "never.json"
        assert main(args + ["--min-expected", "nan", "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", "error: min_expected must be a number, not nan\n")
        assert not out.exists()


BAD_FLAG_BASE = {
    "simulate": ["simulate", "--nu", "0.5", "--alpha", "2", "--theta", "0.9", "--m", "5",
                 "--seed", "1"],
    "shape": ["shape", "--nu", "0.5", "--alpha", "2", "--theta", "0.9", "--m", "5",
              "--seed", "1"],
    "chaotic": ["chaotic", "--nu", "-0.5", "--alpha", "2", "--theta", "0.99", "--m", "35",
                "--x0", "0.2", "--replicates", "100", "--seed", "1"],
    "gof": ["gof", "--data", "small.csv", "--nu", "0.5", "--alpha", "2", "--theta", "0.9"],
    "partition": ["partition", "--n", "10", "--seed", "1"],
}
# (command, flag, value): a later flag overrides the base's
BAD_FLAGS = [("simulate", "--m", "0"),
             *(("shape", "--delta", v) for v in ("nan", "inf", "1e308", "0")),
             ("shape", "--seed", "-1"),
             *(("chaotic", "--x0", v) for v in ("nan", "inf", "0")),
             ("chaotic", "--replicates", "1"), ("chaotic", "--m", "0"),
             ("chaotic", "--min-expected", "nan"), ("gof", "--min-expected", "nan"),
             ("partition", "--n", "0"), ("partition", "--n", "-4"),
             *(("simulate", "--theta", v) for v in ("nan", "inf", "0", "1")),
             ("simulate", "--alpha", "inf"), ("simulate", "--alpha", "-1"),
             ("simulate", "--nu", "inf")]


@pytest.mark.parametrize("cmd, flag, value", BAD_FLAGS,
                         ids=[f"{cmd}{flag}={value}" for cmd, flag, value in BAD_FLAGS])
def test_a_bad_numeric_flag_is_one_error_line(tmp_path, monkeypatch, capsys, cmd, flag, value):
    monkeypatch.chdir(tmp_path)
    _write_csv(tmp_path, "small.csv", [(1, 50), (2, 20), (5, 10), (30, 3)])
    assert main([*BAD_FLAG_BASE[cmd], flag, value]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    assert err.endswith("\n") and (flag != "--delta" or "delta" in err), err


@pytest.mark.parametrize("args, line", [
    # the mean is 3.5e199, so the build gives up before it starts: no cut can
    # come under the pmf table's cap
    (["shape", "--nu", "0.5", "--alpha", "1e200", "--theta", "0.5", "--m", "10", "--seed", "1"],
     "error: pmf support cutoff not reached\n"),
    # B = M / Gamma(nu), and Gamma(1e6) overflows
    (["shape", "--nu", "1e6", "--alpha", "2", "--theta", "0.5", "--m", "10", "--seed", "1"],
     "error: the scale B is out of floating-point range at these parameters\n"),
    # B = 8.9e-299, so B^2 underflows to 0, and no float holds msd (~1e598)
    (["shape", "--nu", "-0.5", "--alpha", "1e-300", "--theta", "0.9", "--m", "1000",
      "--seed", "1"],
     "error: the mean squared deviation is out of floating-point range at these parameters\n"),
    # the Bessel ratio 2 (nu + j) / alpha passes the float range within block 0
    (["shape", "--nu", "-0.5", "--alpha", "1e-306", "--theta", "0.9", "--m", "1000",
      "--seed", "1"],
     "error: the pmf's Bessel ratios are out of floating-point range at these parameters\n"),
    (["shape", "--nu", "-0.5", "--alpha", "1e-308", "--theta", "0.9", "--m", "1000",
      "--seed", "1"],
     "error: the pmf's Bessel ratios are out of floating-point range at these parameters\n"),
    # (alpha/2)^(-2 nu) underflows, so B = 0; at 1e-200 the pmf's first step
    # s_0 underflows too, and log f_1 = -inf comes without a warning
    (["shape", "--nu", "-0.9", "--alpha", "1e-180", "--theta", "0.9", "--m", "1000",
      "--seed", "1"],
     "error: the scale B is out of floating-point range at these parameters\n"),
    (["shape", "--nu", "-0.9", "--alpha", "1e-200", "--theta", "0.9", "--m", "1000",
      "--seed", "1"],
     "error: the scale B is out of floating-point range at these parameters\n"),
], ids=["huge-alpha", "huge-nu", "tiny-b", "bessel-1e-306", "bessel-1e-308", "b-underflow-1e-180",
        "b-underflow-1e-200"])
def test_arithmetic_failures_are_one_error_line(tmp_path, monkeypatch, capsys, args, line):
    monkeypatch.chdir(tmp_path)
    _write_csv(tmp_path, "small.csv", [(1, 50), (2, 20), (5, 10), (30, 3)])
    assert main(args) == 1
    assert capsys.readouterr() == ("", line)


def test_a_warning_raised_as_an_error_is_one_error_line(capsys):
    # B = 564 is in the regular regime, so chaotic warns; under -W error the
    # warning is raised, and main gives one error line, not a traceback
    args = ["chaotic", "--nu", "0.5", "--alpha", "2", "--theta", "0.99", "--m", "1000",
            "--x0", "0.2", "--replicates", "50", "--seed", "1"]
    with pytest.warns(UserWarning, match="regular regime"):
        assert main(args) == 0
    doc = capsys.readouterr().out
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args) == 1
    assert capsys.readouterr() == ("", "error: B is in the regular regime; the Poisson "
                                       "approximation is meant for bounded B\n")
    assert json.loads(doc)["result"]["df"] >= 1


def test_gof_folds_a_far_outlier_whose_model_mass_underflows(tmp_path, capsys):
    # the pmf is 0 in the empty bins and in "5000+"; those bins fold into "4-5000+"
    data = _write_csv(tmp_path, "outlier.csv", [(0, 50), (1, 30), (2, 14), (3, 8), (5000, 1)])
    assert main(["gof", "--data", str(data), "--nu", "0.5", "--alpha", "2",
                 "--theta", "0.5"]) == 0
    bins = json.loads(capsys.readouterr().out)["result"]["bins"]
    assert [b[0] for b in bins] == ["0", "1", "2", "3", "4-5000+"]
    assert bins[-1][1] == 1 and bins[-1][2] > 0.0


@pytest.mark.parametrize("far", [3_000_000, 90_000_000])
def test_gof_bins_end_where_the_pmf_is_zero(tmp_path, capsys, far):
    # at (0.5, 2, 0.5) the pmf is 0.0 from j = 1,071 on (the table's cut is
    # 56), so the dense bins stop there and the far value folds into the open
    # top "far+": one bin per j up to 9e7 would take ~12 GB at ~133 B a bin
    p = GigpParams(0.5, 2.0, 0.5)
    assert pmf(p, 1070) > 0.0 and pmf(p, 1071) == 0.0
    t = distribution._tables(p)
    assert len(t.gof_probs(0, far)) - 1 == 1071 and len(t.gof_probs(0, 500)) - 1 == 500
    data = _write_csv(tmp_path, "far.csv", [(1, 50), (2, 30), (3, 14), (4, 8), (far, 1)])
    tracemalloc.start()
    try:
        assert main(["gof", "--data", str(data), "--nu", "0.5", "--alpha", "2",
                     "--theta", "0.5"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bins = json.loads(capsys.readouterr().out)["result"]["bins"]
    assert [b[0] for b in bins] == ["0", "1", "2", "3", f"4-{far}+"]
    assert bins[-1][1] == 9 and peak < 2 ** 20


@pytest.mark.parametrize("rows, nu, alpha, theta", [
    ([(0, 50), (1, 30), (2, 14), (3, 8), (5000, 1)], 0.5, 2.0, 0.5),
    ([(1, 50), (2, 30), (3, 14), (4, 8), (3_000_000, 1)], 0.5, 2.0, 0.5),
    (GOF_ROWS, 0.5, 0.0, None), (SPARSE_ROWS, -0.5, 2.0, None),
    (GOF_ROWS[1:], -0.5, 0.0, None)],
    ids=["far-outlier", "far.csv", "fixed.csv", "sparse.csv", "truncated"])
def test_gof_probs_are_the_pmf_and_ccdf_bit_for_bit(tmp_path, rows, nu, alpha, theta):
    # gof's one table read gives the bits of pmf up to end and ccdf from it;
    # a zero-truncated model's bins start at j = 1
    table = read_frequency_csv(_write_csv(tmp_path, "data.csv", rows))
    truncated = alpha == 0.0 and nu <= 0.0
    if theta is None:
        theta = theta_from_mean(nu, alpha, table.N / table.M, truncated)
    p, j_lo = GigpParams(nu, alpha, theta, truncated), int(truncated)
    got = distribution._tables(p).gof_probs(j_lo, int(table.support[-1]))
    end = j_lo + len(got) - 1
    want = np.append(pmf(p, np.arange(j_lo, end)), distribution.ccdf(p, end))
    assert got.tobytes() == want.tobytes()


def test_a_row_with_three_fields_is_one_error_line(tmp_path, capsys):
    data = tmp_path / "three.csv"
    data.write_text("j,count\n1,50\n2,20,7\n5,10\n")
    assert main(["fit", "--data", str(data), "--nu", "0.5", "--alpha", "2"]) == 1
    assert capsys.readouterr() == ("", "error: line 3: expected two fields, got 3\n")
    # the number is the line's in the file: comment and blank lines count
    data.write_text('# config: {"command": "simulate"}\nj,count\n1,50\n\n2,20,7\n')
    assert main(["fit", "--data", str(data), "--nu", "0.5", "--alpha", "2"]) == 1
    assert capsys.readouterr() == ("", "error: line 5: expected two fields, got 3\n")


def test_theta_solve_survives_a_seed_overflow_near_nu_minus_one(tmp_path, monkeypatch, capsys):
    # the theta seed (c / eta)^(1 / (nu + 1)) overflows as nu -> -1; taken
    # as +inf it is clamped to the largest u and the solve converges
    assert theta_from_mean(-0.999999, 2.0, 230 / 83) == pytest.approx(0.9729339857041213,
                                                                       rel=1e-12)
    monkeypatch.chdir(tmp_path)
    _write_csv(tmp_path, "small.csv", [(1, 50), (2, 20), (5, 10), (30, 3)])
    model = ["--data", "small.csv", "--nu", "-0.999999", "--alpha", "2"]
    assert main(["gof", *model]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["theta"] == pytest.approx(
        0.9729339857041213, rel=1e-12)
    # four rows leave too few tail points for the default fit window
    assert main(["fit", *model]) == 1
    assert capsys.readouterr() == ("", "error: fewer than 3 tail points in the fit window\n")
    # at nu = -1 a subnormal alpha^2 leaves the seed at its limit 0
    assert main(["fit", "--data", "small.csv", "--nu", "-1", "--alpha", "1e-300"]) == 1
    assert capsys.readouterr() == ("", "error: eta_target too large to invert\n")


def test_read_frequency_csv_validation(tmp_path):
    ok = tmp_path / "ok.csv"
    ok.write_text("j,count\n2,5\n7,1\n")
    t = read_frequency_csv(str(ok))
    assert t.counts == {2: 5, 7: 1}
    commented = tmp_path / "commented.csv"
    commented.write_text("# config: {\"seed\": 1}\nj,count\n2,5\n")
    assert read_frequency_csv(str(commented)).counts == {2: 5}
    dup = tmp_path / "dup.csv"
    dup.write_text("j,count\n2,5\n2,1\n")
    with pytest.raises(ValueError):
        read_frequency_csv(str(dup))
    txt = tmp_path / "txt.csv"
    txt.write_text("j,count\n2,five\n")
    with pytest.raises(ValueError):
        read_frequency_csv(str(txt))
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError):
        read_frequency_csv(str(empty))


# ---------------------------------------------------------------- writer

SHAPE_COLUMNS = ("x", "y_scaled", "phi", "upsilon", "msd")


def _shape_columns(report):
    return {name: getattr(report, name) for name in SHAPE_COLUMNS}


def _written(writer, *args, chunk_rows=cli._CHUNK_ROWS):
    # what a streaming writer writes, as one string, in chunks of chunk_rows rows
    sink = io.StringIO()
    with mock.patch.object(cli, "_CHUNK_ROWS", chunk_rows):
        writer(sink, *args)
    return sink.getvalue()


def _row_json_doc(config, result):
    # the writer the columnar one replaced: json of the whole document
    return json.dumps({"config": config, "result": result}, sort_keys=True, indent=2) + "\n"


def _row_csv_doc(config, header, rows):
    # and its CSV rule, applied value by value
    lines = ["# config: " + json.dumps(config, sort_keys=True), ",".join(header)]
    lines += [",".join("" if v is None else repr(v) if isinstance(v, float) else str(v)
                       for v in row) for row in rows]
    return "\n".join(lines) + "\n"


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-5, 1e-4, 0.1, 1e15, 1e16, 1e22,
               1.7976931348623157e308, 123456789.12345678]
FINITE = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
# config echoes that name a record key, inside a string and as a key
CONFIGS = st.one_of(
    st.dictionaries(st.text(max_size=8), st.one_of(st.none(), st.integers(), FINITE,
                                                   st.text(max_size=8)), max_size=4),
    st.sampled_from([{"pointwise": [], "data": '"pointwise": []'},
                     {"x\"bins": [], "table": '"table": []', "series": []}]))


@st.composite
def shape_reports(draw):
    n = draw(st.integers(1, 25))

    def column(values):
        return np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=float)

    return ShapeReport(draw(FINITE), draw(FINITE), column(FINITE), column(FINITE),
                       column(FINITE), column(st.one_of(FINITE, st.just(math.nan))),
                       column(FINITE))


# rows per written chunk: the shipped size, and sizes that split the
# drawn record arrays at every kind of boundary
CHUNK_ROWS = st.sampled_from([cli._CHUNK_ROWS, 1, 2, 3, 7])

ONE_POINT = ShapeReport(0.2, 5e-324, np.array([0.2]), np.array([-0.0]), np.array([1e22]),
                        np.array([math.nan]), np.array([1e-5]))


@settings(max_examples=150, deadline=None)
@given(shape_reports(), CONFIGS, CHUNK_ROWS)
@example(ONE_POINT, {}, cli._CHUNK_ROWS)
def test_columnar_writer_matches_the_row_writer_on_shape_reports(report, config, chunk):
    result = {"delta": report.delta, "sup_distance": report.sup_distance}
    columns = _shape_columns(report)
    assert (_written(_json_doc, config, result, columns, "pointwise", True, ("upsilon",),
                     chunk_rows=chunk)
            == _row_json_doc(config, {**result, "pointwise": report.pointwise}))
    assert (_written(_csv_doc, config, columns, ("upsilon",), chunk_rows=chunk)
            == _row_csv_doc(config, SHAPE_COLUMNS, (p.values() for p in report.pointwise)))


@st.composite
def record_columns(draw):
    # simulate's int columns, partition's and the bins' float columns
    # (where NaN and infinity are json's NaN and Infinity), the bins'
    # labels, and fit's column of mixed values
    n = draw(st.integers(1, 20))

    def column(values):
        return draw(st.lists(values, min_size=n, max_size=n))

    return {"j": np.array(column(st.integers(-2 ** 63, 2 ** 63 - 1)), dtype=np.int64),
            "expected": np.array(column(st.one_of(FINITE, st.floats())), dtype=float),
            "bin": column(st.text(max_size=6)),
            "value": column(st.one_of(st.none(), st.booleans(), st.integers(),
                                      st.floats(), st.text(max_size=6)))}


@settings(max_examples=150, deadline=None)
@given(record_columns(), CONFIGS, st.sampled_from(["table", "series", "bins", None]),
       CHUNK_ROWS)
def test_columnar_writer_matches_the_row_writer_on_record_arrays(columns, config, key, chunk):
    result = {"m": 3, "statistic": 0.5, "fit_range": [1.0, 2.0]}
    rows = [list(r) for r in zip(*(c.tolist() if isinstance(c, np.ndarray) else c
                                   for c in columns.values()))]
    whole = result if key is None else {**result, key: rows}
    assert (_written(_json_doc, config, result, columns, key, chunk_rows=chunk)
            == _row_json_doc(config, whole))
    assert (_written(_csv_doc, config, columns, chunk_rows=chunk)
            == _row_csv_doc(config, list(columns), rows))


def test_writer_writes_an_underflowed_upsilon_as_null():
    # test_sup_distance_phi_underflow's report: phi is 0.0 at its second point
    report = sup_distance(FrequencyTable({0: 99, 2000: 1}), GigpParams(0.5, 2.0, 0.5), 0.2)
    columns = _shape_columns(report)
    points = json.loads(_written(_json_doc, {}, {}, columns, "pointwise", True, ("upsilon",))
                        )["result"]["pointwise"]
    assert points[1]["upsilon"] is None and points[0]["upsilon"] == report.upsilon[0]
    header, *rows = _written(_csv_doc, {}, columns, ("upsilon",)).splitlines()[1:]
    at = header.split(",").index("upsilon")
    assert rows[1].split(",")[at] == "" and float(rows[0].split(",")[at]) == report.upsilon[0]


class _CountingSink:
    """A text sink that keeps only the number of characters written to it."""

    chars = 0

    def write(self, text):
        self.chars += len(text)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_writer_memory_does_not_grow_with_the_document(fmt):
    # 200,000 rows of five float columns are ~38 MB of JSON and ~19 MB of
    # CSV; written a chunk of rows at a time, the writer allocates under 4 MB
    rng = np.random.default_rng(3)
    columns = {name: rng.random(200_000) for name in SHAPE_COLUMNS}
    sink = _CountingSink()
    tracemalloc.start()
    try:
        if fmt == "json":
            _json_doc(sink, {}, {}, columns, "pointwise", True, ("upsilon",))
        else:
            _csv_doc(sink, {}, columns, ("upsilon",))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.chars > (30e6 if fmt == "json" else 15e6)
    assert peak < 4 * 2 ** 20


# more rows than one written chunk
LONG_SHAPE_ARGS = ["shape", "--nu", "0.5", "--alpha", "2", "--theta", "0.999",
                   "--m", "20000", "--seed", "7"]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_out_file_gets_the_bytes_stdout_gets(tmp_path, fmt):
    args = LONG_SHAPE_ARGS + ["--format", fmt]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, "-m", "gigp", *args], env=env, cwd=ROOT,
                          capture_output=True, timeout=60)
    assert done.returncode == 0 and done.stderr == b""
    assert done.stdout.count(b"\n") > cli._CHUNK_ROWS + 2
    assert _run_to_file(tmp_path, "report." + fmt, args).read_bytes() == done.stdout


@pytest.mark.parametrize("args", [
    LONG_SHAPE_ARGS + ["--delta", "-1"],
    ["shape", "--nu", "0.5", "--alpha", "0", "--theta", "0.9999998", "--m", "10", "--seed", "1"],
    ["simulate", "--nu", "0.5", "--alpha", "2", "--theta", "1.5", "--m", "10", "--seed", "1"],
    ["shape", "--nu", "-0.5", "--alpha", "1e-300", "--theta", "0.9", "--m", "1000", "--seed", "1"],
], ids=["bad-delta", "past-the-cap", "bad-theta", "tiny-b"])
def test_a_failed_command_creates_no_out_file(tmp_path, capsys, args):
    out = tmp_path / "never.json"
    assert main(args + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


DOC = "doc.json"
# a 1.5 MB document, many times the size of a pipe's buffer (64 KiB) and of
# stdout's (8 KiB)
BIG_SHAPE_ARGS = ["shape", "--nu", "0.5", "--alpha", "2", "--theta", "0.9999",
                  "--m", "20000", "--seed", "7"]


@pytest.mark.parametrize("args, code", [
    (["--help"], 0),
    (BIG_SHAPE_ARGS, 0),
    (["partition", "--n", "100", "--seed", "1", "--format", "csv"], 0),
    (["simulate", "--nu", "0.5", "--alpha", "2", "--theta", "0.9", "--m", "50", "--seed", "1",
      "--out", DOC], 0),
    (["simulate", "--nu", "0.5", "--alpha", "2", "--theta", "1.5", "--m", "10", "--seed", "1",
      "--out", DOC], 1),
    (["partition", "--n", "100", "--seed", "1", "--out", os.path.join("missing", DOC)], 2),
], ids=["help", "big-stdout", "stdout", "out-file", "validation-error", "io-error"])
def test_a_process_ends_as_main_returns(tmp_path, monkeypatch, capsys, args, code):
    # python -m gigp exits through cli.run, which ends the process with
    # os._exit: nothing main left buffered would be written after it
    child, own = tmp_path / "child", tmp_path / "own"
    child.mkdir()
    own.mkdir()
    monkeypatch.delenv("GIGP_OUTPUT_DIR", raising=False)
    done = subprocess.run([sys.executable, "-m", "gigp", *args], cwd=child, capture_output=True,
                          env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")), timeout=60)
    monkeypatch.chdir(own)
    assert main(args) == code == done.returncode
    stdout, stderr = capsys.readouterr()
    assert (done.stdout, done.stderr) == (stdout.encode(), stderr.encode())
    if args == BIG_SHAPE_ARGS:
        assert len(done.stdout) > 2 ** 20
    assert (child / DOC).exists() == (own / DOC).exists() == (code == 0 and DOC in args)
    if (own / DOC).exists():
        assert (child / DOC).read_bytes() == (own / DOC).read_bytes()


@pytest.mark.parametrize("args", [
    ["--help"],
    ["shape", "--nu", "0.5", "--alpha", "2", "--theta", "0.9", "--m", "10", "--seed", "1"],
    ["chaotic", "--nu", "-0.5", "--alpha", "2", "--theta", "0.99", "--m", "35", "--x0", "0.2",
     "--replicates", "50", "--seed", "1"],
    BIG_SHAPE_ARGS,
], ids=["help", "shape", "chaotic", "big-shape"])
def test_a_closed_stdout_is_one_io_error_line(args):
    # the pipe's read end is closed before the child starts, so its first
    # write fails; stdout is block-buffered, so a short document first
    # reaches the pipe when main flushes it
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("PYTHONUNBUFFERED", None)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "gigp", *args], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, cwd=ROOT, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert done.returncode == 2
    assert done.stderr.startswith("io error: ") and done.stderr.count("\n") == 1


def test_a_process_started_without_stdout_is_one_io_error_line():
    # the child's fd 1 is closed before it starts, so sys.stdout is None
    done = subprocess.run([sys.executable, "-m", "gigp", *SHAPE_ARGS],
                          preexec_fn=lambda: os.close(1), stderr=subprocess.PIPE,
                          env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
                          cwd=ROOT, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (2, "io error: stdout is closed\n")


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_it_found_it(capsys, enabled):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(SHAPE_ARGS) == 0
        assert main(["shape", "--nu", "0.5"]) == 1
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert capsys.readouterr().out.startswith("{")


def test_the_process_entry_runs_main_without_the_collector_and_exits_with_its_code():
    # this main flushes what it saw of the collector, then leaves a line
    # buffered, which the process ends without writing
    entry = ("import gc, sys; from gigp import cli; "
             "cli.main = lambda: print(gc.isenabled(), flush=True) or print('left') or 3; "
             "cli.run()")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("PYTHONUNBUFFERED", None)
    done = subprocess.run([sys.executable, "-c", entry], capture_output=True, text=True,
                          env=env, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (3, "False\n", "")


# 10^14 values need >= 728 TiB, past the 2^47-byte user address space, so
# the allocation is refused at once under any overcommit setting
@pytest.mark.parametrize("args", [
    ["simulate", "--nu", "0.5", "--alpha", "0", "--theta", "0.9", "--m", "100000000000000"],
    ["shape", "--nu", "0.5", "--alpha", "0", "--theta", "0.9", "--m", "100000000000000"],
    ["chaotic", "--nu", "-0.5", "--alpha", "2", "--theta", "0.99", "--m", "35", "--x0", "0.2",
     "--replicates", "100000000000000"],
], ids=["simulate", "shape", "chaotic"])
def test_a_refused_allocation_is_one_error_line(tmp_path, args):
    out = tmp_path / "never.json"
    done = subprocess.run([sys.executable, "-m", "gigp", *args, "--seed", "1", "--out", str(out)],
                          env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_traced_shape_serializes_once_and_counts_every_row(tmp_path, fmt):
    # bench/tracing.py times the writer through the names _json_doc and
    # _csv_doc and counts points with len(report.pointwise); a writer that
    # moved out of those names, or a report of another length, shows here
    spans = tmp_path / "spans.json"
    argv = [sys.executable, os.path.join(ROOT, "bench", "tracing.py"), str(spans),
            repr(time.perf_counter()), "--", *SHAPE_ARGS, "--format", fmt]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    trace = json.loads(spans.read_text())
    assert trace["stats"]["cli.serialize"][0] == 1
    if fmt == "json":
        n_rows = len(json.loads(done.stdout)["result"]["pointwise"])
    else:
        n_rows = len(done.stdout.splitlines()) - 2
    assert n_rows > 1 and trace["counts"]["shape.sup_distance.points"] == n_rows
