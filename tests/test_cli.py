"""End-to-end checks of the command-line surface."""

import hashlib
import json
import math

import pytest

from gigp.cli import main, read_frequency_csv
from gigp.distribution import GigpParams, sample

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


@pytest.mark.parametrize("fmt, digest", [
    ("json", "41324ef6aac7d4752b40f4ccb30a31bffbfa3573898c15c3e2334ec14a167cc5"),
    ("csv", "1b08d750f279f09cf6da7ae20eef92c86dd463bf435f2b15e9bacf7b01e78b8c"),
])
def test_shape_output_bytes_are_pinned(tmp_path, fmt, digest):
    # alpha = 0 draws come from the pmf table, so this stream is stable and
    # the document's bytes can be pinned
    args = ["shape", "--nu", "-0.5", "--alpha", "0", "--theta", "0.99",
            "--m", "1000", "--seed", "1", "--format", fmt]
    out = _run_to_file(tmp_path, "pinned." + fmt, args)
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
    assert res["p_value"] > 0.05
    assert sum(o for _, o, _ in res["bins"]) == 100


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
    # theta = 0.99999 the pmf table would pass its 2e6-entry cap
    capsys.readouterr()
    assert main(["simulate", "--nu", "0.5", "--alpha", "0", "--theta", "0.99999",
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
    # argparse --help raises SystemExit(0), which main maps to success
    assert main(["--help"]) == 0


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
