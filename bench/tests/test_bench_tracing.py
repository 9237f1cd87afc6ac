"""Self-time arithmetic of the span recorder and the patching of gigp modules.

Run with: python3 -m pytest bench/tests
"""

import json
import os
import subprocess
import sys
import time

import run
import tracing
from conftest import ROOT, SRC


class FakeClock:
    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_self_time_subtracts_direct_children_only():
    # A [0, 10] holds B [2, 5] and C [6, 7]; C holds B [6.25, 6.5]
    rec = tracing.SpanRecorder(FakeClock([0, 2, 5, 6, 6.25, 6.5, 7, 10]))
    a = rec.open()
    b = rec.open()
    rec.close("B", b)
    c = rec.open()
    b = rec.open()
    rec.close("B", b)
    rec.close("C", c)
    rec.close("A", a)
    assert rec.stats["A"] == [1, 10, 6]
    assert rec.stats["B"] == [2, 3.25, 3.25]
    assert rec.stats["C"] == [1, 1, 0.75]
    assert rec.covered_s == 10


def test_top_level_spans_add_up_to_covered_time():
    rec = tracing.SpanRecorder(FakeClock([0, 1, 3, 7]))
    rec.close("startup", rec.open())
    rec.close("main", rec.open())
    assert rec.covered_s == 5
    assert rec.stats["main"] == [1, 4, 4]


def test_missing_targets_are_reported_absent_not_fatal():
    absent = tracing.install(tracing.SpanRecorder(), targets=[
        ("specfun.gone", "gigp.specfun", "no_such_function"),
        ("nowhere.f", "gigp_no_such_module", "f"),
        ("diagram.gone", "gigp.diagram", "FrequencyTable.no_such_method"),
    ])
    assert absent == ["specfun.gone", "nowhere.f", "diagram.gone"]
    agg = {"absent": set(absent) | {"shape.sup_distance"}, "stats": {}, "counts": {}}
    assert run._layer_value("specfun.gone.calls", agg) is None
    assert run._layer_value("shape.sup_distance.points", agg) is None
    assert run._layer_value("specfun.log_bessel_k.calls", agg) == 0


def test_layer_values_read_calls_self_and_inclusive_time():
    agg = {"absent": set(), "counts": {"fitgof.pearson_chi2.bins_in": 7},
           "stats": {"cli.serialize": [2, 0.5, 0.25], "cli.import": [1, 0.2, 0.2]}}
    assert run._layer_value("cli.serialize_s", agg) == 0.5
    assert run._layer_value("cli.import_s", agg) == 0.2
    assert run._layer_value("cli.serialize.self_s", agg) == 0.25
    assert run._layer_value("fitgof.pearson_chi2.bins_in", agg) == 7
    assert run._layer_value("fitgof.pearson_chi2.bins_out", agg) == 0


def test_traced_process_counts_calls_through_imported_names(tmp_path):
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=SRC)
    argv = [sys.executable, os.path.join(ROOT, "bench", "tracing.py"), str(spans),
            repr(time.perf_counter()), "--", "chaotic", "--nu", "-0.5", "--alpha", "2",
            "--theta", "0.99", "--m", "35", "--x0", "0.2", "--replicates", "50",
            "--seed", "1"]
    done = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["config"]["replicates"] == 50
    doc = json.loads(spans.read_text())
    assert doc["absent"] == []
    # chaotic.py calls both through `from .distribution import ...`
    assert doc["stats"]["distribution.sample_batch"][0] == 50
    assert doc["stats"]["distribution.ccdf"][0] >= 1
    assert doc["counts"]["fitgof.pearson_chi2.bins_in"] >= doc["counts"]["fitgof.pearson_chi2.bins_out"]
    main_calls, main_total, main_self = doc["stats"]["cli.main"]
    assert main_calls == 1 and 0 <= main_self <= main_total
    top_level = sum(doc["stats"][name][1] for name in ("cli.startup", "cli.import", "cli.main"))
    assert abs(doc["covered_s"] - top_level) < 1e-9
