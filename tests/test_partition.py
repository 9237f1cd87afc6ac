"""Boltzmann partition sampling and the classical limit shape."""

import math
from collections import Counter

import numpy as np
import pytest

from gigp.diagram import young_y
from gigp.partition import KAPPA, calibrate, sample_partition, partition_shape
from gigp.specfun import chi2_sf


def test_kappa_and_calibration_anchors():
    assert KAPPA == pytest.approx(1.282550, abs=1e-6)
    cfg = calibrate(10_000)
    # exact value is 0.9872564; quoted 0.987258 carries rounding in its
    # last digit, so the anchor tolerance is 2e-6
    assert cfg.z == pytest.approx(math.exp(-KAPPA / 100.0), rel=1e-15)
    assert cfg.z == pytest.approx(0.987258, abs=2e-6)
    assert cfg.n == 10_000
    assert cfg.kappa == KAPPA
    assert calibrate(1).z == pytest.approx(0.277, abs=5e-4)
    with pytest.raises(ValueError):
        calibrate(0)


def test_cutoff_tail_invariant():
    for n in (1, 100, 10_000):
        cfg = calibrate(n)
        tail = cfg.z ** (cfg.j_cutoff + 1) / (1.0 - cfg.z)
        assert tail < 1e-12
        assert cfg.j_cutoff >= 1


def test_partition_shape_identity_and_anchors():
    sym = math.log(2.0) / KAPPA
    assert sym == pytest.approx(0.5404, abs=1e-4)
    assert partition_shape(sym) == pytest.approx(sym, rel=1e-12)
    for x in (0.1, 1.0, 5.0):
        y = partition_shape(x)
        assert math.exp(-KAPPA * x) + math.exp(-KAPPA * y) == pytest.approx(
            1.0, abs=1e-14)
    assert partition_shape(40.0) < 1e-12
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            partition_shape(bad)


def test_sample_partition_deterministic():
    cfg = calibrate(500)
    assert sample_partition(cfg, 42) == sample_partition(cfg, 42)
    assert sample_partition(cfg, 42) != sample_partition(cfg, 43)


def test_sample_weight_and_part_count_means():
    cfg = calibrate(10_000)
    rng = np.random.default_rng(31415)
    ns, ms = [], []
    for _ in range(200):
        t = sample_partition(cfg, rng)
        ns.append(t.N)
        ms.append(t.M)
    assert abs(np.mean(ns) / 10_000 - 1.0) < 0.05
    target = math.sqrt(6 * 10_000) / (2.0 * math.pi) * math.log(10_000)
    assert abs(np.mean(ms) / target - 1.0) < 0.10


def test_multiplicity_means_are_geometric():
    cfg = calibrate(100)
    rng = np.random.default_rng(7)
    reps = 4000
    acc = Counter()
    for _ in range(reps):
        for j, m in sample_partition(cfg, rng).counts.items():
            acc[j] += m
    for j in (1, 2, 5):
        want = cfg.z ** j / (1.0 - cfg.z ** j)
        se = math.sqrt(cfg.z ** j / (1.0 - cfg.z ** j) ** 2 / reps)
        assert abs(acc[j] / reps - want) <= 4.0 * se


def _sup_dev(t, n: int) -> float:
    root = math.sqrt(n)
    worst = 0.0
    xs = [0.3] + [j / root for j in t.counts if j / root >= 0.3]
    for x in xs:
        for side in (0.0, 1e-9):
            dev = abs(young_y(t, x * root + side) / root - partition_shape(x))
            worst = max(worst, dev)
    return worst


def test_scaled_diagram_tracks_partition_shape():
    # measured at this seed: sup < 0.2 in 75/100, sup < 0.25 in 92/100,
    # median 0.14; discreteness at sqrt(n) = 100 keeps the band this wide
    cfg = calibrate(10_000)
    rng = np.random.default_rng(271828)
    sups = np.array([_sup_dev(sample_partition(cfg, rng), 10_000)
                     for _ in range(100)])
    assert np.mean(sups < 0.25) >= 0.90
    assert np.median(sups) < 0.17


def test_conditional_uniformity_at_n8():
    # given N = 8 the Boltzmann law is uniform over the 22 partitions of 8
    cfg = calibrate(8)
    rng = np.random.default_rng(161803)
    hits = Counter()
    for _ in range(100_000):
        t = sample_partition(cfg, rng)
        if t.N == 8:
            hits[tuple(sorted(t.counts.items()))] += 1
    assert len(hits) == 22
    obs = np.array(list(hits.values()), dtype=float)
    exp = obs.sum() / 22.0
    stat = float(((obs - exp) ** 2 / exp).sum())
    assert chi2_sf(stat, 21) > 0.01
