"""Random integer partitions as a warm-up for the diagram machinery.

Multiplicities M_j ~ Geom(1 - z^j), independent over j, with
z = exp(-kappa/sqrt(n)) and kappa = pi/sqrt(6), put the random partition
near weight n; the scaled diagram with A = B = sqrt(n) approaches the
classical symmetric shape e^(-kappa x) + e^(-kappa y) = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagram import FrequencyTable

KAPPA = math.pi / math.sqrt(6.0)


@dataclass(frozen=True)
class PartitionConfig:
    n: int
    z: float
    kappa: float
    j_cutoff: int


def calibrate(n: int) -> PartitionConfig:
    """Pick z = exp(-kappa/sqrt(n)) and a cutoff with geometric tail < 1e-12."""
    if n < 1 or int(n) != n:
        raise ValueError("n must be a positive integer")
    z = math.exp(-KAPPA / math.sqrt(n))
    # sum_{j > c} z^j = z^(c+1)/(1-z) < 1e-12
    cutoff = max(1, math.ceil(math.log(1e-12 * (1.0 - z)) / math.log(z)))
    return PartitionConfig(int(n), z, KAPPA, int(cutoff))


def sample_partition(config: PartitionConfig, seed) -> FrequencyTable:
    """One draw of the independent multiplicities, as a frequency table.

    numpy's geometric counts trials, not failures, hence the minus one.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    js = np.arange(1, config.j_cutoff + 1)
    mult = rng.geometric(1.0 - config.z ** js) - 1
    kept = mult > 0
    return FrequencyTable._from_sorted(js[kept], mult[kept])


def partition_shape(x: float) -> float:
    """y(x) = -log(1 - e^(-kappa x))/kappa, so e^(-kappa x) + e^(-kappa y) = 1."""
    if not x > 0.0:
        raise ValueError("x must be positive; the shape diverges at 0")
    return -math.log1p(-math.exp(-KAPPA * x)) / KAPPA
