"""Input data for the fit-gof workload, made with numpy only.

    python3 bench/inputs.py SEED OUT_CSV

writes a `j,count` table of GIGP(nu=-1/2, alpha=2, theta=0.9995) counts
for 1e5 sources and prints its sha256, distinct-value count and maximum
as JSON. gigp's own sampler is not used, so the input does not move when
that sampler's random stream changes. It runs as its own process so that
the benchmark process stays small while it spawns the measured ones.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys

import numpy as np

ALPHA, THETA, M = 2.0, 0.9995, 100_000  # nu = -1/2, which the draws below assume


def generate(seed: int) -> dict[int, int]:
    """Counts as inverse-Gaussian-Poisson draws.

    At nu = -1/2 the GIG mixing law with density ~ x^(nu-1)
    exp(-(a x + b/x)/2), a = 2(1-theta)/theta, b = alpha^2 theta/2, is the
    inverse Gaussian with mean sqrt(b/a) and shape b.
    """
    rng = np.random.default_rng(seed)
    a = 2.0 * (1.0 - THETA) / THETA
    b = 0.5 * ALPHA ** 2 * THETA
    values = rng.poisson(rng.wald(math.sqrt(b / a), b, size=M))
    js, counts = np.unique(values, return_counts=True)
    return {int(j): int(c) for j, c in zip(js, counts)}


def main(argv: list[str]) -> int:
    seed, path = int(argv[0]), argv[1]
    table = generate(seed)
    text = "j,count\n" + "".join(f"{j},{c}\n" for j, c in table.items())
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    print(json.dumps({"sha256": hashlib.sha256(text.encode()).hexdigest(),
                      "distinct": len(table), "max": max(table)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
