"""Fixed reference work that gauges the host's speed, independent of gigp.

    python3 bench/reference.py

run.py times this script as its own process before an op and after each
of the op's processes, and scales the op's wall time by the reference's
nominal time over its measured time. On a shared host the vCPU's speed
swings with co-tenant load for seconds to minutes; the reference slows
with it because it does the same kinds of work as a `gigp` process:
interpreter start-up and the numpy import, a scalar loop over math
functions, whole-array numpy passes and a JSON dump of a few hundred KB.
Its work never changes, so a change to gigp moves the scaled time and
leaves the reference alone.
"""

import json
import math

import numpy as np

rng = np.random.default_rng(12345)
x = rng.random(400_000) * 50 + 0.5
acc = 0.0
for i in range(1, 40_000):
    v = 0.5 + (i % 997) * 0.01
    acc += math.exp(math.lgamma(v) - v) + math.log1p(1.0 / i)
for _ in range(2):
    acc += float(np.cumsum(np.exp(-x) * np.log(x))[-1] + np.sort(x)[0])
doc = json.dumps({"values": x[:40_000].tolist()})
print(len(doc), acc)
