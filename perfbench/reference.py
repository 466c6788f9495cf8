"""A fixed piece of work that gauges how fast the host runs at the moment.

The host the benchmark was written on (2 shared cores) changes speed by up
to 1.6x from one minute to the next, and whole runs of the same configs
moved with it.  run.py times ``work()`` before every config and scales each
config's wall time by REFERENCE_SECONDS over the reference times measured
around it, so that a run reports times at one host speed.

``work()`` mixes what restartk spends its time on: QUADPACK through
``scipy.integrate.quad`` with a Python integrand, ``scipy.linalg.expm`` of a
12-state generator, and plain interpreter work.  It never imports restartk,
so no change to the program moves it.  Do not change it: every recorded
time is in its units.
"""

import math

import numpy as np
from scipy import integrate, linalg

# the median time of work() on the host the benchmark was defined on, in its fast state
REFERENCE_SECONDS = 0.005

_Q = np.random.default_rng(0).uniform(0.05, 1.0, (12, 12))
np.fill_diagonal(_Q, 0.0)
np.fill_diagonal(_Q, -_Q.sum(axis=1))


def work():
    total = 0.0
    for k in range(20):
        total += integrate.quad(lambda x: math.exp(-x * x / (k + 1)) * math.cos(x), 0.0, 10.0)[0]
    for k in range(60):
        total += linalg.expm(_Q * (0.1 + k))[0, 0]
    total += sum(i * i % 7 for i in range(30000))
    return total
