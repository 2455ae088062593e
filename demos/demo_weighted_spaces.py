"""Weighted spaces, adjoints, and why weak operator gaps are not norms.

The punchline: multiplication by sin(2 pi n x) pairs to zero against any
fixed smooth probes as n grows, while its image norms stay order one.
Weak-probe gaps see homogenisation; strong gaps do not.
"""

import numpy as np
import scipy.sparse as sp

from homlab import HilbertSpace, LinearOp, ProbeSet, adjoint, strong_gap, wot_gap

# a 1-d cell grid carries the L2 measure as a diagonal weight
m = 4096
h = 1.0 / m
x = (np.arange(m) + 0.5) * h
space = HilbertSpace(m, weight=np.full(m, h))

# adjoints are taken in the weighted inner product
rng = np.random.default_rng(0)
mat = rng.standard_normal((6, 6))
small = HilbertSpace(6, weight=rng.uniform(0.5, 2.0, size=6))
op = LinearOp(small, small, matrix=mat)
y, z = rng.standard_normal(6), rng.standard_normal(6)
print("adjoint pairing defect:",
      abs(small.inner(y, op(z)) - small.inner(adjoint(op)(y), z)))

# low-frequency sine probes stand in for smooth test functions
probes = ProbeSet.from_vectors(space, [np.sin((k + 1) * np.pi * x) for k in range(5)])
zero = LinearOp(space, space, apply=lambda v: 0 * v)

print(f"{'n':>5} {'weak gap':>12} {'strong gap':>12}")
for n in (4, 16, 64, 256):
    mult = LinearOp(space, space, matrix=sp.diags(np.sin(2 * np.pi * n * x)))
    print(f"{n:5d} {wot_gap(mult, zero, probes, probes):12.3e} "
          f"{strong_gap(mult, zero, probes):12.3e}")

print("\nthe weak gaps collapse, the strong gaps persist -- the oscillating")
print("multipliers converge to zero only in the probe-pairing sense")
