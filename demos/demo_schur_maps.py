"""The four block maps of an operator along an orthogonal splitting.

For a = [[2, 1], [1, 2]] split along the first coordinate, the maps are
(1/2, 1/2, 1/2, 3/2) and the 2x2 block-inverse formula reproduces the dense
inverse. Swapping the splitting and inverting the operator permutes the four
maps into each other, which is the inversion homeomorphism at desk scale.
A coercive operator lies in the block-coercive class M(alpha) of its
splitting, and moving a finite-dimensional subspace across the splitting
leaves the convergence of the four maps alone.
"""

import numpy as np

from homlab import (
    Decomposition,
    HilbertSpace,
    LinearOp,
    Subspace,
    block_inverse,
    finite_shuffle,
    inversion_swap_check,
    schur_complement_coercivity,
    schur_maps,
)
from homlab.schur import class_membership

space = HilbertSpace(2)
h0 = Subspace(space, basis=np.array([[1.0], [0.0]]))
dec = Decomposition.from_subspace(space, h0)
a = LinearOp(space, space, matrix=np.array([[2.0, 1.0], [1.0, 2.0]]))

maps = schur_maps(a, dec)
print("m00inv =", maps.m00inv_mat.ravel())
print("m01    =", maps.m01_mat.ravel())
print("m10    =", maps.m10_mat.ravel())
print("ms     =", maps.ms_mat.ravel())

inv = block_inverse(a, dec).to_dense()
print("\nblock-formula inverse:\n", inv)
print("dense inverse:\n", np.linalg.inv(a.to_dense()))

print("\ninversion swap identity holds:", inversion_swap_check(a, dec))

# the complement inherits the coercivity class of the full operator
rng = np.random.default_rng(1)
n = 10
q, _ = np.linalg.qr(rng.standard_normal((n, n)))
big_space = HilbertSpace(n)
big = LinearOp(big_space, big_space,
               matrix=q @ np.diag(rng.uniform(0.7, 2.8, n)) @ q.T)
sub = Subspace.from_span(big_space, [rng.standard_normal(n) for _ in range(4)])
big_dec = Decomposition.from_subspace(big_space, sub)
rep = schur_complement_coercivity(big, big_dec, 0.5, 4.0)
print("\ncomplement stays in the (0.5, 4.0) class:", rep.passed,
      f"(Re min {rep.re_min:.3f}, Re inv min {rep.re_inv_min:.3f})")

# the class M(alpha): (0,0) block and complement in the (0.5, 4.0) class,
# cross maps bounded in norm by 2
member = class_membership(big, big_dec, [[0.5, 2.0], [2.0, 4.0]])
print("in M(alpha):", member.passed,
      f"(|m10| {member.norm_m10:.3f}, |m01| {member.norm_m01:.3f})")

# a_n = big + E/n converges; so do its four maps, along the splitting and
# along the one with a 2-dimensional piece of h1 moved into h0
pert = rng.standard_normal((n, n))
pert *= 0.2 / np.linalg.norm(pert, 2)
moved = Subspace.from_span(big_space, big_dec.h1.basis[:, :2])
for name, d in (("splitting", big_dec), ("shuffled", finite_shuffle(big_dec, moved))):
    lim = schur_maps(big, d)
    gaps = []
    for k in (1, 4, 16, 64):
        maps_k = schur_maps(LinearOp(big_space, big_space, matrix=big.to_dense() + pert / k), d)
        gaps.append(max(np.linalg.norm(getattr(maps_k, m) - getattr(lim, m), 2)
                        for m in ("m00inv_mat", "m01_mat", "m10_mat", "ms_mat")))
    print(f"{name}: h0 dim {d.h0.dim}, largest map gap at n = 1, 4, 16, 64:",
          " ".join(f"{g:.2e}" for g in gaps))
