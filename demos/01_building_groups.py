"""Build finite groups three ways and poke at their arithmetic.

Every group lives on element ids 0..n-1 with the identity at 0, backed by a
dense numpy multiplication table.
"""

import tempfile
from pathlib import Path

import numpy as np

import zclasses as zc

# ---- named constructors ----------------------------------------------------

D8 = zc.dihedral(8)
Q8 = zc.quaternion(8)
H3 = zc.heisenberg(3)       # exponent-3 group of order 27
M27 = zc.modular_p3(3)      # exponent-9 group of order 27

for G in (D8, Q8, H3, M27):
    zc.validate_group_table(G)   # identity, inverses, Light's associativity test
    print(f"{G.label:6s} order {G.order:3d}  |Z| = {zc.center(G).size}  "
          f"|G'| = {zc.commutator_subgroup(G).size}  abelian = {zc.is_abelian(G)}")

# ---- from permutation generators -------------------------------------------

# the 4-cycle and a reflection generate the dihedral group of the square
perm_D8 = zc.from_permutation_generators([(1, 2, 3, 0), (0, 3, 2, 1)], label="D8-perm")
print("\nclosure of [(0 1 2 3), (1 3)] has order", perm_D8.order)

# ---- from a raw multiplication table ---------------------------------------

klein = zc.from_multiplication_table(
    [[0, 1, 2, 3],
     [1, 0, 3, 2],
     [2, 3, 0, 1],
     [3, 2, 1, 0]], label="V4")
print("Klein four group is elementary abelian for p =", zc.is_elementary_abelian(klein))

# ---- element arithmetic (conventions: x^g = g^-1 x g, [a,b] = a^-1 b^-1 a b)

s, r = 1, 2            # a reflection and the rotation in D8's labeling
print("\nin D8: conjugating reflection", s, "by rotation", r,
      "gives", D8.conjugate(s, r))
print("commutator of the Q8 generators:", Q8.commutator(2, 1),
      "(the unique central involution)")
print("element orders in Q8:", sorted(Q8.element_order(x) for x in Q8.elements()))

# ---- subgroups are boolean masks -------------------------------------------

Z = zc.center(H3)
x = int(np.flatnonzero(~Z.mask)[0])               # first noncentral element
C = zc.centralizer(H3, x)
gen = zc.subgroup_generated(H3, np.append(Z.members(), x))
print(f"\nin Heis3: |<x, Z>| = {gen.size} and the centralizer of x equals it:",
      C == gen)

# ---- products and quotients ------------------------------------------------

P = zc.direct_product(H3, zc.abelian([3]))
print("Heis3 x C3 has order", P.order, "and center of size", zc.center(P).size)

quo = zc.central_quotient(H3)
print("Heis3 / Z has order", quo.table.order,
      "and is elementary abelian for p =", zc.is_elementary_abelian(quo.table))

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "d8.cayley"
    zc.write_cayley_table(D8, path)
    back = zc.read_cayley_table(path)
print("Cayley file round trip preserves the table:",
      np.array_equal(back.mult, D8.mult))
