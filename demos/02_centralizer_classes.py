"""Partition groups by conjugacy of centralizers and predict class sizes.

Two elements land in one class when their centralizers are conjugate
subgroups.  The partition is coarser than conjugacy, and the size of the
class of x is exactly [G : N_G(C_G(x))] * |{y : C(y) = C(x)}|.
"""

import numpy as np

import zclasses as zc

for G in (zc.abelian([4, 2]), zc.dihedral(8), zc.dihedral(16), zc.heisenberg(3)):
    part = zc.z_class_partition(G)
    print(f"{G.label:6s} order {G.order:3d}: {part.num_classes} classes, "
          f"sizes {sorted(part.sizes())}, type vector {zc.conjugate_type_vector(G)}")

# an abelian group is a single class; the center is always the first class
H3 = zc.heisenberg(3)
part = zc.z_class_partition(H3)
print("\nfirst class of Heis3 is its center:",
      np.array_equal(part.classes[0].members, zc.center(H3).members()))

# the cell of a noncentral x: the elements with the same centralizer
x = int(np.flatnonzero(~zc.center(H3).mask)[0])
print("elements sharing x's centralizer:", zc.strict_fixed_set(H3, x).tolist())

# the orbit-size identity, checked on every element of the class-3 group D16
D16 = zc.dihedral(16)
print("\nD16 size predictions (predicted, actual) per element:")
print([zc.kulkarni_size_check(D16, t) for t in D16.elements()])

# class count bound: (p^k - 1)/(p - 1) + 1 where [G : Z(G)] = p^k
for G in (zc.dihedral(8), zc.heisenberg(3), zc.heisenberg(5), zc.dihedral(16)):
    count, bound = zc.z_class_count(G), zc.max_zclass_bound(G)
    print(f"{G.label:6s}: {count} classes of a possible {bound}"
          + ("  <-- attains the bound" if count == bound else ""))

# groups of type (n,1): exactly two centralizer indices, n and 1
for G in (zc.heisenberg(3), zc.dihedral(16), zc.abelian([9])):
    print(f"is_type_n_1({G.label}) =", zc.is_type_n_1(G))
