"""Isoclinism: when two groups share a commutator pairing.

The pairing G/Z x G/Z -> G' sends a pair of cosets to the commutator of any
representatives.  Groups with isomorphic quotients and derived subgroups
intertwining the pairings are isoclinic, and isoclinic groups have the same
number of centralizer-conjugacy classes.
"""

import zclasses as zc

# ---- the pairing table -------------------------------------------------------

D8 = zc.dihedral(8)
print("D8 pairing over G/Z = C2 x C2 (0 = identity of G):")
print(zc.commutator_pairing(D8))

H3 = zc.heisenberg(3)
W = zc.commutator_pairing(H3)
print("\nHeis3 pairing is nondegenerate:",
      all(any(W[a, b] != 0 for b in range(9)) for a in range(1, 9)))

# ---- the backtracking search -------------------------------------------------

w = zc.are_isoclinic(D8, zc.quaternion(8))
print("\nD8 ~ Q8 witness:", w.to_json())
w.validate()      # exhaustive re-check of both isomorphisms + compatibility

w = zc.are_isoclinic(H3, zc.modular_p3(3))
print("Heis3 ~ M27:", w is not None)

# a negative answer is a proof: the search is complete
print("D8 ~ D16:", zc.are_isoclinic(D8, zc.dihedral(16)))

# ---- stem groups and invariance -----------------------------------------------

print("\nstem groups (center inside the derived subgroup):")
for G in (D8, H3, zc.direct_product(H3, zc.abelian([3])), zc.abelian([4])):
    print(f"  {G.label or 'Heis3xC3':10s}", zc.is_stem_group(G))

Q8 = zc.quaternion(8)
rep = zc.verify_isoclinism_invariance(D8, Q8, zc.are_isoclinic(D8, Q8))
print("\nclass counts agree across the D8 ~ Q8 isoclinism:", rep.verdict,
      zc.z_class_count(D8), zc.z_class_count(Q8))

for G in (D8, H3, zc.extraspecial(3, 2, "plus")):
    rep = zc.verify_direct_factor_invariance(G)
    print(f"{G.label:10s} x C_p keeps the count: {rep.verdict}, {zc.z_class_count(G)} classes")
