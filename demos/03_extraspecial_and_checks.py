"""Extraspecial groups attain the class-count bound; sweep all the checks.

An extraspecial p-group has Z(G) = G' = Phi(G) of order p and order p^(1+2n).
Both isomorphism types per (p, n) arise as iterated central products of the
two non-abelian groups of order p^3.
"""

import zclasses as zc
from zclasses.catalog import THEOREMS, builtin_catalog, run_catalog, run_theorem

# ---- the extraspecial family ------------------------------------------------

for p, n, variant in [(2, 1, "plus"), (2, 1, "minus"), (2, 2, "plus"),
                      (2, 2, "minus"), (3, 1, "plus"), (3, 2, "plus")]:
    G = zc.extraspecial(p, n, variant)
    count, bound = zc.z_class_count(G), zc.max_zclass_bound(G)
    print(f"{G.label:10s} order {G.order:3d}  type {zc.conjugate_type_vector(G)}  "
          f"classes {count}/{bound}  extraspecial = {zc.is_extraspecial(G)}")

# the two order-32 types are distinguished by their order-4 element counts
plus, minus = zc.extraspecial(2, 2, "plus"), zc.extraspecial(2, 2, "minus")
for G in (plus, minus):
    orders = zc.element_orders(G).tolist()
    print(f"{G.label}: {orders.count(4)} elements of order 4")

# ---- hypothesis and conclusion checkers ------------------------------------

H3 = zc.heisenberg(3)
print("\nHeis3 central quotient elementary abelian:",
      zc.condition_central_quotient_elementary(H3))
print("Heis3 local-center condition (Z(C(x)) = <x,Z> for all x):",
      zc.condition_local_center(H3))
print("D8 abelian subgroup of index 2:",
      zc.has_abelian_subgroup_of_index_p(zc.dihedral(8), 2).members().tolist())
print("ES(2,2,+) abelian subgroup of index 2:",
      zc.has_abelian_subgroup_of_index_p(plus, 2))

# ---- one report per statement ----------------------------------------------

for name in THEOREMS:
    rep = run_theorem(H3, name)
    print(f"Heis3 {name:22s} -> {rep.verdict}")

# ---- the whole catalog ------------------------------------------------------

result = run_catalog(builtin_catalog())
print("\ncatalog sweep summary:", result.summary)
