import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import zclasses as zc


def _build_catalog() -> dict:
    """The builtin catalog's groups, keyed and labelled by their catalog labels."""
    return {entry.label: zc.build_group(entry.spec_text).relabeled(entry.label)
            for entry in zc.builtin_catalog()}


@pytest.fixture(scope="session")
def catalog() -> dict:
    """All groups of the builtin catalog, built once per test session."""
    return _build_catalog()


def shuffled(spec, seed):
    """The group of ``spec`` with its non-identity ids shuffled, loaded through
    from_multiplication_table, so coset representatives are not its natural ids."""
    G = zc.build_group(spec)
    rng = np.random.default_rng(seed)
    new = np.concatenate([[0], 1 + rng.permutation(G.order - 1)])    # new id of each old id
    mult = np.empty_like(G.mult)
    mult[np.ix_(new, new)] = new[G.mult]
    return zc.from_multiplication_table(mult, label=spec)


def heisenberg_mod(m):
    """Upper unitriangular 3x3 matrices over Z/m: (a, b, c)(a', b', c') =
    (a + a', b + b', c + c' + a*b') with id (a*m + b)*m + c.  Z is the c axis,
    so for m = 4 or 9 G/Z = (Z/m)^2 is abelian but not elementary."""
    x = np.arange(m ** 3)
    a, b, c = x // m ** 2, x // m % m, x % m
    A, B = (a[:, None] + a) % m, (b[:, None] + b) % m
    C = (c[:, None] + c + a[:, None] * b) % m
    return zc.from_multiplication_table((A * m + B) * m + C, label=f"Heis(Z/{m})")


# Every permutation group the suite builds, by the generators it is built from
PERMUTATION_GENERATORS = {
    "trivial": [],
    "C3": [(1, 2, 0)],
    "S3": [(1, 0, 2), (1, 2, 0)],
    "D8": [(1, 2, 3, 0), (0, 3, 2, 1)],
    "A4": [(1, 2, 0, 3), (1, 0, 3, 2)],
    "S4": [(1, 2, 3, 0), (1, 0, 2, 3)],
    "S5": [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)],
    "S6": [(1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5)],
    # the generalized dihedral group of C3 x C3: two translations and -1
    "GD(3,3)": [[3, 4, 5, 6, 7, 8, 0, 1, 2], [1, 2, 0, 4, 5, 3, 7, 8, 6],
                [3 * ((-(i // 3)) % 3) + ((-(i % 3)) % 3) for i in range(9)]],
    # C3 wr C3, of order 81 and class 3: a 3-cycle of the first block and the
    # turn of the three blocks, so G/Z is non-abelian of exponent 3
    "C3wrC3": [[1, 2, 0, 3, 4, 5, 6, 7, 8], [3, 4, 5, 6, 7, 8, 0, 1, 2]],
}

# beside the catalog: relabelled groups, so G/Z's generators land anywhere, a
# central product with |Z| = 4 and every permutation group of the suite
EXTRASPECIAL_CASES = {
    "shuffled-ES(2,2,-)": lambda: shuffled("extraspecial(2,2,minus)", 1),
    "shuffled-ES(3,2,+)": lambda: shuffled("extraspecial(3,2,plus)", 2),
    "shuffled-D8xQ8": lambda: shuffled("product(dihedral(8),quaternion(8))", 3),
    "shuffled-Q16": lambda: shuffled("quaternion(16)", 4),
    "D8oC4": lambda: zc.build_group("centralproduct(dihedral(8),cyclic(4))"),
    **{f"perm-{name}": lambda gens=gens: zc.from_permutation_generators(gens)
       for name, gens in PERMUTATION_GENERATORS.items()},
}

# labels of the extraspecial members of the catalog with their (count, bound)
EXTRASPECIAL_COUNTS = {
    "D8": 4,
    "Q8": 4,
    "Heis3": 5,
    "M27": 5,
    "Heis5": 7,
    "ES(2,2,+)": 16,
    "ES(2,2,-)": 16,
    "ES(3,2,+)": 41,
}

# every catalog z-class count, confirmed by the pairwise oracle
ZCLASS_COUNTS = {
    "trivial": 1, "C2": 1, "C2xC2": 1, "C4": 1, "S3": 3,
    "D8": 4, "Q8": 4, "D16": 4, "Q16": 4,
    "Heis3": 5, "M27": 5, "Heis5": 7,
    "ES(2,2,+)": 16, "ES(2,2,-)": 16, "ES(3,2,+)": 41,
    "Heis3xC3": 5, "D8xC2": 4, "Heis3xC9": 5,
}

CTV = {
    "trivial": (1,), "C2": (1,), "C2xC2": (1,), "C4": (1,), "S3": (3, 2, 1),
    "D8": (2, 1), "Q8": (2, 1), "D16": (4, 2, 1), "Q16": (4, 2, 1),
    "Heis3": (3, 1), "M27": (3, 1), "Heis5": (5, 1),
    "ES(2,2,+)": (2, 1), "ES(2,2,-)": (2, 1), "ES(3,2,+)": (3, 1),
    "Heis3xC3": (3, 1), "D8xC2": (2, 1), "Heis3xC9": (3, 1),
}
