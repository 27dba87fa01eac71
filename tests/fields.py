"""Finite fields and the Heisenberg groups over them, built as tables.

F_q, q = p^f, is F_p[t] modulo the smallest monic irreducible polynomial of
degree f, found by trial division.  An element of F_q is the integer whose
base-p digits are its coefficients, constant term first.  Heis(F_q) is the
group of triples (a, b, c) with (a, b, c)(a', b', c') = (a + a', b + b',
c + c' + a*b'), where (a, b, c) has id (a*q + b)*q + c.  Its center is the
c axis and G/Z = F_q^2 is elementary abelian.  Each noncentral centralizer
is abelian of order q^2, so G has type (q, 1) and q + 2 z-classes.  For
f >= 2 that is below the bound (p^2f - 1)/(p - 1) + 1, and the local-center
condition fails: |<x, Z>| = p*q < q^2 = |Z(C_G(x))|.

Run as a script, ``python tests/fields.py DIR`` writes the type-(n,1)
catalog into DIR: Heis(F_4), Heis(F_8) and Heis(F_9) as Cayley files, two
products that are not p-groups as specs, and ``type_n1.catalog`` naming
them by relative ``file:`` lines.
"""

import sys
from pathlib import Path

import numpy as np

import zclasses as zc

# Cayley file name -> (p, f) of the field F_(p^f)
HEISENBERG = {"heis_f4.cayley": (2, 2), "heis_f8.cayley": (2, 3), "heis_f9.cayley": (3, 2)}

# type-(n,1) groups that are not p-groups
PRODUCTS = ("product(heisenberg(3),cyclic(2))", "product(extraspecial(2,2,minus),cyclic(3))")


def _remainder(a, d, p):
    """The remainder of a modulo the monic d over F_p, coefficients constant first."""
    a, k = list(a), len(d) - 1
    for i in range(len(a) - 1, k - 1, -1):
        c = a[i]
        for j in range(k + 1):
            a[i - k + j] = (a[i - k + j] - c * d[j]) % p
    return [v % p for v in a[:k]]


def _monic(p, degree):
    """Every monic polynomial of the degree over F_p, in ascending order of the
    integer its lower coefficients spell."""
    for x in range(p ** degree):
        yield [x // p ** i % p for i in range(degree)] + [1]


def smallest_irreducible(p, f):
    """The first monic polynomial of degree f that no monic polynomial of
    degree 1 to f // 2 divides."""
    return next(m for m in _monic(p, f)
                if all(any(_remainder(m, d, p)) for k in range(1, f // 2 + 1) for d in _monic(p, k)))


def field_tables(p, f):
    """(add, mul), the addition and multiplication tables of F_(p^f)."""
    q, m = p ** f, smallest_irreducible(p, f)
    digits = [[x // p ** i % p for i in range(f)] for x in range(q)]

    def encode(coefficients):
        return sum(c * p ** i for i, c in enumerate(coefficients))

    add = [[encode((u + v) % p for u, v in zip(digits[a], digits[b])) for b in range(q)]
           for a in range(q)]
    mul = [[encode(_remainder(np.convolve(digits[a], digits[b]).tolist(), m, p))
            for b in range(q)] for a in range(q)]
    return np.array(add), np.array(mul)


def heisenberg_table(p, f):
    """The multiplication table of Heis(F_(p^f)), of order p^(3f)."""
    add, mul = field_tables(p, f)
    q = p ** f
    x = np.arange(q ** 3)
    a, b, c = x // q ** 2, x // q % q, x % q
    A, B = add[a[:, None], a], add[b[:, None], b]
    C = add[add[c[:, None], c], mul[a[:, None], b]]
    return (A * q + B) * q + C


def write_catalog(directory) -> Path:
    """Write the Cayley files and ``type_n1.catalog`` into ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, (p, f) in HEISENBERG.items():
        zc.write_cayley_table(zc.from_multiplication_table(heisenberg_table(p, f)), directory / name)
    path = directory / "type_n1.catalog"
    path.write_text("".join(f"{line}\n" for line in [f"file:{n}" for n in HEISENBERG] + list(PRODUCTS)))
    return path


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/fields.py DIR")
    print(write_catalog(sys.argv[1]))
