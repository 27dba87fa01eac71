"""Cayley-table inputs built from the benchmark's own formulas.

The tables do not come from the library's constructors: each is a product
formula on a numbering of the elements that differs from the library's, so
a loaded table can be checked against an independent source.  A seeded
permutation relabels every table so the identity sits away from id 0, and
two corrupted copies of one table exercise the loader's rejection paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


def dihedral_table(order: int) -> np.ndarray:
    """D_order with r^i s^e numbered i + m*e (m = order/2); rotations first.

    (r^i s^a)(r^j s^b) = r^(i + (-1)^a j) s^(a+b), from s r s^-1 = r^-1.
    """
    m = order // 2
    ids = np.arange(order, dtype=np.int64)
    i, e = ids % m, ids // m
    sign = 1 - 2 * e
    return (i[:, None] + sign[:, None] * i[None, :]) % m + m * ((e[:, None] + e[None, :]) % 2)


def heisenberg_table(p: int) -> np.ndarray:
    """Upper unitriangular 3x3 matrices over F_p, (a, b, c) numbered a + p*b + p^2*c.

    [[1,a,c],[0,1,b],[0,0,1]] times [[1,a',c'],[0,1,b'],[0,0,1]] is
    (a + a', b + b', c + c' + a*b').
    """
    ids = np.arange(p ** 3, dtype=np.int64)
    a, b, c = ids % p, (ids // p) % p, ids // (p * p)
    ra = (a[:, None] + a[None, :]) % p
    rb = (b[:, None] + b[None, :]) % p
    rc = (c[:, None] + c[None, :] + a[:, None] * b[None, :]) % p
    return ra + p * rb + p * p * rc


@dataclass
class Relabelled:
    """A formula table, the relabelling ``perm`` (file label of formula id x
    is perm[x]), the file table, and the table the loader must produce."""

    name: str
    formula: np.ndarray
    perm: np.ndarray
    file_table: np.ndarray
    loaded: np.ndarray

    @property
    def identity_label(self) -> int:
        return int(self.perm[0])


def relabel(name: str, table: np.ndarray, rng: np.random.Generator) -> Relabelled:
    """Relabel by a seeded permutation with perm[identity] != 0.

    The loader swaps the file's identity label with 0, so the loaded id of x
    is swap(perm[x]); ``loaded`` is the formula table in those ids.
    """
    n = table.shape[0]
    perm = rng.permutation(n)
    if perm[0] == 0:
        k = int(rng.integers(1, n))
        perm[[0, k]] = perm[[k, 0]]
    file_table = np.empty_like(table)
    file_table[perm[:, None], perm[None, :]] = perm[table]
    swap = np.arange(n)
    swap[[0, perm[0]]] = [perm[0], 0]
    lam = swap[perm]
    loaded = np.empty_like(table)
    loaded[lam[:, None], lam[None, :]] = lam[table]
    return Relabelled(name, table, perm, file_table, loaded.astype(np.int32))


def duplicate_entry(r: Relabelled, rng: np.random.Generator) -> np.ndarray:
    """Copy one entry of a row over another entry of the same row.

    Rows, columns and values of the identity stay untouched, so identity
    detection and the inverse table still succeed and the Latin-square
    check is what must refuse the table.
    """
    t = r.file_table.copy()
    e, n = r.identity_label, t.shape[0]
    while True:
        row, c1, c2 = (int(v) for v in rng.integers(0, n, size=3))
        if len({row, c1, c2, e}) == 4 and e not in (t[row, c1], t[row, c2]):
            t[row, c2] = t[row, c1]
            return t


def turned_intercalate(r: Relabelled, involutions: np.ndarray,
                       rng: np.random.Generator) -> np.ndarray:
    """Swap the two symbols of one 2x2 Latin subsquare.

    For an involution u and elements a, d, the cells (a, ud) and (au, d)
    hold aud, and the cells (a, d) and (au, ud) hold ad.  Swapping them
    leaves a Latin square with the identity row and column and every
    inverse intact, but (a*c)*z != a*(c*z) for c = ud and almost every z:
    only the associativity test can refuse it.
    """
    g, t, perm = r.formula, r.file_table.copy(), r.perm
    n = g.shape[0]
    while True:
        u = int(rng.choice(involutions))
        a, d = (int(v) for v in rng.integers(1, n, size=2))
        b, c = int(g[a, u]), int(g[u, d])
        x, y = int(g[a, c]), int(g[a, d])
        if 0 in (b, c, x, y):
            continue
        pa, pb, pc, pd = (int(perm[v]) for v in (a, b, c, d))
        t[pa, pc] = t[pb, pd] = perm[y]
        t[pa, pd] = t[pb, pc] = perm[x]
        return t


def write_text(path: Path, table: np.ndarray, comment: str) -> None:
    """The Cayley text format: a comment, the order, then one row per line.

    Entries are right-aligned in columns, which the format allows (any
    whitespace separates ids).
    """
    n = table.shape[0]
    width = len(str(n - 1)) + 1
    tokens = np.array([str(v).rjust(width).encode() for v in range(n)], dtype=f"S{width}")
    body = np.frombuffer(tokens[table].tobytes(), dtype=np.uint8).reshape(n, n * width)
    lines = np.empty((n, n * width + 1), dtype=np.uint8)
    lines[:, :-1] = body
    lines[:, -1] = ord("\n")
    with open(path, "wb") as out:
        out.write(f"# {comment}\n{n}\n".encode())
        out.write(lines.tobytes())
