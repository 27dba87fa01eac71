"""Constructors for the group families the analyses quantify over.

Covers abelian groups, dihedral and generalized quaternion 2-groups, the
two non-abelian families of order p^3 (exponent p and exponent p^2), and
extraspecial groups of order p^(1+2n) assembled as iterated central
products.  Element labeling is lexicographic over the natural parameter
tuples so every constructor is reproducible bit for bit.  Cyclic and
dicyclic rows are their base rows turned, the order-p^3 tables are filled
from closed forms in blocks of rows, and a central product copies rows of its
right factor's table, so a constructor allocates little beside its table.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (
    DEFAULT_ORDER_CAP,
    ID_DTYPE,
    MAX_ORDER,
    GroupTable,
    _amalgamation_pair,
    _fill_rows,
    center,
    central_product,
    check_order,
    direct_product,
    is_prime,
    prime_power,
)
from .errors import BadParameter, OrderExceedsCap
from .zclass import condition_central_quotient_elementary


def cyclic(n: int, *, cap: int = DEFAULT_ORDER_CAP) -> GroupTable:
    """C_n with addition mod n (n = 1 gives the trivial group)."""
    if n < 1:
        raise BadParameter(f"cyclic order must be >= 1, got {n}")
    check_order("cyclic", n, cap)       # before its ids are allocated
    ids = np.arange(n, dtype=ID_DTYPE)      # row x is row 0 turned left by x
    return GroupTable(sliding_window_view(np.tile(ids, 2), n)[:n].copy(), -ids % n, label=f"C{n}")


def abelian(orders, *, cap: int = DEFAULT_ORDER_CAP) -> GroupTable:
    """Direct product of cyclic groups C_{orders[0]} x C_{orders[1]} x ...

    The empty list gives the trivial group.
    """
    orders = [int(k) for k in orders]
    for k in orders:
        if k < 2:
            raise BadParameter(f"abelian factor orders must be >= 2, got {k}")
    check_order("abelian", math.prod(orders), cap)
    G = cyclic(orders[0] if orders else 1, cap=cap)
    for k in orders[1:]:
        G = direct_product(G, cyclic(k, cap=cap), cap=cap)
    return G.relabeled("x".join(f"C{k}" for k in orders) if orders else "C1")


def _dicyclic(order: int, twist: int, label: str, cap: int) -> GroupTable:
    """<r, s | r^(order/2) = 1, s^2 = r^twist, s^-1 r s = r^-1> for twist 0 or
    order/4.  Element (r^i, s^e) gets id 2*i + e, and r^i s has inverse
    r^(i+twist) s."""
    check_order("quaternion" if twist else "dihedral", order, cap)   # before its ids
    half = order // 2
    ids = np.arange(order, dtype=ID_DTYPE)
    rot, ref = ids // 2, ids % 2
    # s * r^j * s^f = r^(twist*f - j) * s^(1+f): row 1, that of s
    turned = sliding_window_view(np.tile([ids, 2 * ((twist * ref - rot) % half) + 1 - ref], 2),
                                 order, axis=1)
    inv = np.where(ref == 1, 2 * ((rot + twist) % half) + 1, 2 * ((half - rot) % half))
    # the row of r^i is row 0 turned left by 2i, that of r^i s row 1 turned right by 2i
    return GroupTable(turned[ref, np.where(ref == 1, -2 * rot % order, 2 * rot)], inv, label=label)


def dihedral(order: int, *, cap: int = DEFAULT_ORDER_CAP) -> GroupTable:
    """D_order with relations r^(order/2) = s^2 = 1, s^-1 r s = r^-1.

    Element (r^i, s^e) gets id 2*i + e.
    """
    if order < 4 or order % 2:
        raise BadParameter(f"dihedral order must be even and >= 4, got {order}")
    return _dicyclic(order, 0, f"D{order}", cap)


def quaternion(order: int, *, cap: int = DEFAULT_ORDER_CAP) -> GroupTable:
    """Generalized quaternion Q_order: r^(order/2) = 1, s^2 = r^(order/4),
    s^-1 r s = r^-1.  Element (r^i, s^e) gets id 2*i + e."""
    if order < 8 or order & (order - 1):     # not a power of 2, by no trial division
        raise BadParameter(f"quaternion order must be a power of 2 and >= 8, got {order}")
    return _dicyclic(order, order // 4, f"Q{order}", cap)


def heisenberg(p: int, *, cap: int = DEFAULT_ORDER_CAP) -> GroupTable:
    """Upper unitriangular 3x3 matrices over the p-element field, p odd.

    Matrix with entries (a, b, c) (superdiagonal a, b and corner c) gets id
    a*p^2 + b*p + c; the group has order p^3 and exponent p.
    """
    check_order("heisenberg", p ** 3, cap)  # before the trial division of is_prime
    if not is_prime(p) or p == 2:
        raise BadParameter(f"p must be an odd prime, got {p}")
    ids = np.arange(p ** 3, dtype=np.int32)
    a, b, c = ids // (p * p), (ids // p) % p, ids % p
    def block_of(rows):
        ar = a[rows, None]
        block = (ar + a) % p * (p * p)
        block += (b[rows, None] + b) % p * p
        block += (c[rows, None] + c + ar * b) % p
        return block
    inv = (-a) % p * (p * p) + (-b) % p * p + (a * b - c) % p
    return GroupTable(_fill_rows((ids.size, ids.size), block_of), inv, label=f"Heis{p}")


def modular_p3(p: int, *, cap: int = DEFAULT_ORDER_CAP) -> GroupTable:
    """The order-p^3 group <a, b | a^(p^2) = b^p = 1, b^-1 a b = a^(1+p)>,
    p odd; the non-abelian group of order p^3 with exponent p^2.

    Element a^i b^j gets id i*p + j.
    """
    check_order("modular_p3", p ** 3, cap)
    if not is_prime(p) or p == 2:
        raise BadParameter(f"p must be an odd prime, got {p}")
    psq, n = p * p, p ** 3
    ids = np.arange(n, dtype=np.int32)
    i, j = ids // p, ids % p
    # b^j a^k = a^(k*(1+p)^j) b^j
    twist = np.array([pow(1 + p, jj, psq) for jj in range(p)], dtype=np.int32)
    def block_of(rows):
        block = twist[j[rows], None] * i
        block += i[rows, None]
        block %= psq
        block *= p
        block += (j[rows, None] + j) % p
        return block
    # inverse of a^i b^j is a^(-i*(1+p)^(-j)) b^(-j), and (1+p)^p = 1 mod p^2
    inv = (-i * twist[-j % p]) % psq * p + (-j) % p
    return GroupTable(_fill_rows((n, n), block_of), inv, label=f"M{n}")


def extraspecial(p: int, n: int, variant: str = "plus", *,
                 cap: int = DEFAULT_ORDER_CAP) -> GroupTable:
    """Extraspecial group of order p^(1+2n), one of the two types per (p, n).

    Built as the central product of n factors of order p^3 amalgamating
    their centers: for p = 2 the plus type is D8 o ... o D8 and the minus
    type replaces the last factor with Q8; for odd p the plus type uses
    exponent-p factors throughout and the minus type ends with the
    exponent-p^2 factor.  Only the factors used are built.
    """
    if variant not in ("plus", "minus"):
        raise BadParameter(f"variant must be 'plus' or 'minus', got {variant!r}")
    if p >= 2 and n >= 1:       # before is_prime; p^(1+2n) is not computed for a large n
        limit = min(cap, MAX_ORDER)
        if 2 * n >= limit.bit_length():     # p^(1+2n) >= 2^(1+2n) > limit
            raise OrderExceedsCap(f"extraspecial order {p}^{1 + 2 * n} exceeds cap {limit}")
        check_order("extraspecial", p ** (1 + 2 * n), cap)
    if not is_prime(p):
        raise BadParameter(f"p must be prime, got {p}")
    if n < 1:
        raise BadParameter(f"n must be >= 1, got {n}")
    kinds, q = ((dihedral, quaternion), 8) if p == 2 else ((heisenberg, modular_p3), p)
    last = kinds[variant == "minus"](q, cap=cap)
    G = base = kinds[0](q, cap=cap) if variant == "minus" and n > 1 else last
    for i in range(1, n):
        F = last if i == n - 1 else base
        G = central_product(G, F, *_amalgamation_pair(G, F), cap=cap)
    return G.relabeled(f"ES({p},{n},{'+' if variant == 'plus' else '-'})")


def is_extraspecial(G: GroupTable) -> bool:
    """True iff |G| = p^m, |Z(G)| = p, G non-abelian and G/Z elementary
    abelian, which is Z = G' = Phi(G) of order p: G/Z abelian puts
    1 != G' <= Z, and exponent p puts G^p <= Z, so Phi = G' * G^p = Z."""
    pw = prime_power(G.order)
    return pw is not None and center(G).size == pw[0] and condition_central_quotient_elementary(G)
