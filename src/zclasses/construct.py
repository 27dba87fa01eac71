"""Constructors for the group families the analyses quantify over.

Covers abelian groups, dihedral and generalized quaternion 2-groups, the
two non-abelian families of order p^3 (exponent p and exponent p^2), and
extraspecial groups of order p^(1+2n) assembled as iterated central
products.  Element labeling is lexicographic over the natural parameter
tuples so every constructor is reproducible bit for bit.
"""

from __future__ import annotations

import numpy as np

from .core import (
    DEFAULT_ORDER_CAP,
    GroupTable,
    SubgroupSet,
    center,
    central_product,
    commutator_subgroup,
    direct_product,
    is_abelian,
    is_prime,
    prime_power,
    subgroup_generated,
)
from .errors import BadParameter, NotPGroup, NotPrime, OrderExceedsCap


def cyclic(n: int) -> GroupTable:
    """C_n with addition mod n (n = 1 gives the trivial group)."""
    if n < 1:
        raise BadParameter(f"cyclic order must be >= 1, got {n}")
    ar = np.arange(n)
    mult = (ar[:, None] + ar[None, :]) % n
    inv = (-ar) % n
    return GroupTable(mult, inv, label=f"C{n}")


def abelian(orders, *, cap: int = DEFAULT_ORDER_CAP) -> GroupTable:
    """Direct product of cyclic groups C_{orders[0]} x C_{orders[1]} x ...

    The empty list gives the trivial group.
    """
    orders = [int(k) for k in orders]
    for k in orders:
        if k < 2:
            raise BadParameter(f"abelian factor orders must be >= 2, got {k}")
    G = cyclic(1)
    for k in orders:
        G = direct_product(G, cyclic(k), cap=cap)
    label = "x".join(f"C{k}" for k in orders) if orders else "C1"
    return G.relabeled(label)


def dihedral(order: int) -> GroupTable:
    """D_order with relations r^(order/2) = s^2 = 1, s^-1 r s = r^-1.

    Element (r^i, s^e) gets id 2*i + e.
    """
    if order < 4 or order % 2:
        raise BadParameter(f"dihedral order must be even and >= 4, got {order}")
    half = order // 2
    ids = np.arange(order, dtype=np.int32)
    rot, ref = ids // 2, ids % 2
    mult = (1 - 2 * ref)[:, None] * rot     # one n x n int32 table, then in place
    mult += rot[:, None]
    mult %= half
    mult *= 2
    mult |= ref[:, None]
    mult ^= ref                             # low bit: ref_a + ref_b mod 2
    inv = np.where(ref == 1, ids, 2 * ((half - rot) % half))
    return GroupTable(mult, inv, label=f"D{order}")


def quaternion(order: int) -> GroupTable:
    """Generalized quaternion Q_order: r^(order/2) = 1, s^2 = r^(order/4),
    s^-1 r s = r^-1.  Element (r^i, s^e) gets id 2*i + e."""
    if order < 8 or prime_power(order) != (2, order.bit_length() - 1):
        raise BadParameter(f"quaternion order must be a power of 2 and >= 8, got {order}")
    half = order // 2
    ids = np.arange(order)
    rot, ref = ids // 2, ids % 2
    sign = np.where(ref == 1, -1, 1)
    r = (rot[:, None] + sign[:, None] * rot[None, :]) % half
    e = ref[:, None] + ref[None, :]
    r = np.where(e == 2, (r + half // 2) % half, r)
    mult = 2 * r + (e % 2)
    inv = np.where(ref == 1, 2 * ((rot + half // 2) % half) + 1, 2 * ((half - rot) % half))
    return GroupTable(mult, inv, label=f"Q{order}")


def heisenberg(p: int) -> GroupTable:
    """Upper unitriangular 3x3 matrices over the p-element field, p odd.

    Matrix with entries (a, b, c) (superdiagonal a, b and corner c) gets id
    a*p^2 + b*p + c; the group has order p^3 and exponent p.
    """
    if not is_prime(p) or p == 2:
        raise NotPrime(f"p must be an odd prime, got {p}")
    n = p ** 3
    ids = np.arange(n)
    a, b, c = ids // (p * p), (ids // p) % p, ids % p
    ra = (a[:, None] + a[None, :]) % p
    rb = (b[:, None] + b[None, :]) % p
    rc = (c[:, None] + c[None, :] + a[:, None] * b[None, :]) % p
    mult = ra * p * p + rb * p + rc
    ia, ib, ic = (-a) % p, (-b) % p, (a * b - c) % p
    inv = ia * p * p + ib * p + ic
    return GroupTable(mult, inv, label=f"Heis{p}")


def modular_p3(p: int) -> GroupTable:
    """The order-p^3 group <a, b | a^(p^2) = b^p = 1, b^-1 a b = a^(1+p)>,
    p odd; the non-abelian group of order p^3 with exponent p^2.

    Element a^i b^j gets id i*p + j.
    """
    if not is_prime(p) or p == 2:
        raise NotPrime(f"p must be an odd prime, got {p}")
    psq = p * p
    n = p ** 3
    ids = np.arange(n)
    i, j = ids // p, ids % p
    # b^j a^k = a^(k*(1+p)^j) b^j
    twist = np.array([pow(1 + p, jj, psq) for jj in range(p)])
    ri = (i[:, None] + i[None, :] * twist[j][:, None]) % psq
    rj = (j[:, None] + j[None, :]) % p
    mult = ri * p + rj
    # inverse of a^i b^j is a^(-i*(1+p)^(-j)) b^(-j)
    inv_twist = np.array([pow(pow(1 + p, jj, psq), -1, psq) for jj in range(p)])
    ii = (-(i * inv_twist[j])) % psq
    inv = ii * p + ((-j) % p)
    return GroupTable(mult, inv, label=f"M{n}")


def extraspecial(p: int, n: int, variant: str = "plus", *,
                 cap: int = DEFAULT_ORDER_CAP) -> GroupTable:
    """Extraspecial group of order p^(1+2n), one of the two types per (p, n).

    Built as the central product of n factors of order p^3 amalgamating
    their centers: for p = 2 the plus type is D8 o ... o D8 and the minus
    type replaces the last factor with Q8; for odd p the plus type uses
    exponent-p factors throughout and the minus type ends with the
    exponent-p^2 factor.
    """
    if variant not in ("plus", "minus"):
        raise BadParameter(f"variant must be 'plus' or 'minus', got {variant!r}")
    if not is_prime(p):
        raise NotPrime(f"p must be prime, got {p}")
    if n < 1:
        raise BadParameter(f"n must be >= 1, got {n}")
    order = p ** (1 + 2 * n)
    if order > cap:
        raise OrderExceedsCap(f"extraspecial order {order} exceeds cap {cap}")
    if p == 2:
        base, last = dihedral(8), (dihedral(8) if variant == "plus" else quaternion(8))
    else:
        base, last = heisenberg(p), (heisenberg(p) if variant == "plus" else modular_p3(p))
    G = last if n == 1 else base
    for i in range(1, n):
        F = last if i == n - 1 else base
        zg = int(center(G).members()[1])
        zf = int(center(F).members()[1])
        G = central_product(G, F, zg, zf, cap=cap)
    sign = "+" if variant == "plus" else "-"
    return G.relabeled(f"ES({p},{n},{sign})")


def frattini_subgroup(G: GroupTable, p: int) -> SubgroupSet:
    """Frattini subgroup of a p-group via the identity Phi(G) = G' * G^p.

    Refuses groups whose order is not a power of p (the formula is a
    p-group fact).  The trivial group yields the trivial subgroup.
    """
    if G.order > 1:
        pw = prime_power(G.order)
        if pw is None or pw[0] != p:
            raise NotPGroup(f"order {G.order} is not a power of {p}")
    ar = np.arange(G.order)
    acc = ar.copy()
    for _ in range(p - 1):
        acc = G.mult[acc, ar]
    gens = commutator_subgroup(G).mask.copy()    # <G', x^p> = <[a, b], x^p>
    gens[acc] = True
    return subgroup_generated(G, np.flatnonzero(gens))


def is_extraspecial(G: GroupTable) -> bool:
    """True iff |G| = p^m, G non-abelian, and Z(G) = G' = Phi(G) has order p."""
    pw = prime_power(G.order)
    if pw is None:
        return False
    p = pw[0]
    Z = center(G)
    if Z.size != p or is_abelian(G):
        return False
    return commutator_subgroup(G) == Z and frattini_subgroup(G, p) == Z
