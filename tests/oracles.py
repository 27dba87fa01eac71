"""Independent brute-force reference implementations.

Everything here works on plain Python ints, lists and sets straight off the
multiplication table -- none of the vectorized paths of the library -- so
these can serve as oracles for the implementations under test.
"""

from __future__ import annotations

import itertools


def table_of(G) -> list[list[int]]:
    return G.mult.tolist()


def naive_centralizer(G, x: int) -> frozenset[int]:
    m = table_of(G)
    return frozenset(g for g in range(G.order) if m[g][x] == m[x][g])


def naive_commuting_table(G) -> list[list[bool]]:
    """Entry [x][g] is whether x*g == g*x."""
    m = table_of(G)
    return [[m[x][g] == m[g][x] for g in range(G.order)] for x in range(G.order)]


def naive_center(G) -> frozenset[int]:
    m = table_of(G)
    n = G.order
    return frozenset(z for z in range(n) if all(m[z][a] == m[a][z] for a in range(n)))


def conjugation_maps(G) -> list[list[int]]:
    """For each g the full map a -> g^-1 * a * g, as plain lists."""
    m = table_of(G)
    inv = [_inverse_in(m, g) for g in range(G.order)]
    return [[m[m[inv[g]][a]][g] for a in range(G.order)] for g in range(G.order)]


def conj_subset(G, S: frozenset[int], g: int) -> frozenset[int]:
    m = table_of(G)
    gi = _inverse_in(m, g)
    return frozenset(m[m[gi][s]][g] for s in S)


def naive_element_order(G, x: int) -> int:
    return _order_in(table_of(G), x)


def naive_element_orders(G) -> list[int]:
    """The order of every element, off one copy of the table."""
    m = table_of(G)
    return [_order_in(m, x) for x in range(G.order)]


def _order_in(m: list[list[int]], x: int) -> int:
    k, y = 1, x
    while y != 0:
        y = m[y][x]
        k += 1
    return k


def _inverse_in(m: list[list[int]], g: int) -> int:
    return next(h for h in range(len(m)) if m[g][h] == 0 and m[h][g] == 0)


def naive_is_subgroup(G, S) -> bool:
    """Whether the ids S form a subgroup of G: the identity 0, every product
    and every inverse lie in S, and |S| divides |G| (Lagrange)."""
    m = table_of(G)
    S = frozenset(int(s) for s in S)
    return (0 in S and all(m[a][b] in S for a in S for b in S)
            and all(_inverse_in(m, a) in S for a in S) and G.order % len(S) == 0)


def naive_z_partition(G) -> list[frozenset[int]]:
    """Partition by directly testing conjugacy of every centralizer pair.

    Elements with *equal* centralizers are merged first (they are conjugate
    via the identity); every remaining distinct pair is then tested against
    all |G| conjugators, giving the O(n^2 * |G|) pairwise oracle.
    """
    n = G.order
    cents = [naive_centralizer(G, x) for x in range(n)]
    cells: dict[frozenset, list[int]] = {}
    for x in range(n):
        cells.setdefault(cents[x], []).append(x)
    keys = list(cells)
    cmaps = conjugation_maps(G)

    def conjugate_cells(A: frozenset, B: frozenset) -> bool:
        if len(A) != len(B):
            return False
        for cmap in cmaps:
            if all(cmap[a] in B for a in A):
                return True
        return False

    parent = list(range(len(keys)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            if find(i) != find(j) and conjugate_cells(keys[i], keys[j]):
                parent[find(j)] = find(i)
    classes: dict[int, set[int]] = {}
    for i, key in enumerate(keys):
        classes.setdefault(find(i), set()).update(cells[key])
    return sorted((frozenset(v) for v in classes.values()), key=min)


def naive_ctv(G) -> tuple[int, ...]:
    sizes = {len(naive_centralizer(G, x)) for x in range(G.order)}
    return tuple(sorted({G.order // s for s in sizes}, reverse=True))


def naive_subgroup_closure(G, gens) -> frozenset[int]:
    m = table_of(G)
    seen = {0}
    frontier = [0]
    gens = list(gens)
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = m[x][g]
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return frozenset(seen)


def naive_commutator_subgroup(G) -> frozenset[int]:
    """The closure of every commutator x^-1 y^-1 x y."""
    m = table_of(G)
    inv = [row.index(0) for row in m]
    values = {m[m[m[inv[x]][inv[y]]][x]][y] for x in range(G.order) for y in range(G.order)}
    return naive_subgroup_closure(G, values)


def naive_fixed_set(G, x: int) -> frozenset[int]:
    """Z(C_G(x)): the members of C_G(x) that commute with all of it, which
    are exactly the y whose centralizer contains C_G(x)."""
    m = table_of(G)
    C = naive_centralizer(G, x)
    return frozenset(y for y in C if all(m[y][c] == m[c][y] for c in C))


def naive_local_center(G) -> tuple[bool, int | None]:
    """Z(C_G(x)) = <x, Z(G)> for every noncentral x, by comparing the sets;
    (True, None) or (False, smallest offending x)."""
    Z = naive_center(G)
    for x in range(G.order):
        if x not in Z and naive_fixed_set(G, x) != naive_subgroup_closure(G, Z | {x}):
            return False, x
    return True, None


def naive_all_subgroups(G) -> set[frozenset[int]]:
    """Full subgroup lattice by incremental generation; fine up to order ~64."""
    n = G.order
    found: set[frozenset[int]] = {frozenset([0])}
    frontier = [frozenset([0])]
    while frontier:
        H = frontier.pop()
        for g in range(n):
            if g in H:
                continue
            K = naive_subgroup_closure(G, set(H) | {g})
            if K not in found:
                found.add(K)
                frontier.append(K)
    return found


def naive_frattini(G) -> frozenset[int]:
    """Intersection of all maximal proper subgroups."""
    subs = naive_all_subgroups(G)
    proper = [H for H in subs if len(H) < G.order]
    maximal = [H for H in proper
               if not any(H < K for K in proper if K != H)]
    out = set(range(G.order))
    for H in maximal:
        out &= H
    return frozenset(out)


def naive_index_p_subgroups(G, p: int) -> set[frozenset[int]]:
    """Kernels of the nonzero homomorphisms G -> Z/p.  In a p-group these are
    the subgroups of index p: the preimages of the hyperplanes of G/Phi(G).

    Each assignment of images to a greedy generating sequence is extended
    along the Cayley graph by f(x*g) = f(x) + f(g) and kept when no edge
    contradicts it."""
    m = table_of(G)
    gens: list[int] = []
    closure = frozenset([0])
    while len(closure) < G.order:
        gens.append(min(set(range(G.order)) - closure))
        closure = naive_subgroup_closure(G, gens)
    kernels = set()
    for images in itertools.product(range(p), repeat=len(gens)):
        if not any(images):
            continue
        f = {0: 0}
        frontier = [0]
        consistent = True
        while frontier and consistent:
            x = frontier.pop()
            for g, a in zip(gens, images):
                y, v = m[x][g], (f[x] + a) % p
                if y not in f:
                    f[y] = v
                    frontier.append(y)
                elif f[y] != v:
                    consistent = False
                    break
        if consistent:
            kernels.add(frozenset(x for x, v in f.items() if v == 0))
    return kernels


def naive_abelian_index_p(G, p: int) -> frozenset[int] | None:
    """Some abelian subgroup of index p, found by testing every index-p
    subgroup pair by pair; None when there is none."""
    m = table_of(G)
    return next((K for K in naive_index_p_subgroups(G, p)
                 if all(m[a][b] == m[b][a] for a in K for b in K)), None)


def naive_is_extraspecial(G) -> bool:
    """Z = G' = Phi of prime order p in a p-group, each by its definition.
    Phi, the intersection of the maximal subgroups, is that of the index-p
    subgroups, as every maximal subgroup of a p-group has index p; G' and Phi
    are computed only once |Z| = p is prime and |G| a power of it."""
    Z = naive_center(G)
    p, n = len(Z), G.order
    if p < 2 or any(p % d == 0 for d in range(2, p)):
        return False
    while n % p == 0:
        n //= p
    if n != 1 or naive_commutator_subgroup(G) != Z:
        return False
    return frozenset.intersection(*naive_index_p_subgroups(G, p)) == Z


def naive_central_product(G, H, zg: int, zh: int,
                          rows=None) -> tuple[list[list[int]], list[int]]:
    """(G x H)/<(zg, zh^-1)> by its definition: the pair (g, h) has id
    g*|H| + h, a coset is labelled by the smallest id in it, and the cosets
    are numbered in the order of their labels.  Returns (mult, inv), mult
    only at ``rows`` when they are given."""
    mg, mh, nh = table_of(G), table_of(H), H.order
    ginv = [next(x for x in range(G.order) if mg[g][x] == 0) for g in range(G.order)]
    hinv = [next(x for x in range(nh) if mh[h][x] == 0) for h in range(nh)]
    zh_inv = hinv[zh]
    kernel = [(0, 0)]
    while True:
        a, b = mg[kernel[-1][0]][zg], mh[kernel[-1][1]][zh_inv]
        if (a, b) == (0, 0):
            break
        kernel.append((a, b))

    def label(g: int, h: int) -> int:
        return min(mg[g][a] * nh + mh[h][b] for a, b in kernel)

    reps = sorted({label(g, h) for g in range(G.order) for h in range(nh)})
    index = {r: i for i, r in enumerate(reps)}
    pairs = [divmod(r, nh) for r in reps]
    picked = pairs if rows is None else [pairs[i] for i in rows]
    mult = [[index[label(mg[g1][g2], mh[h1][h2])] for g2, h2 in pairs] for g1, h1 in picked]
    return mult, [index[label(ginv[g], hinv[h])] for g, h in pairs]


def naive_amalgamation_pair(G, H) -> tuple[int, int] | None:
    """The pair the spec form of a central product amalgamates, by a scan of
    both centers: the smallest central elements of the smallest prime order
    that some central element of each group has, orders by repeated
    multiplication.  None when the centers share no prime order."""
    def prime_central(T) -> dict[int, int]:
        m, out = table_of(T), {}
        for z in sorted(naive_center(T)):
            k = _order_in(m, z)
            if k > 1 and all(k % d for d in range(2, k)):
                out.setdefault(k, z)
        return out

    cg, ch = prime_central(G), prime_central(H)
    shared = sorted(set(cg) & set(ch))
    return (cg[shared[0]], ch[shared[0]]) if shared else None


def naive_permutation_table(gens) -> tuple[list[list[int]], list[int]]:
    """The permutation group generated by ``gens`` by breadth-first closure and
    one composition per pair, ``(p*q)(i) = p[q[i]]``, with element ids in
    discovery order from the identity.  Returns (mult, inv)."""
    perms = [tuple(int(v) for v in g) for g in gens]
    degree = len(perms[0]) if perms else 0
    ident = tuple(range(degree))
    index = {ident: 0}
    elems = [ident]
    queue = [ident]
    while queue:
        x = queue.pop(0)
        for g in perms:
            y = tuple(x[v] for v in g)
            if y not in index:
                index[y] = len(elems)
                elems.append(y)
                queue.append(y)
    n = len(elems)
    mult = [[0] * n for _ in range(n)]
    for i, p in enumerate(elems):
        for j, q in enumerate(elems):
            mult[i][j] = index[tuple(p[v] for v in q)]
    inv = [0] * n
    for i, p in enumerate(elems):
        pinv = [0] * degree
        for a, b in enumerate(p):
            pinv[b] = a
        inv[i] = index[tuple(pinv)]
    return mult, inv


def naive_is_group(table) -> bool:
    """Whether a square table of ids is a group: entries in range, a two-sided
    identity, a two-sided inverse for every element, and (a*b)*c == a*(b*c)
    for all n^3 triples."""
    m = [[int(v) for v in row] for row in table]
    n = len(m)
    if n == 0 or any(len(row) != n or not all(0 <= v < n for v in row) for row in m):
        return False
    e = next((e for e in range(n) if all(m[e][x] == x == m[x][e] for x in range(n))), None)
    if e is None:
        return False
    if not all(any(m[x][y] == e == m[y][x] for y in range(n)) for x in range(n)):
        return False
    return all(m[m[a][b]][c] == m[a][m[b][c]]
               for a in range(n) for b in range(n) for c in range(n))
