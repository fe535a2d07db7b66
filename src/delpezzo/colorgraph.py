"""Backtracking automorphism/isomorphism engine for small edge-colored graphs.

Graphs are given by a symmetric integer color matrix (entry = edge color,
0 meaning non-edge), read as m[i][j] from any sequence of rows, plus
hashable vertex colors.  Vertex classes are first sharpened by iterated
neighborhood refinement, then completions are found by depth-first search
over color-compatible partial maps.
"""

from __future__ import annotations


def _refine_pair(cm_a, colors_a, cm_b, colors_b):
    """Joint color refinement; returns comparable integer classes for both."""
    na, nb = len(colors_a), len(colors_b)
    cur_a, cur_b = list(colors_a), list(colors_b)
    table: dict = {}

    def canon(x):
        if x not in table:
            table[x] = len(table)
        return table[x]

    cur_a = [canon(("v", c)) for c in cur_a]
    cur_b = [canon(("v", c)) for c in cur_b]
    while True:
        sig_table: dict = {}

        def signature(cm, cur, v, n):
            return (
                cur[v],
                tuple(sorted((int(cm[v][u]), cur[u]) for u in range(n) if u != v)),
            )

        def canon_sig(s):
            if s not in sig_table:
                sig_table[s] = len(sig_table)
            return sig_table[s]

        new_a = [canon_sig(signature(cm_a, cur_a, v, na)) for v in range(na)]
        new_b = [canon_sig(signature(cm_b, cur_b, v, nb)) for v in range(nb)]
        if new_a == cur_a and new_b == cur_b:
            return cur_a, cur_b
        cur_a, cur_b = new_a, new_b


def _search(cm_a, cls_a, cm_b, cls_b, find_all):
    n = len(cls_a)
    if sorted(cls_a) != sorted(cls_b):
        return []
    # map vertices in order of ascending class size (most constrained first)
    from collections import Counter

    freq = Counter(cls_a)
    order = sorted(range(n), key=lambda v: (freq[cls_a[v]], v))
    mapping = [-1] * n
    used = [False] * n
    results = []

    def rec(pos):
        if pos == n:
            results.append(tuple(mapping))
            return not find_all
        v = order[pos]
        for w in range(n):
            if used[w] or cls_b[w] != cls_a[v]:
                continue
            ok = True
            for prev in order[:pos]:
                if cm_a[v][prev] != cm_b[w][mapping[prev]]:
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used[w] = True
                if rec(pos + 1):
                    return True
                mapping[v] = -1
                used[w] = False
        return False

    rec(0)
    return results


def isomorphism(cm_a, colors_a, cm_b, colors_b):
    """One isomorphism as a vertex map tuple, or None."""
    if len(cm_a) != len(cm_b):
        return None
    cls_a, cls_b = _refine_pair(cm_a, colors_a, cm_b, colors_b)
    found = _search(cm_a, cls_a, cm_b, cls_b, find_all=False)
    return found[0] if found else None


def automorphisms(cm, colors):
    """All color-preserving vertex permutations (the full automorphism group)."""
    cls_a, cls_b = _refine_pair(cm, colors, cm, colors)
    return _search(cm, cls_a, cm, cls_b, find_all=True)


def compose(p, q):
    """Permutation composition: (p after q)."""
    return tuple(p[q[i]] for i in range(len(p)))


def close_permutations(gens, n):
    """Closure of permutation tuples under composition."""
    ident = tuple(range(n))
    span = {ident}
    queue = [ident]
    while queue:
        cur = queue.pop()
        for g in gens:
            nxt = compose(g, cur)
            if nxt not in span:
                span.add(nxt)
                queue.append(nxt)
    return span


def generating_subset(perms):
    """A small generating subset of a closed permutation list."""
    elems = set(perms)
    n = len(next(iter(perms)))
    gens: list[tuple[int, ...]] = []
    span = close_permutations(gens, n)
    for p in sorted(elems):
        if p in span:
            continue
        gens.append(p)
        span = close_permutations(gens, n)
        if span == elems:
            break
    return gens


def _perm_inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def _transversal(start, perms, n):
    """Each point of the orbit of start under the group the permutations of
    range(n) generate, mapped to a product of them that takes start there."""
    reps = {start: tuple(range(n))}
    queue = [start]
    for v in queue:
        for p in perms:
            if p[v] not in reps:
                reps[p[v]] = tuple(p[x] for x in reps[v])
                queue.append(p[v])
    return reps


def _orbits(perms, n):
    """The orbits of the group the permutations generate on range(n), each sorted."""
    seen = set()
    out = []
    for start in range(n):
        if start not in seen:
            orbit = sorted(_transversal(start, perms, n))
            seen.update(orbit)
            out.append(orbit)
    return out
