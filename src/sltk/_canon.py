"""Canonical forms for multisets of terms with bound and generated names.

The two term families (source threads and tail threads) share the same
renaming discipline: interface names are fixed, every other name may
be renamed by a bijection. A canonical form renames those names to %g0, %g1,
... so that two multisets are equal after canonicalization exactly when such
a bijection between them exists.

Each family supplies an ops object with four functions:

    occurrences(t)   yield every signal name in t in a fixed pre-order
    rename(t, m)     apply a name map to every occurrence, bound or free
    freshen(t, supply)  rename binders apart using names from the supply
    show(t)          deterministic printed form
"""

from itertools import permutations


def name_supply(prefix, avoid):
    """Yield prefix0, prefix1, ... skipping names in avoid."""
    k = 0
    while True:
        name = f"{prefix}{k}"
        k += 1
        if name not in avoid:
            yield name


def _tie_groups(order, keys):
    groups = []
    start = 0
    for i in range(1, len(order) + 1):
        if i == len(order) or keys[order[i]] != keys[order[start]]:
            groups.append(order[start:i])
            start = i
    return groups


def _arrangements(groups, cap):
    total = 1
    for g in groups:
        for k in range(2, len(g) + 1):
            total *= k
        if total > cap:
            return [[i for g in groups for i in g]]
    pools = [list(permutations(g)) for g in groups]
    out = [[]]
    for pool in pools:
        out = [acc + list(p) for acc in out for p in pool]
    return out


def canonical_multiset(items, interface, ops, perm_cap=5040):
    """Return (canonical tuple, renaming) for a multiset of terms.

    The canonical tuple is sorted by printed form. The renaming maps the
    original free non-interface names to their %gN replacements (binder
    renamings are internal and omitted).
    """
    items = list(items)
    if not items:
        return (), {}
    interface = set(interface)
    all_names = set()
    for it in items:
        all_names.update(ops.occurrences(it))
    supply = name_supply("%u", all_names)
    fresh_items = [ops.freshen(it, supply) for it in items]

    occurrences = [list(ops.occurrences(it)) for it in fresh_items]

    keys = []
    for it, names in zip(fresh_items, occurrences):
        m = {}
        for name in names:
            if name not in interface and name not in m:
                m[name] = f"%k{len(m)}"
        keys.append(ops.show(ops.rename(it, m)))

    order = sorted(range(len(items)), key=lambda i: keys[i])
    groups = _tie_groups(order, keys)

    best = None
    for arr in _arrangements(groups, perm_cap):
        m = {}
        for i in arr:
            for name in occurrences[i]:
                if name not in interface and name not in m:
                    m[name] = f"%g{len(m)}"
        renamed = [ops.rename(fresh_items[i], m) for i in arr]
        shown = sorted(zip(map(ops.show, renamed), range(len(renamed)),
                           renamed))
        strings = [text for text, _, _ in shown]
        if best is None or strings < best[0]:
            best = (strings, shown, m)
    _, shown, mapping = best
    result = tuple(r for _, _, r in shown)
    free_map = {k: v for k, v in mapping.items() if not k.startswith("%u")}
    return result, free_map
