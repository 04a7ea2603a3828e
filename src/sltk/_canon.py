"""Generic walkers and canonical forms for the two term families.

Source threads (`syntax.Thread`) and tail threads (`tailcore.Tail` and
`tailcore.Branch`) describe every node class once, by a `SHAPE` class
attribute: one kind per dataclass field, in constructor order. The walkers
pair it with the field names in `__match_args__`, which a dataclass lists
in that same order.

    SIG    one signal name
    SIGS   a tuple of signal names (the arguments of a call)
    BIND   a binder; it scopes over the SUB field right after it
    SUB    a subterm
    KEEP   a field no walker looks into (the identifier of a call)

Because constructor order is SHAPE order, a walker rebuilds a node as
`type(t)(*fields)`. The six walkers below serve both families:
`occurrences`, `free_signals`, `rename_all`, `substitute`, `freshen_apart`
and `has_binder`. `substitute` and `freshen_apart` return a node itself
when nothing below it changes.

A canonical form fixes the interface names and renames every other name by
a bijection, to %g0, %g1, ..., so that two multisets are equal after
canonicalization exactly when such a bijection between them exists.
"""

from itertools import permutations

SIG = "sig"
SIGS = "sigs"
BIND = "bind"
SUB = "sub"
KEEP = "keep"


def name_supply(prefix, avoid):
    """Yield prefix0, prefix1, ... skipping names in avoid."""
    k = 0
    while True:
        name = f"{prefix}{k}"
        k += 1
        if name not in avoid:
            yield name


class _FieldTable(dict):
    """Maps a node class to its (field name, kind) pairs, built on first use
    so that the walkers do not zip them again at every node they visit."""

    def __missing__(self, cls):
        pairs = self[cls] = tuple(zip(cls.__match_args__, cls.SHAPE))
        return pairs


_FIELDS = _FieldTable()


# ---------------------------------------------------------------------------
# walkers


def occurrences(t):
    """Every signal name in t, bound or free, in pre-order."""
    out = []
    _collect(t, out)
    return out


def _collect(t, out):
    for name, kind in _FIELDS[type(t)]:
        if kind is SUB:
            _collect(getattr(t, name), out)
        elif kind is SIGS:
            out.extend(getattr(t, name))
        elif kind is not KEEP:
            out.append(getattr(t, name))


def free_signals(t):
    """The signal names free in t."""
    out = set()
    _free(t, frozenset(), out)
    return frozenset(out)


def _free(t, bound, out):
    scope = bound
    for name, kind in _FIELDS[type(t)]:
        v = getattr(t, name)
        if kind is SUB:
            _free(v, scope, out)
            scope = bound
        elif kind is BIND:
            scope = bound | {v}
        elif kind is SIG:
            if v not in scope:
                out.add(v)
        elif kind is SIGS:
            out.update(a for a in v if a not in scope)


def rename_all(t, m):
    """Apply a name map to every occurrence in t, bound and free alike."""
    if not m:
        return t
    out = []
    for name, kind in _FIELDS[type(t)]:
        v = getattr(t, name)
        if kind is SUB:
            v = rename_all(v, m)
        elif kind is SIGS:
            v = tuple(m.get(a, a) for a in v)
        elif kind is not KEEP:
            v = m.get(v, v)
        out.append(v)
    return type(t)(*out)


def substitute(t, sub):
    """Capture-avoiding substitution of names for the free names of t.

    A node comes back as it is when nothing below it changes, in particular
    when no key is free in t. A binder hides its own name from the keys.
    Capture is possible only when some value equals the binder's name; only
    then is the body walked for its free names. If a key free in the body
    maps to that name, the binder is renamed to the smallest %rK that is
    neither a value nor a key among the keys free in the body, nor free in
    the body itself.
    """
    if not sub:
        return t
    out = []
    changed = False
    fields = iter(_FIELDS[type(t)])
    for name, kind in fields:
        v = getattr(t, name)
        if kind is BIND:
            body_name, _ = next(fields)
            body = getattr(t, body_name)
            inner = sub
            if v in sub:
                inner = {k: x for k, x in sub.items() if k != v}
            if v in inner.values():
                free = free_signals(body)
                inner = {k: x for k, x in inner.items() if k in free}
                if v in inner.values():
                    avoid = set(inner.values()) | free | set(inner)
                    fresh = next(name_supply("%r", avoid))
                    inner[v] = fresh
                    v = fresh
                    changed = True
            w = substitute(body, inner)
            changed = changed or w is not body
            out += (v, w)
            continue
        if kind is SUB:
            w = substitute(v, sub)
        elif kind is SIG:
            w = sub.get(v, v)
        elif kind is SIGS:
            w = tuple(sub.get(a, a) for a in v)
            if w == v:
                w = v
        else:
            w = v
        changed = changed or w is not v
        out.append(w)
    return type(t)(*out) if changed else t


def freshen_apart(t, supply):
    """Rename every binder in t, in pre-order, to the next name of the
    supply. A term without binders comes back as it is and takes no name."""
    out = []
    changed = False
    fields = iter(_FIELDS[type(t)])
    for name, kind in fields:
        v = getattr(t, name)
        if kind is BIND:
            body_name, _ = next(fields)
            fresh = next(supply)
            body = substitute(getattr(t, body_name), {v: fresh})
            out += (fresh, freshen_apart(body, supply))
            changed = True
            continue
        if kind is SUB:
            w = freshen_apart(v, supply)
            changed = changed or w is not v
            v = w
        out.append(v)
    return type(t)(*out) if changed else t


def has_binder(t):
    """Whether t contains a binder."""
    for name, kind in _FIELDS[type(t)]:
        if kind is BIND or (kind is SUB and has_binder(getattr(t, name))):
            return True
    return False


# ---------------------------------------------------------------------------
# canonical forms


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


def canonical_multiset(items, interface, show, perm_cap=5040):
    """Return (canonical tuple, renaming) for a multiset of terms.

    `show` is the family's printer. The canonical tuple is sorted by printed
    form. The renaming maps the original free non-interface names to their
    %gN replacements (binder renamings are internal and omitted).
    """
    items = list(items)
    if not items:
        return (), {}
    interface = set(interface)
    all_names = set()
    for it in items:
        all_names.update(occurrences(it))
    supply = name_supply("%u", all_names)
    fresh_items = [freshen_apart(it, supply) for it in items]
    occurrence_lists = [occurrences(it) for it in fresh_items]

    keys = []
    for it, names in zip(fresh_items, occurrence_lists):
        m = {}
        for name in names:
            if name not in interface and name not in m:
                m[name] = f"%k{len(m)}"
        keys.append(show(rename_all(it, m)))

    order = sorted(range(len(items)), key=lambda i: keys[i])
    groups = _tie_groups(order, keys)

    best = None
    for arr in _arrangements(groups, perm_cap):
        m = {}
        for i in arr:
            for name in occurrence_lists[i]:
                if name not in interface and name not in m:
                    m[name] = f"%g{len(m)}"
        renamed = [rename_all(fresh_items[i], m) for i in arr]
        shown = sorted(zip(map(show, renamed), range(len(renamed)),
                           renamed))
        strings = [text for text, _, _ in shown]
        if best is None or strings < best[0]:
            best = (strings, shown, m)
    _, shown, mapping = best
    result = tuple(r for _, _, r in shown)
    free_map = {k: v for k, v in mapping.items() if not k.startswith("%u")}
    return result, free_map
