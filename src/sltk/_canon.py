"""Generic walkers and canonical forms for the two term families.

Source threads (`syntax.Thread`) and tail threads (`tailcore.Tail` and
`tailcore.Branch`) describe every node class once, by its field names in
`__slots__` and a `SHAPE` class attribute that gives one kind per field,
both in constructor order. Their common base `Term` compiles each node
class's constructor, equality, hash and repr from them and sets
`__match_args__` to the field names, which the walkers pair with SHAPE.

    SIG    one signal name
    SIGS   a tuple of signal names (the arguments of a call)
    BIND   a binder; it scopes over the SUB field right after it
    SUB    a subterm
    KEEP   a field no walker looks into (the identifier of a call)

Because constructor order is SHAPE order, a walker rebuilds a node as
`type(t)(*fields)`. The six walkers below serve both families:
`occurrences`, `free_signals`, `rename_all`, `substitute`, `freshen_apart`
and `scan`, which walks without recursion for `free_signals` and for a
program's facts (`syntax.Program`). `substitute` and `freshen_apart` return
a node itself when nothing below it changes. The runners substitute at
every call and every `new`, so `substitute` does not read the field table
at each node: it is compiled once per node class from its SHAPE into a
function with the fields unrolled, the way `Term` writes `__init__`.

A canonical form fixes the interface names and renames every other name by
a bijection, to %g0, %g1, ..., so that two multisets are equal after
canonicalization exactly when such a bijection between them exists, at any
size. Its work follows the names to rename: a multiset with none is sorted
by printed form, which a tail node keeps (`tailcore.print_tail`), and names
shared between items are labelled by colour refinement and individualization
(`_label`), whose search has one budget, LEAF_LIMIT.
"""

from .errors import LabellingLimitError

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


class Term:
    """Base of the node classes of both term families, and of the context
    frames of `semantics.decompose`.

    A node class declares its field names in `__slots__` and their kinds
    in `SHAPE`, in constructor order, and may name `defaults` for its last
    fields, as `namedtuple` does: `class Call(Thread, defaults=((),))`.
    `__init_subclass__` then compiles its `__init__`, `__eq__`, `__hash__`
    and `__repr__` (`_compile_node`) and sets `__match_args__` to the
    field names. Nodes are immutable: `__init__` writes through the slot
    descriptors, and assigning or deleting a field raises AttributeError.
    """

    __slots__ = ()

    def __init_subclass__(cls, defaults=(), **kwargs):
        super().__init_subclass__(**kwargs)
        if "SHAPE" in cls.__dict__:
            _compile_node(cls, tuple(defaults))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild a node through its constructor
        return self.__class__, tuple(getattr(self, name)
                                     for name in self.__slots__)


def _compile_node(cls, defaults):
    """Write the methods of one node class from its fields, the way
    `dataclasses` does for a frozen dataclass: equality and hash compare
    the tuple of fields between nodes of one class, and repr reads
    `Name(field=value, ...)`."""
    names = tuple(cls.__slots__)
    if len(names) != len(cls.SHAPE):
        raise TypeError(f"{cls.__name__}: one SHAPE kind per slot")
    cls.__match_args__ = names
    n = len(names)
    first_default = n - len(defaults)
    params = ", ".join(["self"] + [
        name if k < first_default else f"{name}=d{k - first_default}"
        for k, name in enumerate(names)])
    fields = "".join(f"self.{name}, " for name in names)
    same = " and ".join(f"self.{name} == other.{name}" for name in names)
    shown = ", ".join(f"{name}={{self.{name}!r}}" for name in names)
    src = "".join([
        f"def __init__({params}):\n",
        "".join(f"    set{k}(self, {name})\n"
                for k, name in enumerate(names)) or "    pass\n",
        "def __eq__(self, other):\n",
        "    if other.__class__ is not self.__class__:\n",
        "        return NotImplemented\n",
        f"    return self is other or ({same or 'True'})\n",
        "def __hash__(self):\n",
        f"    return hash(({fields}))\n",
        "def __repr__(self):\n",
        f"    return f'{cls.__qualname__}({shown})'\n",
    ])
    namespace = {f"d{k}": d for k, d in enumerate(defaults)}
    namespace.update((f"set{k}", cls.__dict__[name].__set__)
                     for k, name in enumerate(names))
    exec(src, namespace)
    for method in ("__init__", "__eq__", "__hash__", "__repr__"):
        fn = namespace[method]
        fn.__qualname__ = f"{cls.__qualname__}.{method}"
        setattr(cls, method, fn)


class _PerClass(dict):
    """Maps a node class to what `build` makes of it, built on first use
    so that the walkers do not build it again at every node they visit."""

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, cls):
        value = self[cls] = self.build(cls)
        return value


# each node class's (field name, kind) pairs
_FIELDS = _PerClass(lambda cls: tuple(zip(cls.__match_args__, cls.SHAPE)))


# ---------------------------------------------------------------------------
# walkers


def occurrences(t):
    """Every signal name in t, bound or free, in pre-order."""
    out = []
    _collect(t, out)
    return out


def _collect(t, out):
    """Append the names of t to out, in pre-order, and return whether t
    has a binder."""
    bound = False
    for name, kind in _FIELDS[type(t)]:
        if kind is SUB:
            if _collect(getattr(t, name), out):
                bound = True
        elif kind is SIGS:
            out.extend(getattr(t, name))
        elif kind is not KEEP:
            out.append(getattr(t, name))
            if kind is BIND:
                bound = True
    return bound


def free_signals(t):
    """The signal names free in t."""
    free = set()
    scan(t, set(), free)
    return frozenset(free)


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

    Each node class walks by its own function, compiled from its SHAPE on
    first use (`_compile_substitute`).
    """
    if not sub:
        return t
    return _SUBSTITUTE[t.__class__](t, sub)


def _compile_substitute(cls):
    """The substitution function of one node class, `substitute` unrolled
    over the class's fields the way `_compile_node` writes `__init__`: field
    k is read into xk and its image built in yk, and the node is rebuilt
    only when some yk is not xk."""
    lines = []
    fields = iter(enumerate(_FIELDS[cls]))
    for k, (name, kind) in fields:
        x, y = f"x{k}", f"y{k}"
        if kind is BIND:
            j, (body_name, _) = next(fields)
            bx, by = f"x{j}", f"y{j}"
            lines += [
                f"{x} = {y} = t.{name}",
                f"{bx} = t.{body_name}",
                "inner = sub",
                f"if {y} in sub:",
                f"    inner = {{a: b for a, b in sub.items() if a != {y}}}",
                f"if {y} in inner.values():",
                f"    free = free_signals({bx})",
                "    inner = {a: b for a, b in inner.items() if a in free}",
                f"    if {y} in inner.values():",
                "        avoid = set(inner.values()) | free | set(inner)",
                "        fresh = next(name_supply('%r', avoid))",
                f"        inner[{y}] = fresh",
                f"        {y} = fresh",
                f"{by} = walk[{bx}.__class__]({bx}, inner) if inner else {bx}",
            ]
        elif kind is SUB:
            lines += [f"{x} = t.{name}",
                      f"{y} = walk[{x}.__class__]({x}, sub)"]
        elif kind is SIG:
            lines += [f"{x} = t.{name}", f"{y} = sub.get({x}, {x})"]
        elif kind is SIGS:
            lines += [f"{x} = t.{name}",
                      f"{y} = tuple(map(sub.get, {x}, {x}))",
                      f"if {y} == {x}:",
                      f"    {y} = {x}"]
        else:
            lines.append(f"{x} = {y} = t.{name}")
    n = len(cls.SHAPE)
    if n:
        same = " and ".join(f"y{k} is x{k}" for k in range(n)
                            if cls.SHAPE[k] is not KEEP) or "True"
        args = ", ".join(f"y{k}" for k in range(n))
        lines += [f"if {same}:", "    return t", f"return cls({args})"]
    else:
        lines.append("return t")
    fn_name = f"substitute_{cls.__name__}"
    src = f"def {fn_name}(t, sub):\n" + "".join(
        f"    {line}\n" for line in lines)
    namespace = {"cls": cls, "walk": _SUBSTITUTE,
                 "free_signals": free_signals, "name_supply": name_supply}
    exec(src, namespace)
    return namespace[fn_name]


_SUBSTITUTE = _PerClass(_compile_substitute)


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


def scan(t, names, free):
    """Add the names of t to `names` and its free names to `free`, and
    return whether t has a binder. A stack of its own replaces recursion:
    `scopes` counts the binders of each name around the node at hand, and
    a pair (name, 1) or (name, -1) on the stack enters or leaves one."""
    bound = False
    scopes = {}
    stack = [t]
    while stack:
        t = stack.pop()
        if t.__class__ is tuple:
            scopes[t[0]] = scopes.get(t[0], 0) + t[1]
            continue
        fields = iter(_FIELDS[t.__class__])
        for name, kind in fields:
            v = getattr(t, name)
            if kind is SUB:
                stack.append(v)
            elif kind is SIG:
                names.add(v)
                if not scopes.get(v):
                    free.add(v)
            elif kind is BIND:
                body_name, _ = next(fields)
                stack += ((v, -1), getattr(t, body_name), (v, 1))
                names.add(v)
                bound = True
            elif kind is SIGS:
                names.update(v)
                free.update(a for a in v if not scopes.get(a))
    return bound


# ---------------------------------------------------------------------------
# canonical forms

# Leaves the labelling search of one component may reach before
# canonical_multiset gives up with LabellingLimitError. Colour refinement
# leaves a tie only between names that no pattern of occurrences tells
# apart, and the search tries every name of a tied cell, so k parts that
# hang alike off one shared name cost k! leaves.
LEAF_LIMIT = 10_000


def canonical_multiset(items, interface, show):
    """Return (canonical tuple, renaming) for a multiset of terms.

    The renamable names are the names outside the interface: the free
    ones and the binders, which are freshened apart first in the items
    that have them. An item with no renamable name is ground: it is its
    own canonical form and is shown once. The other items split into
    components, the classes of items linked by shared renamable names,
    and `_label` names each component %g0, %g1, ... canonically.
    Components are sorted by their printed items under those local names
    and then take the global names %gN in that order. Two multisets thus
    get equal tuples exactly when a bijection of renamable names maps one
    onto the other.

    `show` is the family's printer. The canonical tuple is a plain tuple
    sorted by printed form. The renaming maps the original free
    non-interface names to their %gN replacements (binder renamings are
    internal and omitted).
    """
    interface = set(interface)
    shown, pending, bound = [], [], []
    for it in items:
        names = []
        if _collect(it, names):
            bound.append(it)
        elif interface.issuperset(names):
            shown.append((show(it), it))
        else:
            pending.append((it, _renamable(names, interface)))
    binders = set()
    if bound:
        taken = interface.union(*(names for _, names in pending))
        for it in bound:
            taken.update(occurrences(it))
        supply = name_supply("%u", taken)
        for it in bound:
            it = freshen_apart(it, supply)
            names = _renamable(occurrences(it), interface)
            binders.update(n for n in names if n not in taken)
            pending.append((it, names))

    classes = _components(pending)
    labelled = [_label(members, show) for members in classes]
    renaming = {}
    for c in sorted(range(len(classes)), key=lambda c: labelled[c][0]):
        offset = len(renaming)
        m = {n: f"%g{k + offset}" for k, n in enumerate(labelled[c][1])}
        for t, _ in classes[c]:
            t = rename_all(t, m)
            shown.append((show(t), t))
        renaming.update(m)
    for n in binders:
        del renaming[n]
    shown.sort(key=lambda pair: pair[0])
    return tuple(t for _, t in shown), renaming


def _renamable(names, interface):
    """The names outside the interface, each once, in order."""
    return [n for n in dict.fromkeys(names) if n not in interface]


def _components(pending):
    """Split (term, names) pairs into the classes of pairs linked by
    shared names."""
    root = list(range(len(pending)))

    def find(k):
        while root[k] != k:
            root[k] = k = root[root[k]]
        return k

    first = {}
    for k, (_, names) in enumerate(pending):
        for n in names:
            root[find(first.setdefault(n, k))] = find(k)
    classes = {}
    for k, pair in enumerate(pending):
        classes.setdefault(find(k), []).append(pair)
    return list(classes.values())


def _ranks(signatures):
    """Each signature's rank among the distinct signatures, in sorted
    order, and the number of distinct signatures."""
    rank = {s: r for r, s in enumerate(sorted(set(signatures)))}
    return [rank[s] for s in signatures], len(rank)


def _label(members, show):
    """Canonical local names %g0, %g1, ... for the names of one component.

    `members` are (term, names) pairs, names being the term's renamable
    names in order of first occurrence. A member's shape is its term
    printed with those names as %g0, %g1, ...; it depends on the term
    alone. Colour refinement (McKay and Piperno, "Practical graph
    isomorphism, II", J. Symb. Comput. 2014) colours a name by its places:
    the shape of each member it occurs in and its index among that
    member's names, then also the colours of those members' other names,
    until no colour splits. While some colour is shared, the search
    individualizes in turn each name of the first smallest shared colour
    and refines again. A leaf, where every colour is one name's, names
    each name by its colour; the leaf whose sorted printed members come
    first wins. Colours are built from printed shapes and places only, so
    the result does not depend on the order of the members.

    Returns the sorted printed members and the names in the order of their
    local names.
    """
    shapes = [show(rename_all(t, {n: f"%g{j}" for j, n in enumerate(names)}))
              for t, names in members]
    if len(members) == 1:
        return tuple(shapes), members[0][1]
    kinds, _ = _ranks(shapes)
    index = {}
    for _, names in members:
        for n in names:
            index.setdefault(n, len(index))
    rows = [[index[n] for n in names] for _, names in members]
    places = [[] for _ in index]
    for m, row in enumerate(rows):
        for j, v in enumerate(row):
            places[v].append((m, j))

    def refine(colour):
        count = len(set(colour))
        while True:
            member, _ = _ranks([(kinds[m], tuple(colour[v] for v in row))
                                for m, row in enumerate(rows)])
            colour, split = _ranks([(colour[v], tuple(sorted(
                (member[m], j) for m, j in p))) for v, p in enumerate(places)])
            if split == count:
                return colour
            count = split

    best = None
    leaves = 0
    stack = [refine([0] * len(index))]
    while stack:
        colour = stack.pop()
        cells = {}
        for v, c in enumerate(colour):
            cells.setdefault(c, []).append(v)
        if len(cells) < len(colour):
            c, cell = min(((c, cell) for c, cell in cells.items()
                           if len(cell) > 1),
                          key=lambda pair: (len(pair[1]), pair[0]))
            for v in cell:
                child = [2 * k + 1 for k in colour]
                child[v] = 2 * c
                stack.append(refine(child))
            continue
        leaves += 1
        if leaves > LEAF_LIMIT:
            raise LabellingLimitError(LEAF_LIMIT)
        m = {n: f"%g{colour[v]}" for n, v in index.items()}
        leaf = tuple(sorted(show(rename_all(t, m)) for t, _ in members))
        if best is None or leaf < best[0]:
            best = (leaf, sorted(index, key=lambda n: colour[index[n]]))
    return best
