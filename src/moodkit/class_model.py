"""Class-model representation and the per-class tallies the metrics consume.

A :class:`ClassModel` is an immutable directed graph of class declarations:
inheritance edges (``parents``), client edges (``uses``), and per-class
feature lists (methods and attributes).  :func:`validate` reports structural
problems as diagnostics; :func:`tallies` derives the feature counts used by
the metric formulas; :func:`descendants` counts the proper subtree below a
class.

Every inheritance query reads one index, built on first use and kept on the
model.  One iterative Tarjan pass over the parent graph finds its cycles and
a topological order, in which each class gets its strict ancestors as an
int bitmask (bit i is the i-th declared class), its strict-descendant count,
and the number of distinct (origin, name) methods and attributes it
inherits.  The cost is near-linear in the size of the model, so hierarchies
of any depth need no recursion.  Queries that need the index raise
:class:`~moodkit.errors.InvalidModelError`, carrying the model's
diagnostics, when a parent name is unresolved or the parent graph is cyclic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter, countOf
from typing import Callable, Iterator, NamedTuple, Optional

from .errors import InvalidModelError, UnknownClassError


class Visibility(enum.Enum):
    VISIBLE = "visible"
    HIDDEN = "hidden"


class MethodKind(enum.Enum):
    NEW = "new"
    OVERRIDE = "override"


def _type_error(decl, field_name: str, value, kind: type) -> TypeError:
    return TypeError(f"{type(decl).__name__} {decl.name!r}: {field_name} "
                     f"holds {value!r}, not a {kind.__name__}")


# Sets a field of a frozen declaration as the generated __init__ does.
# Writing to __dict__ instead would give each instance its own dict.
_set = object.__setattr__


def _check_member(decl) -> None:
    if not isinstance(decl.name, str):
        raise _type_error(decl, "name", decl.name, str)
    if not isinstance(decl.visibility, Visibility):
        raise _type_error(decl, "visibility", decl.visibility, Visibility)


@dataclass(frozen=True)
class MethodDecl:
    """A method declaration.

    ``override_target`` is the (ancestor class, method name) pair being
    redefined; it is present exactly when ``kind`` is OVERRIDE.  A field of
    the wrong type raises TypeError; a target without an OVERRIDE kind, or
    one that is not a pair, raises ValueError.
    """

    name: str
    visibility: Visibility = Visibility.VISIBLE
    kind: MethodKind = MethodKind.NEW
    override_target: Optional[tuple[str, str]] = None

    def __post_init__(self):
        _check_member(self)
        if not isinstance(self.kind, MethodKind):
            raise _type_error(self, "kind", self.kind, MethodKind)
        target = self.override_target
        if (self.kind is MethodKind.OVERRIDE) != (target is not None):
            raise ValueError(
                f"method {self.name!r}: kind {self.kind.value!r} inconsistent "
                f"with override_target {target!r}")
        if target is not None:
            if type(target) is not tuple or len(target) != 2:
                raise ValueError(f"method {self.name!r}: override_target must "
                                 f"be a (class, method) pair, got {target!r}")
            for part in target:
                if not isinstance(part, str):
                    raise _type_error(self, "override_target", part, str)

    @classmethod
    def _parsed(cls, name: str, visibility: Visibility,
                target: Optional[tuple[str, str]]) -> MethodDecl:
        """Unchecked, for parse, whose fields have the types checked above."""
        decl = cls.__new__(cls)
        _set(decl, "name", name)
        _set(decl, "visibility", visibility)
        _set(decl, "kind", MethodKind.NEW if target is None else MethodKind.OVERRIDE)
        _set(decl, "override_target", target)
        return decl


@dataclass(frozen=True)
class AttributeDecl:
    """An attribute declaration; a field of the wrong type raises TypeError."""

    name: str
    visibility: Visibility = Visibility.VISIBLE

    def __post_init__(self):
        _check_member(self)

    @classmethod
    def _parsed(cls, name: str, visibility: Visibility) -> AttributeDecl:
        """Unchecked, as MethodDecl._parsed."""
        decl = cls.__new__(cls)
        _set(decl, "name", name)
        _set(decl, "visibility", visibility)
        return decl


@dataclass(frozen=True)
class ClassDecl:
    """A class: its name, parent names, methods, attributes and the names of
    the classes it uses.  Each sequence is stored as a tuple; an element of
    the wrong type, or a bare str as parents or uses, raises TypeError."""

    name: str
    parents: tuple[str, ...] = ()
    methods: tuple[MethodDecl, ...] = ()
    attributes: tuple[AttributeDecl, ...] = ()
    uses: tuple[str, ...] = ()

    def __post_init__(self):
        # Accept any sequence of names but a bare string, which would split
        # into characters; store tuples so declarations hash and compare.
        if isinstance(self.parents, str) or isinstance(self.uses, str):
            raise TypeError(f"class {self.name!r}: a bare str as parents or uses")
        if not isinstance(self.name, str):
            raise _type_error(self, "name", self.name, str)
        for field_name, kind in (("parents", str), ("methods", MethodDecl),
                                 ("attributes", AttributeDecl), ("uses", str)):
            values = tuple(getattr(self, field_name))
            for value in values:
                if not isinstance(value, kind):
                    raise _type_error(self, field_name, value, kind)
            object.__setattr__(self, field_name, values)

    @classmethod
    def _parsed(cls, *fields) -> ClassDecl:
        """Unchecked, as MethodDecl._parsed: the fields in order, as tuples."""
        decl = cls.__new__(cls)
        for name, value in zip(cls.__dataclass_fields__, fields):
            _set(decl, name, value)
        return decl

    def method_names(self) -> set[str]:
        return {m.name for m in self.methods}

    def attribute_names(self) -> set[str]:
        return {a.name for a in self.attributes}


@dataclass(frozen=True, repr=False)
class ClassModel:
    """Ordered, name-keyed collection of class declarations.

    Immutable after construction; all derived queries are read-only, so a
    model can be shared freely across threads.  An element that is not a
    ClassDecl raises TypeError, and a repeated class name ValueError.  The
    inheritance index is built on the first query that needs it; two
    threads racing to build it build equal indexes, and either may be kept.
    """

    classes: tuple[ClassDecl, ...]

    def __post_init__(self):
        classes = tuple(self.classes)
        position: dict[str, int] = {}
        for i, decl in enumerate(classes):
            if not isinstance(decl, ClassDecl):
                raise TypeError(f"ClassModel: classes holds {decl!r}, not a ClassDecl")
            if position.setdefault(decl.name, i) != i:
                raise ValueError(f"duplicate class name: {decl.name!r}")
        _set(self, "classes", classes)
        _set(self, "_position", position)

    @cached_property
    def _index(self) -> _InheritanceIndex:
        return _build_index(self)

    def __len__(self) -> int:
        return len(self.classes)

    def __iter__(self) -> Iterator[ClassDecl]:
        return iter(self.classes)

    def __contains__(self, name: str) -> bool:
        return name in self._position

    def __repr__(self) -> str:
        return f"ClassModel({[c.name for c in self.classes]!r})"

    def get(self, name: str) -> ClassDecl:
        try:
            return self.classes[self._position[name]]
        except KeyError:
            raise UnknownClassError(name) from None


@dataclass(frozen=True)
class Diagnostic:
    """One validation finding: a stable code, a message, and the class involved."""

    code: str
    message: str
    class_name: Optional[str] = None


@dataclass(frozen=True)
class ClassTallies:
    """Feature counts for one class.

    Method counts: visible/hidden/defined/inherited/available/new/overriding.
    Attribute counts mirror them minus the new/override split.  ``dc`` is the
    number of strict descendants.
    """

    m_v: int
    m_h: int
    m_d: int
    m_i: int
    m_a: int
    m_n: int
    m_o: int
    a_v: int
    a_h: int
    a_d: int
    a_i: int
    a_a: int
    dc: int


# Diagnostic codes
EMPTY_MODEL = "EMPTY_MODEL"
CYCLE = "CYCLE"
UNRESOLVED_NAME = "UNRESOLVED_NAME"
SELF_REFERENCE = "SELF_REFERENCE"
DUPLICATE_METHOD = "DUPLICATE_METHOD"
DUPLICATE_ATTRIBUTE = "DUPLICATE_ATTRIBUTE"
SHADOWING = "SHADOWING"
BAD_OVERRIDE = "BAD_OVERRIDE"


def validate(model: ClassModel) -> list[Diagnostic]:
    """Check every model invariant; an empty list means the model is valid.

    Structural problems (dangling names, cycles, duplicate features) are
    always reported.  Shadowing and override-target checks run only on a
    resolved, acyclic parent graph whose override targets all exist.
    """
    diags: list[Diagnostic] = []
    if len(model) == 0:
        return [Diagnostic(EMPTY_MODEL, "model declares no classes")]

    position = model._position
    # Per feature name, the bitmask of the classes that declare it.  A name
    # whose mask already holds this class's bit is a duplicate.
    method_declarers: dict[str, int] = {}
    attr_declarers: dict[str, int] = {}
    unknown_target = False
    for i, decl in enumerate(model):
        bit = 1 << i
        for kind, code, features, declarers in (
                ("method", DUPLICATE_METHOD, decl.methods, method_declarers),
                ("attribute", DUPLICATE_ATTRIBUTE, decl.attributes, attr_declarers)):
            for f in features:
                mask = declarers.get(f.name, 0)
                if mask & bit:
                    diags.append(Diagnostic(
                        code,
                        f"{kind} {f.name!r} declared more than once in "
                        f"{decl.name!r}", decl.name))
                declarers[f.name] = mask | bit

        for names, where in ((decl.parents, "as a parent"), (decl.uses, "in uses")):
            if decl.name in names:
                diags.append(Diagnostic(
                    SELF_REFERENCE, f"{decl.name!r} lists itself {where}", decl.name))
        for names, verb in ((decl.parents, "extends"), (decl.uses, "uses")):
            for name in names:
                if name != decl.name and name not in position:
                    diags.append(Diagnostic(
                        UNRESOLVED_NAME,
                        f"{decl.name!r} {verb} unknown class {name!r}", decl.name))
        for m in decl.methods:
            if m.override_target is not None and m.override_target[0] not in position:
                diags.append(Diagnostic(
                    UNRESOLVED_NAME,
                    f"{decl.name!r}.{m.name} overrides method of unknown class "
                    f"{m.override_target[0]!r}", decl.name))
                unknown_target = True

    # A self-parent makes the index cyclic but is no edge of the parent
    # graph, so it gets SELF_REFERENCE alone: CYCLE is for two or more.
    index = model._index
    for members in index.cycles:
        diags.append(Diagnostic(
            CYCLE,
            "inheritance cycle: " + " -> ".join(members + (members[0],)),
            members[0]))
    if not (index.cyclic or index.unresolved or unknown_target):
        diags.extend(_check_inheritance_semantics(
            model, index, method_declarers, attr_declarers))
    return diags


def _check_inheritance_semantics(
        model: ClassModel, index: _InheritanceIndex,
        method_declarers: dict[str, int],
        attr_declarers: dict[str, int]) -> list[Diagnostic]:
    """Shadowing and override-target checks; requires an acyclic, resolved graph.

    A class inherits a name exactly when one of its strict ancestors
    declares it, so each check ANDs the mask of the classes declaring a
    name (from ``validate``'s duplicate check) with an ancestor mask.
    """
    diags: list[Diagnostic] = []
    for decl, ancestors in zip(model, index.ancestors):
        for m in decl.methods:
            declarers = method_declarers[m.name]
            if m.kind is MethodKind.NEW and declarers & ancestors:
                diags.append(Diagnostic(
                    SHADOWING,
                    f"{decl.name!r}.{m.name} shadows an inherited method; "
                    "declare it with 'overrides' or rename it", decl.name))
            elif m.kind is MethodKind.OVERRIDE:
                target_cls, target_meth = m.override_target
                target = model._position[target_cls]
                if target_meth != m.name:
                    diags.append(Diagnostic(
                        BAD_OVERRIDE,
                        f"{decl.name!r}.{m.name} cannot override differently "
                        f"named method {target_cls}.{target_meth}", decl.name))
                elif not ancestors >> target & 1:
                    diags.append(Diagnostic(
                        BAD_OVERRIDE,
                        f"{decl.name!r}.{m.name}: {target_cls!r} is not an "
                        "ancestor", decl.name))
                elif not declarers & (index.ancestors[target] | 1 << target):
                    diags.append(Diagnostic(
                        BAD_OVERRIDE,
                        f"{decl.name!r}.{m.name}: no method {target_meth!r} in "
                        f"ancestor {target_cls!r}", decl.name))
        for a in decl.attributes:
            if attr_declarers[a.name] & ancestors:
                diags.append(Diagnostic(
                    SHADOWING,
                    f"{decl.name!r}.{a.name} shadows an inherited attribute",
                    decl.name))
    return diags


class _InheritanceIndex(NamedTuple):
    """Inheritance facts of one model, per class in declaration position.

    ``cycles`` (each of two or more classes, as sorted names), ``cyclic`` (a
    cycle or a self-parent) and ``unresolved`` describe the parent graph.
    When either of the last two holds, the per-class lists are empty.
    """

    cycles: list[tuple[str, ...]]
    cyclic: bool
    unresolved: bool
    ancestors: list[int]
    descendants: list[int]
    inherited_methods: list[int]
    inherited_attrs: list[int]


def _valid_index(model: ClassModel) -> _InheritanceIndex:
    """The index of a model whose parent graph is resolved and acyclic."""
    index = model._index
    if index.cyclic or index.unresolved:
        raise InvalidModelError(validate(model))
    return index


def _build_index(model: ClassModel) -> _InheritanceIndex:
    decls = model.classes
    parents: list[list[int]] = [[] for _ in decls]
    n_children = [0] * len(decls)
    unresolved = self_parent = False
    for i, decl in enumerate(decls):
        for name in dict.fromkeys(decl.parents):
            j = model._position.get(name)
            if j is None:
                unresolved = True
            elif j == i:
                self_parent = True
            else:
                parents[i].append(j)
                n_children[j] += 1

    # Iterative Tarjan over the parent edges.  A component is emitted only
    # after every component it reaches, so a class follows its ancestors:
    # singletons make the order, larger components the cycles.  low[i] is 0
    # until i is visited; a live class is numbered by its stack position, an
    # emitted one takes `done`, above every live number.  Components come
    # off the stack's end (stack.index is quadratic on child-first chains).
    done = len(decls) + 1
    low = [0] * len(decls)
    stack: list[int] = []
    work: list[tuple[int, int, Iterator[int]]] = []
    order: list[int] = []
    cycles: list[tuple[str, ...]] = []
    for start in range(len(decls)):
        if low[start]:
            continue
        stack.append(start)
        low[start] = 1
        work.append((start, 1, iter(parents[start])))
        while work:
            i, number, edges = work[-1]
            for j in edges:
                if not low[j]:
                    stack.append(j)
                    low[j] = len(stack)
                    work.append((j, len(stack), iter(parents[j])))
                    break
                if low[j] < low[i]:
                    low[i] = low[j]
            else:
                work.pop()
                if low[i] < number:
                    k = work[-1][0]
                    low[k] = min(low[k], low[i])
                elif len(stack) == number:
                    stack.pop()
                    low[i] = done
                    order.append(i)
                else:
                    component = stack[number - 1:]
                    del stack[number - 1:]
                    for j in component:
                        low[j] = done
                    cycles.append(tuple(sorted(decls[j].name for j in component)))
    cyclic = self_parent or bool(cycles)
    if cyclic or unresolved:
        return _InheritanceIndex(sorted(cycles), cyclic, unresolved,
                                 [], [], [], [])

    ancestors = [0] * len(decls)
    for i in order:
        mask = 0
        for j in parents[i]:
            mask |= ancestors[j] | 1 << j
        ancestors[i] = mask
    # In reverse order every descendant of i is done before i is pushed up.
    below = [0] * len(decls)
    for i in reversed(order):
        for j in parents[i]:
            below[j] |= below[i] | 1 << i
    return _InheritanceIndex(
        [], False, False, ancestors, [mask.bit_count() for mask in below],
        _inherited_counts(decls, order, parents, n_children,
                          ClassDecl.method_names),
        _inherited_counts(decls, order, parents, n_children,
                          ClassDecl.attribute_names))


def _inherited_counts(decls: tuple[ClassDecl, ...], order: list[int],
                      parents: list[list[int]], n_children: list[int],
                      names_of: Callable[[ClassDecl], set[str]]) -> list[int]:
    """Per class, the number of distinct (origin, name) features it inherits.

    A feature is identified by the class that declares it and its name: a
    local declaration originates here (an override re-originates the
    method), an inherited feature keeps the origin of the declaring
    ancestor.  Union over several parents collapses features of the same
    identity, so a diamond contributes a feature once; an inherited feature
    is dropped when its name is declared locally.

    The walk carries each class's available features as a map from name to
    the frozenset of origin positions.  A class starts from its first
    parent's map and merges the others into it.  A map lives only until the
    last child has read it; that child, if the map is of its first parent,
    takes it over instead of copying it, so a chain carries a single map.
    """
    unread = list(n_children)
    held: dict[int, tuple[dict[str, frozenset[int]], int]] = {}
    inherited = [0] * len(decls)
    for i in order:
        local = names_of(decls[i])
        ps = parents[i]
        available: dict[str, frozenset[int]] = {}
        count = 0
        for j in ps:
            unread[j] -= 1
            features, n = held[j] if unread[j] else held.pop(j)
            if j == ps[0]:
                available, count = dict(features) if unread[j] else features, n
                continue
            for name, origins in features.items():
                have = available.get(name)
                if have is None:
                    available[name] = origins
                    count += len(origins)
                elif have is not origins:
                    merged = have | origins
                    available[name] = merged
                    count += len(merged) - len(have)
        for name in local:
            count -= len(available.pop(name, ()))
        inherited[i] = count
        if unread[i]:
            own = frozenset((i,))
            for name in local:
                available[name] = own
            held[i] = (available, count + len(local))
    return inherited


def tallies(model: ClassModel, name: str) -> ClassTallies:
    """Feature counts for one class of a valid model.

    Inherited counts cover every feature reachable through the transitive
    parent closure that is not declared locally; overriding a method counts
    it as locally defined, not inherited.  Raises UnknownClassError for an
    absent name and InvalidModelError for an unresolved or cyclic parent
    graph.
    """
    decl = model.get(name)
    index = _valid_index(model)
    i = model._position[name]
    m_d, m_h, m_n, a_d, a_h = _declared(decl)
    m_i = index.inherited_methods[i]
    a_i = index.inherited_attrs[i]
    return ClassTallies(
        m_v=m_d - m_h, m_h=m_h, m_d=m_d, m_i=m_i, m_a=m_d + m_i,
        m_n=m_n, m_o=m_d - m_n,
        a_v=a_d - a_h, a_h=a_h, a_d=a_d, a_i=a_i, a_a=a_d + a_i,
        dc=index.descendants[i],
    )


_visibility = attrgetter("visibility")
_kind = attrgetter("kind")


def _declared(decl: ClassDecl) -> tuple[int, int, int, int, int]:
    """Defined, hidden and new methods, then defined and hidden attributes,
    of one class.  A feature that is not visible is hidden, and a method
    that is not new overrides: tallies and the metrics both count so."""
    m, a = decl.methods, decl.attributes
    return (len(m), len(m) - countOf(map(_visibility, m), Visibility.VISIBLE),
            countOf(map(_kind, m), MethodKind.NEW),
            len(a), len(a) - countOf(map(_visibility, a), Visibility.VISIBLE))


def descendants(model: ClassModel, name: str) -> int:
    """Number of classes whose transitive parent closure includes ``name``.

    Raises UnknownClassError for an absent name and InvalidModelError for
    an unresolved or cyclic parent graph.
    """
    model.get(name)
    index = _valid_index(model)
    return index.descendants[model._position[name]]
