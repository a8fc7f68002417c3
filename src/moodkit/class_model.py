"""Class-model representation and the per-class tallies the metrics consume.

A :class:`ClassModel` is an immutable directed graph of class declarations:
inheritance edges (``parents``), client edges (``uses``), and per-class
feature lists (methods and attributes).  :func:`validate` reports structural
problems as diagnostics; :func:`tallies` derives the feature counts used by
the metric formulas; :func:`descendants` counts the proper subtree below a
class.

Every inheritance query reads one index, built on first use and kept on the
model.  One iterative Tarjan pass over the parent graph finds its cycles and
a topological order.  A walk down that order decides the distinct (origin,
name) features each class inherits, shadowing, override targets and cf's
clients; a walk back up counts descendants.  Each walk holds a class's sets
and maps only until their last reader is done, so a star takes memory
linear in its size in either declaration order, and no depth of hierarchy
needs recursion.  Queries that need the index raise
:class:`~moodkit.errors.InvalidModelError`, carrying the model's
diagnostics, when a parent name is unresolved or the parent graph is cyclic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter, countOf, itemgetter
from typing import Iterator, NamedTuple, Optional

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
    unknown_target = False
    for decl in model:
        for kind, code, features in (
                ("method", DUPLICATE_METHOD, decl.methods),
                ("attribute", DUPLICATE_ATTRIBUTE, decl.attributes)):
            seen: set[str] = set()
            for f in features:
                if f.name in seen:
                    diags.append(Diagnostic(
                        code,
                        f"{kind} {f.name!r} declared more than once in "
                        f"{decl.name!r}", decl.name))
                seen.add(f.name)

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

    # A self-parent breaks the index but is no edge of the parent
    # graph, so it gets SELF_REFERENCE alone: CYCLE is for two or more.
    index = model._index
    for members in index.cycles:
        diags.append(Diagnostic(
            CYCLE,
            "inheritance cycle: " + " -> ".join(members + (members[0],)),
            members[0]))
    if not unknown_target:
        diags.extend(index.findings)
    return diags


class _InheritanceIndex(NamedTuple):
    """Inheritance facts of one model: ``cycles`` (of two or more classes,
    as sorted names), ``broken`` (a cycle, a self-parent or an unresolved
    parent) and, unless it holds, per-class counts in declaration position,
    cf's numerator and the semantic diagnostics in that order."""

    cycles: list[tuple[str, ...]]
    broken: bool
    descendants: list[int]
    inherited: tuple[list[int], list[int]]
    clients: int
    findings: list[Diagnostic]


def _valid_index(model: ClassModel) -> _InheritanceIndex:
    """The index of a model whose parent graph is resolved and acyclic."""
    index = model._index
    if index.broken:
        raise InvalidModelError(validate(model))
    return index


def _build_index(model: ClassModel) -> _InheritanceIndex:
    decls, position = model.classes, model._position
    parents: list[list[int]] = [[] for _ in decls]
    n_children = [0] * len(decls)
    asked: dict[int, set[str]] = {}
    broken = False
    for i, decl in enumerate(decls):
        for m in decl.methods:
            if m.override_target and m.override_target[0] in position:
                asked.setdefault(position[m.override_target[0]], set()).add(m.name)
        for name in dict.fromkeys(decl.parents):
            j = position.get(name)
            if j is None or j == i:
                broken = True
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
    if broken or cycles:
        return _InheritanceIndex(sorted(cycles), True, [], ([], []), 0, [])
    return _InheritanceIndex([], False, _count_descendants(order, parents),
                             *_walk(model, order, parents, n_children, asked))


def _merge(available: dict[str, frozenset[int]],
           features: dict[str, frozenset[int]]) -> int:
    """Merge a map from feature names to the positions of their origins
    into another; the number of (origin, name) features it adds."""
    added = 0
    for name, origins in features.items():
        have = available.get(name)
        if have is None:
            available[name] = origins
            added += len(origins)
        elif have is not origins:
            available[name] = have | origins
            added += len(available[name]) - len(have)
    return added


def _walk(model: ClassModel, order: list[int], parents: list[list[int]],
          unread: list[int], asked: dict[int, set[str]]):
    """Inherited counts, cf's clients and the semantic findings.

    A class hands its children the positions of itself and its ancestors
    and its available methods and attributes, held until the last of the
    ``unread`` children has read them.  A class with no children reads its
    one parent's in place; any other merges into its first parent's, taken
    over by that parent's last reader: a chain carries one set and one map
    of each kind.  ``asked`` holds the names that overrides target in a
    class, cut down to those it has once walked, before any descendant."""
    decls, position = model.classes, model._position
    held: dict[int, tuple] = {}
    inherited_methods, inherited_attrs = [0] * len(decls), [0] * len(decls)
    clients = 0
    findings: list[tuple[int, Diagnostic]] = []
    for i in order:
        decl, ps, read = decls[i], parents[i], []
        for j in ps:
            unread[j] -= 1
            read.append(held[j] if unread[j] else held.pop(j))
        ancestors, methods, attrs, m_count, a_count = (
            read[0] if read else (set(), {}, {}, 0, 0))
        if read and ps[0] in held and (len(ps) > 1 or unread[i]):
            ancestors, methods, attrs = set(ancestors), dict(methods), dict(attrs)
        for other, other_methods, other_attrs, _, _ in read[1:]:
            ancestors |= other
            m_count += _merge(methods, other_methods)
            a_count += _merge(attrs, other_attrs)
        local_methods, local_attrs = decl.method_names(), decl.attribute_names()
        for name in local_methods:
            m_count -= len(methods.get(name, ()))
        for name in local_attrs:
            a_count -= len(attrs.get(name, ()))
        inherited_methods[i], inherited_attrs[i] = m_count, a_count
        # Duplicate uses entries count once: is_client is a 0/1 predicate.
        for name in set(decl.uses):
            j = position.get(name)
            clients += j is not None and j != i and j not in ancestors

        for m in decl.methods:
            if m.kind is MethodKind.NEW:
                if m.name in methods:
                    findings.append((i, Diagnostic(
                        SHADOWING, f"{decl.name!r}.{m.name} shadows an inherited "
                        "method; declare it with 'overrides' or rename it",
                        decl.name)))
                continue
            # An unknown target class is no ancestor; validate drops these.
            target_cls, target_meth = m.override_target
            target = position.get(target_cls)
            if target_meth != m.name:
                why = (" cannot override differently named method "
                       f"{target_cls}.{target_meth}")
            elif target not in ancestors:
                why = f": {target_cls!r} is not an ancestor"
            elif m.name not in asked[target]:
                why = f": no method {target_meth!r} in ancestor {target_cls!r}"
            else:
                continue
            findings.append((i, Diagnostic(
                BAD_OVERRIDE, f"{decl.name!r}.{m.name}{why}", decl.name)))
        for a in decl.attributes:
            if a.name in attrs:
                findings.append((i, Diagnostic(
                    SHADOWING, f"{decl.name!r}.{a.name} shadows an inherited "
                    "attribute", decl.name)))
        if unread[i]:
            own = frozenset((i,))
            methods.update(dict.fromkeys(local_methods, own))
            attrs.update(dict.fromkeys(local_attrs, own))
            ancestors.add(i)
            if i in asked:
                asked[i] &= methods.keys()
            held[i] = (ancestors, methods, attrs, m_count + len(local_methods),
                       a_count + len(local_attrs))
    findings.sort(key=itemgetter(0))
    return ((inherited_methods, inherited_attrs), clients,
            [diag for _, diag in findings])


def _count_descendants(order: list[int], parents: list[list[int]]) -> list[int]:
    """Per class, the number of its strict descendants, from one walk up
    the topological order: each class adds itself and its descendants to
    each parent's set.  The last parent takes that set over, or the larger
    set absorbs the smaller, so a chain carries a single set."""
    below: dict[int, set[int]] = {}
    counts = [0] * len(order)
    for i in reversed(order):
        mine = below.pop(i, set())
        counts[i] = len(mine)
        mine.add(i)
        last = len(parents[i]) - 1
        for k, j in enumerate(parents[i]):
            theirs = below.setdefault(j, set())
            if k < last or len(theirs) >= len(mine):
                theirs |= mine
            else:
                mine |= theirs
                below[j] = mine
    return counts


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
    m_i, a_i = (counts[i] for counts in index.inherited)
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
