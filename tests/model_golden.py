"""Seeded class models and everything the model path reports on each, for a
golden file.

``inputs(seed)`` rebuilds the same list of labelled models from a seed:
``tests.modelgen`` models in their own declaration order and reversed;
mutants of such models (an edge that closes a cycle, a parent renamed to
an unknown class, a self-parent, a self-use, an inherited method or
attribute declared again, an override of a non-ancestor, of a method the
target lacks, of a differently named method or of an unknown class, and
two of these at once); and stars, chains, diamonds and cycles in both
declaration orders.  ``outcome`` reduces a model to JSON: the ``validate``
diagnostics in order, ``compute_all(m).to_json()`` or the exception, and
``tallies`` and ``descendants`` of every class and of one absent name.
``cli_outcomes`` runs ``moodkit metrics`` on a subset of the models in
all three formats and keeps each exit code, stdout and stderr.

The golden keeps a digest of every outcome and the full outcome of the
first few models of each family, so that a mismatch there can be read.
Regenerate it only from a model path whose output is trusted:

    PYTHONPATH=src python -m tests.model_golden
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import tempfile
from pathlib import Path

from moodkit import (
    AttributeDecl, ClassDecl, ClassModel, MethodDecl, MethodKind, MoodkitError,
    Visibility, compute_all, descendants, render, tallies, validate,
)
from moodkit.cli import main

from tests.modelgen import make_model

GOLDEN = Path(__file__).parent / "data" / "model_golden.json"
SEED = 2501
FORMATS = ("table", "json", "csv")
# Full outcomes kept per numbered family; the rest keep a digest.
FULL = 3
# Every CLI_EVERY-th model also runs through the CLI.
CLI_EVERY = 25

H, V = Visibility.HIDDEN, Visibility.VISIBLE
_TALLY_FIELDS = ("m_v", "m_h", "m_d", "m_i", "m_a", "m_n", "m_o",
                 "a_v", "a_h", "a_d", "a_i", "a_a", "dc")


def cls(name, parents=(), methods=(), attributes=(), uses=()):
    return ClassDecl(name, parents, methods, attributes, uses)


def m(name, vis=V, target=None):
    kind = MethodKind.OVERRIDE if target else MethodKind.NEW
    return MethodDecl(name, vis, kind, target)


def a(name, vis=V):
    return AttributeDecl(name, vis)


def _ancestors(decls, name):
    by_name = {d.name: d for d in decls}
    out, stack = [], list(by_name[name].parents)
    while stack:
        p = stack.pop()
        if p in by_name and p not in out:
            out.append(p)
            stack.extend(by_name[p].parents)
    return out


def _replace(decls, i, **fields):
    d = decls[i]
    values = {"parents": d.parents, "methods": d.methods,
              "attributes": d.attributes, "uses": d.uses, **fields}
    decls[i] = cls(d.name, **values)


def _close_cycle(rng, decls):
    # Some ancestor of a class lists that class as a parent.
    i = rng.choice([k for k, d in enumerate(decls) if d.parents])
    top = rng.choice(_ancestors(decls, decls[i].name))
    j = next(k for k, d in enumerate(decls) if d.name == top)
    _replace(decls, j, parents=decls[j].parents + (decls[i].name,))


def _unknown_parent(rng, decls):
    i = rng.choice([k for k, d in enumerate(decls) if d.parents])
    parents = list(decls[i].parents)
    parents[rng.randrange(len(parents))] = "Ghost"
    _replace(decls, i, parents=tuple(parents))


def _self_parent(rng, decls):
    i = rng.randrange(len(decls))
    _replace(decls, i, parents=decls[i].parents + (decls[i].name,))


def _self_use(rng, decls):
    i = rng.randrange(len(decls))
    uses = list(decls[i].uses)
    uses.insert(rng.randint(0, len(uses)), decls[i].name)
    _replace(decls, i, uses=tuple(uses))


def _inherited_again(rng, decls):
    # A class declares again, as new, a method or an attribute that one of
    # its ancestors declares: validate reports SHADOWING.
    by_name = {d.name: d for d in decls}
    choices = [(k, f) for k, d in enumerate(decls)
               for p in _ancestors(decls, d.name)
               for f in by_name[p].methods + by_name[p].attributes]
    i, feature = rng.choice(choices)
    if isinstance(feature, MethodDecl):
        _replace(decls, i, methods=decls[i].methods + (m(feature.name),))
    else:
        _replace(decls, i, attributes=decls[i].attributes + (a(feature.name),))


def _bad_override(rng, decls):
    # An override of a class that is no ancestor, of a method its target
    # lacks, of a differently named method, or of an unknown class.
    i = rng.randrange(len(decls))
    ancestors = _ancestors(decls, decls[i].name)
    others = [d for d in decls if d.name not in ancestors]
    how = rng.randrange(4)
    if how == 0:
        target = rng.choice(others)
        name = rng.choice(target.methods).name if target.methods else "f"
        method = m(name, target=(target.name, name))
    elif how == 1 and ancestors:
        method = m("lacking", target=(rng.choice(ancestors), "lacking"))
    elif how == 2 and ancestors:
        method = m("renamed", target=(rng.choice(ancestors), "other"))
    else:
        method = m("f", target=("Phantom", "f"))
    _replace(decls, i, methods=decls[i].methods + (method,))


MUTANTS = {"cycle": _close_cycle, "unknown parent": _unknown_parent,
            "self-parent": _self_parent, "self-use": _self_use,
            "inherited again": _inherited_again, "bad override": _bad_override}


def mutant(rng, mutations):
    """A generated model with each mutation applied once; a model that
    offers no place for one is drawn again."""
    while True:
        decls = list(make_model(rng, max_classes=8, min_classes=3))
        try:
            for mutate in mutations:
                mutate(rng, decls)
        except (IndexError, StopIteration):
            continue
        return ClassModel(decls)


def star(n, root_last, shared):
    """A root below n leaves; each leaf declares one method (run for all
    when shared, which the root declares too) and uses the root and the
    next leaf."""
    root = cls("Root", methods=(m("run"),), attributes=(a("size"),))
    leaves = [cls(f"Leaf{i}", ("Root",),
                  (m("run" if shared else f"m{i}"),) if i % 3 else
                  (m("run", target=("Root", "run")),),
                  uses=("Root", f"Leaf{(i + 1) % n}"))
              for i in range(n)]
    return ClassModel(leaves + [root] if root_last else [root] + leaves)


def chain(n, child_first):
    """C0 <- C1 <- ...; every class declares a method and an attribute,
    hidden in odd classes; every third overrides C0's run; each uses C0 and
    the class two below it."""
    decls = [cls(f"C{i}", (f"C{i - 1}",) if i else (),
                 (m(f"m{i}"),) + ((m("run", target=("C0", "run")),)
                                  if i % 3 == 0 else ()),
                 (a(f"a{i}", H if i % 2 else V),),
                 ("C0", f"C{min(i + 2, n - 1)}"))
             for i in range(n)]
    decls[0] = cls("C0", (), (m("run"), m("m0", H)), decls[0].attributes,
                   decls[0].uses)
    return ClassModel(reversed(decls) if child_first else decls)


def _diamonds():
    """Top <- L, R <- Bottom and its variants: overrides on one side or
    both, a shadowing bottom, an override through a side that only
    inherits, a parent and a use listed twice, four sides, and two
    diamonds stacked."""
    top = cls("Top", methods=(m("f"), m("g", H)), attributes=(a("x"),))
    left, right = cls("L", ("Top",)), cls("R", ("Top",), uses=("L",))
    bottom = cls("Bottom", ("L", "R"), uses=("Top", "R", "L"))
    f_in = lambda side: m("f", target=(side, "f"))  # noqa: E731
    yield "plain", [top, left, right, bottom]
    yield "left overrides", [top, cls("L", ("Top",), (f_in("Top"),)), right, bottom]
    yield "both override", [top, cls("L", ("Top",), (f_in("Top"),)),
                            cls("R", ("Top",), (f_in("Top"), m("r"))),
                            cls("Bottom", ("L", "R"), (f_in("L"),))]
    yield "bottom shadows", [top, left, right,
                             cls("Bottom", ("L", "R"), (m("f"),), (a("x"),))]
    yield "override through a side", [top, left, right,
                                      cls("Bottom", ("L", "R"), (f_in("R"),))]
    yield "listed twice", [top, left, right,
                           cls("Bottom", ("L", "L", "R"), uses=("Top", "R", "R"))]
    yield "four sides", [top] + [cls(f"S{k}", ("Top",), (m(f"s{k}"),), uses=("Top",))
                                 for k in range(4)] + [
        cls("Bottom", tuple(f"S{k}" for k in range(4)), (f_in("S2"),))]
    yield "stacked", [top, left, right, bottom,
                      cls("L2", ("Bottom",), (m("l2"),)),
                      cls("R2", ("Bottom",), (f_in("Bottom"),), (a("y"),)),
                      cls("Bottom2", ("R2", "L2"), uses=("Top", "L"))]


def _cycles():
    """Cycles whose members, or whose order among themselves, differ from
    declaration order: two of two classes, one of three below a root, and
    one that a class outside it extends."""
    yield "two", [cls("Zeta", ("Zed",)), cls("Zed", ("Zeta",), uses=("Zeta",)),
                  cls("Alpha", ("Beta",)), cls("Beta", ("Alpha",))]
    yield "three", [cls("Root"), cls("Cee", ("Bee", "Root")), cls("Bee", ("Ay",)),
                    cls("Ay", ("Cee",), (m("f"),))]
    yield "extended", [cls("Leaf", ("Mid",)), cls("Mid", ("Top",)),
                       cls("Top", ("Mid",)), cls("Self", ("Self", "Top"))]


def inputs(seed: int = SEED) -> list[tuple[str, ClassModel]]:
    """About 520 labelled models: 240 generated (120 in each declaration
    order), 230 mutants, 26 stars and chains, 16 diamonds and 6 cycles."""
    rng = random.Random(seed)
    out = []
    for k in range(120):
        model = make_model(rng, max_classes=8)
        out.append((f"generated {k}", model))
        out.append((f"generated reversed {k}", ClassModel(reversed(model.classes))))
    for family, mutate in MUTANTS.items():
        out += [(f"{family} {k}", mutant(rng, [mutate])) for k in range(30)]
    names = sorted(MUTANTS)
    for k in range(40):
        pair = rng.sample(names, 2) if k % 4 else ["cycle", "cycle"]
        out.append((f"{' + '.join(pair)} {k}",
                    mutant(rng, [MUTANTS[name] for name in pair])))
    for n in (2, 3, 7, 16):
        for root_last in (False, True):
            for shared in (False, True):
                out.append((f"star {n}{' root last' * root_last}"
                            f"{' shared' * shared}", star(n, root_last, shared)))
    for n in (1, 2, 3, 7, 16):
        for child_first in (False, True):
            out.append((f"chain {n}{' child first' * child_first}",
                        chain(n, child_first)))
    for family, make in (("diamond", _diamonds), ("cyclic", _cycles)):
        for label, decls in make():
            out.append((f"{family} {label}", ClassModel(decls)))
            out.append((f"{family} {label} reversed", ClassModel(reversed(decls))))
    return out


def _error(exc: MoodkitError) -> list[str]:
    return [type(exc).__name__, str(exc)]


def _answer(call, *args):
    # The type alone: an InvalidModelError carries validate's diagnostics,
    # which the outcome holds once.
    try:
        return call(*args)
    except MoodkitError as exc:
        return type(exc).__name__


def outcome(model: ClassModel) -> dict:
    """What validate, compute_all, tallies and descendants say of a model,
    in the JSON form the golden holds."""
    try:
        report = compute_all(model).to_json()
    except MoodkitError as exc:
        report = _error(exc)
    classes = {}
    for name in [d.name for d in model] + ["Absent"]:
        t = _answer(tallies, model, name)
        if not isinstance(t, str):
            t = [getattr(t, key) for key in _TALLY_FIELDS]
        classes[name] = [t, _answer(descendants, model, name)]
    return {"diagnostics": [[d.code, d.class_name, d.message]
                            for d in validate(model)],
            "report": report, "classes": classes}


def outcome_digest(result: dict) -> str:
    text = json.dumps(result, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def full(label: str, model: ClassModel) -> bool:
    """Whether the golden keeps the whole outcome: for the first FULL
    models of a numbered family, and for stars, chains, diamonds and
    cycles of at most 8 classes."""
    if label[-1].isdigit():
        return int(label.rsplit(" ", 1)[1]) < FULL
    return len(model) <= 8


def cli_outcomes(labelled: list[tuple[str, ClassModel]]) -> list[list]:
    """[label, format, exit code, stdout, stderr] of ``moodkit metrics`` on
    every CLI_EVERY-th model, rendered to a file, in each format."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "model.omdl")
        for label, model in labelled[::CLI_EVERY]:
            Path(path).write_text(render(model), encoding="utf-8")
            for fmt in FORMATS:
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), \
                        contextlib.redirect_stderr(stderr):
                    code = main(["metrics", path, "--format", fmt])
                out.append([label, fmt, code, stdout.getvalue(), stderr.getvalue()])
    return out


def digest(labelled: list[tuple[str, ClassModel]]) -> str:
    text = "\0".join(label + repr(model.classes) for label, model in labelled)
    return hashlib.sha256(text.encode()).hexdigest()


def record(labelled: list[tuple[str, ClassModel]]) -> list[list]:
    """[label, digest, full outcome or None] of each model."""
    rows = []
    for label, model in labelled:
        result = json.loads(json.dumps(outcome(model)))
        rows.append([label, outcome_digest(result),
                     result if full(label, model) else None])
    return rows


if __name__ == "__main__":
    labelled = inputs()
    GOLDEN.parent.mkdir(exist_ok=True)
    lines = [json.dumps(row, ensure_ascii=False, separators=(",", ":"))
             for row in record(labelled)]
    cli = [json.dumps(row, ensure_ascii=False, separators=(",", ":"))
           for row in cli_outcomes(labelled)]
    GOLDEN.write_text(
        f'{{"seed": {SEED}, "inputs": "{digest(labelled)}", "outcomes": [\n'
        + ",\n".join(lines) + '\n], "cli": [\n' + ",\n".join(cli) + "\n]}\n",
        encoding="utf-8")
