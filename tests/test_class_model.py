import gc
import json
import random
import time

import pytest

from moodkit import (
    AttributeDecl, ClassDecl, ClassModel, MethodDecl, MethodKind,
    UnknownClassError, Visibility, cf, descendants, tallies, validate,
)
from moodkit.class_model import (
    BAD_OVERRIDE, CYCLE, DUPLICATE_ATTRIBUTE, DUPLICATE_METHOD, EMPTY_MODEL,
    SELF_REFERENCE, SHADOWING, UNRESOLVED_NAME,
)

from tests import model_golden
from tests.modelgen import make_model
from tests.oracles import semantic_oracle
from tests.timing import median_ratio


def cls(name, parents=(), methods=(), attributes=(), uses=()):
    return ClassDecl(name=name, parents=parents, methods=methods,
                     attributes=attributes, uses=uses)


def m(name, vis=Visibility.VISIBLE, target=None):
    kind = MethodKind.OVERRIDE if target else MethodKind.NEW
    return MethodDecl(name=name, visibility=vis, kind=kind,
                      override_target=target)


def a(name, vis=Visibility.VISIBLE):
    return AttributeDecl(name=name, visibility=vis)


def codes(model):
    return sorted(d.code for d in validate(model))


def test_method_decl_rejects_inconsistent_override():
    with pytest.raises(ValueError):
        MethodDecl(name="x", kind=MethodKind.OVERRIDE)
    with pytest.raises(ValueError):
        MethodDecl(name="x", kind=MethodKind.NEW, override_target=("A", "x"))


@pytest.mark.parametrize("target", [("A",), ("A", "x", "y"), "Ax", ["A", "x"]])
def test_method_decl_rejects_malformed_override_target(target):
    with pytest.raises(ValueError, match="pair"):
        MethodDecl(name="x", kind=MethodKind.OVERRIDE, override_target=target)


@pytest.mark.parametrize("field", ["parents", "uses"])
def test_class_decl_rejects_bare_string_names(field):
    with pytest.raises(TypeError, match="bare str"):
        ClassDecl("X", **{field: "Base"})


OVERRIDE = MethodKind.OVERRIDE


@pytest.mark.parametrize("decl, kwargs, field", [
    (ClassDecl, dict(name=3), "name"),
    (ClassDecl, dict(name="X", parents=[["A"]]), "parents"),
    (ClassDecl, dict(name="X", uses=("A", None)), "uses"),
    (ClassDecl, dict(name="X", methods=("f",)), "methods"),
    (ClassDecl, dict(name="X", attributes=(m("f"),)), "attributes"),
    (MethodDecl, dict(name=b"f"), "name"),
    (MethodDecl, dict(name="f", visibility="visible", kind="new"), "visibility"),
    (MethodDecl, dict(name="f", kind="new"), "kind"),
    (MethodDecl, dict(name="f", kind=OVERRIDE, override_target=(["A"], "f")),
     "override_target"),
    (MethodDecl, dict(name="f", kind=OVERRIDE, override_target=("A", 1)),
     "override_target"),
    (AttributeDecl, dict(name=None), "name"),
    (AttributeDecl, dict(name="x", visibility="hidden"), "visibility"),
], ids=lambda v: v.__name__ if isinstance(v, type) else None)
def test_declarations_reject_wrong_types(decl, kwargs, field):
    with pytest.raises(TypeError, match=f"^{decl.__name__} .*: {field} holds "):
        decl(**kwargs)


@pytest.mark.parametrize("element", ["A", None, MethodDecl(name="f")])
def test_class_model_rejects_non_class_decls(element):
    with pytest.raises(TypeError, match="^ClassModel: classes holds "):
        ClassModel([cls("B"), element])


def test_duplicate_class_names_rejected():
    with pytest.raises(ValueError, match="duplicate class name"):
        ClassModel([cls("A"), cls("A")])


def test_get_unknown_class():
    model = ClassModel([cls("A")])
    with pytest.raises(UnknownClassError):
        model.get("B")


def test_empty_model_diagnostic():
    assert codes(ClassModel([])) == [EMPTY_MODEL]


def test_valid_two_class_model_is_clean():
    model = ClassModel([
        cls("Base", methods=(m("run"), m("init", Visibility.HIDDEN)),
            attributes=(a("size"),)),
        cls("Derived", parents=("Base",),
            methods=(m("run", target=("Base", "run")), m("extra"))),
    ])
    assert validate(model) == []


def test_unresolved_parent_and_use():
    model = ClassModel([cls("A", parents=("Ghost",), uses=("Phantom",))])
    assert codes(model) == [UNRESOLVED_NAME, UNRESOLVED_NAME]


def test_self_reference_parent_and_use():
    model = ClassModel([cls("A", parents=("A",)), cls("B", uses=("B",))])
    got = codes(model)
    assert got.count(SELF_REFERENCE) == 2


def test_cycle_detected_once_per_component():
    model = ClassModel([
        cls("A", parents=("B",)),
        cls("B", parents=("C",)),
        cls("C", parents=("A",)),
        cls("D"),
    ])
    diags = [d for d in validate(model) if d.code == CYCLE]
    assert len(diags) == 1
    assert diags[0].class_name == "A"


def test_two_independent_cycles():
    model = ClassModel([
        cls("A", parents=("B",)), cls("B", parents=("A",)),
        cls("X", parents=("Y",)), cls("Y", parents=("X",)),
    ])
    diags = [d for d in validate(model) if d.code == CYCLE]
    assert len(diags) == 2
    assert sorted(d.class_name for d in diags) == ["A", "X"]


def test_long_cycle_is_one_cycle_without_recursion():
    n = 10_000
    model = ClassModel(cls(f"C{i}", parents=(f"C{(i + 1) % n}",))
                       for i in range(n))
    diags = validate(model)
    assert [d.code for d in diags] == [CYCLE]
    assert diags[0].class_name == "C0"


def test_parent_graph_walk_cost_grows_linearly():
    # A chain declared child-first whose root lists itself as a parent:
    # the self-parent ends the index build after the walk of the parent
    # graph, so validate times that walk.  About 4x per quadrupling when
    # linear; taking each class off the stack by a search from the bottom
    # makes it quadratic, 12-14x.  Collecting first keeps a collection of
    # the model's garbage out of the timing.
    def timed(depth):
        model = ClassModel(cls(f"C{i}", parents=(f"C{max(i - 1, 0)}",))
                           for i in reversed(range(depth)))
        gc.collect()
        start = time.perf_counter()
        validate(model)
        return time.perf_counter() - start

    assert median_ratio(timed, 16_000, 4_000) < 8


def test_duplicate_features():
    model = ClassModel([
        cls("A", methods=(m("f"), m("f")), attributes=(a("x"), a("x"))),
    ])
    got = codes(model)
    assert DUPLICATE_METHOD in got and DUPLICATE_ATTRIBUTE in got


def test_shadowing_method_without_override():
    model = ClassModel([
        cls("Base", methods=(m("f"),)),
        cls("Derived", parents=("Base",), methods=(m("f"),)),
    ])
    assert SHADOWING in codes(model)


def test_shadowing_attribute():
    model = ClassModel([
        cls("Base", attributes=(a("x"),)),
        cls("Derived", parents=("Base",), attributes=(a("x"),)),
    ])
    assert SHADOWING in codes(model)


def test_override_of_non_ancestor_rejected():
    model = ClassModel([
        cls("Base", methods=(m("f"),)),
        cls("Other", methods=(m("f"),)),
        cls("Derived", parents=("Base",),
            methods=(m("f", target=("Other", "f")),)),
    ])
    assert BAD_OVERRIDE in codes(model)


def test_override_of_missing_method_rejected():
    model = ClassModel([
        cls("Base", methods=(m("f"),)),
        cls("Derived", parents=("Base",),
            methods=(m("g", target=("Base", "g")),)),
    ])
    assert BAD_OVERRIDE in codes(model)


def test_override_name_mismatch_rejected():
    model = ClassModel([
        cls("Base", methods=(m("f"),)),
        cls("Derived", parents=("Base",),
            methods=(m("g", target=("Base", "f")),)),
    ])
    assert BAD_OVERRIDE in codes(model)


def test_override_through_grandparent_allowed():
    model = ClassModel([
        cls("A", methods=(m("f"),)),
        cls("B", parents=("A",)),
        cls("C", parents=("B",), methods=(m("f", target=("A", "f")),)),
    ])
    assert validate(model) == []


def test_inheritance_checks_gated_on_broken_graph():
    # With a cycle present, no shadowing/override diagnostics are attempted.
    model = ClassModel([
        cls("A", parents=("B",), methods=(m("f"),)),
        cls("B", parents=("A",), methods=(m("f"),)),
    ])
    got = codes(model)
    assert CYCLE in got
    assert SHADOWING not in got and BAD_OVERRIDE not in got


# Base/Sub carry a shadowing method and a bad override; each case adds one
# cause that must switch the inheritance-sensitive checks off.
_GATED_CORE = [
    cls("Base", methods=(m("f"),)),
    cls("Sub", parents=("Base",),
        methods=(m("f"), m("g", target=("Base", "g")))),
]


@pytest.mark.parametrize("cause, code", [
    (cls("X", parents=("X",)), SELF_REFERENCE),
    (cls("X", parents=("Ghost",)), UNRESOLVED_NAME),
    (cls("X", methods=(m("f", target=("Ghost", "f")),)), UNRESOLVED_NAME),
], ids=["self-parent", "unresolved-parent", "unknown-override-class"])
def test_inheritance_checks_gated_on_each_cause(cause, code):
    assert {SHADOWING, BAD_OVERRIDE} <= set(codes(ClassModel(_GATED_CORE)))
    got = codes(ClassModel(_GATED_CORE + [cause]))
    assert code in got
    assert SHADOWING not in got and BAD_OVERRIDE not in got


def test_tallies_basic_counts():
    model = ClassModel([
        cls("Base", methods=(m("run"), m("init", Visibility.HIDDEN)),
            attributes=(a("size"), a("cap", Visibility.HIDDEN))),
        cls("Derived", parents=("Base",),
            methods=(m("run", target=("Base", "run")), m("extra")),
            attributes=(a("extra_attr"),)),
    ])
    base = tallies(model, "Base")
    assert (base.m_v, base.m_h, base.m_d, base.m_i, base.m_a) == (1, 1, 2, 0, 2)
    assert (base.m_n, base.m_o) == (2, 0)
    assert (base.a_v, base.a_h, base.a_d, base.a_i, base.a_a) == (1, 1, 2, 0, 2)
    assert base.dc == 1
    der = tallies(model, "Derived")
    # run is redefined locally, so only init is inherited
    assert (der.m_d, der.m_i, der.m_a) == (2, 1, 3)
    assert (der.m_n, der.m_o) == (1, 1)
    assert (der.a_d, der.a_i, der.a_a) == (1, 2, 3)
    assert der.dc == 0


def test_diamond_counts_once():
    model = ClassModel([
        cls("Top", methods=(m("f"),), attributes=(a("x"),)),
        cls("L", parents=("Top",)),
        cls("R", parents=("Top",)),
        cls("Bottom", parents=("L", "R")),
    ])
    assert validate(model) == []
    bottom = tallies(model, "Bottom")
    assert bottom.m_i == 1
    assert bottom.a_i == 1
    assert descendants(model, "Top") == 3


def test_override_blocks_transitive_inheritance():
    # Mid redefines f; Leaf inherits Mid's f, not Top's.
    model = ClassModel([
        cls("Top", methods=(m("f"), m("g"))),
        cls("Mid", parents=("Top",), methods=(m("f", target=("Top", "f")),)),
        cls("Leaf", parents=("Mid",)),
    ])
    assert validate(model) == []
    leaf = tallies(model, "Leaf")
    # f (from Mid) and g (from Top): two distinct inherited features
    assert leaf.m_i == 2
    assert leaf.m_a == 2


def test_diamond_with_one_side_overriding_yields_two_features():
    # L redefines f, R passes Top's f through: Bottom sees both identities.
    model = ClassModel([
        cls("Top", methods=(m("f"),)),
        cls("L", parents=("Top",), methods=(m("f", target=("Top", "f")),)),
        cls("R", parents=("Top",)),
        cls("Bottom", parents=("L", "R")),
    ])
    assert validate(model) == []
    assert tallies(model, "Bottom").m_i == 2


def test_descendants_chain():
    model = ClassModel([
        cls("A"), cls("B", parents=("A",)), cls("C", parents=("B",)),
    ])
    assert descendants(model, "A") == 2
    assert descendants(model, "B") == 1
    assert descendants(model, "C") == 0
    with pytest.raises(UnknownClassError):
        descendants(model, "Z")


def test_generated_models_validate_clean():
    rng = random.Random(1234)
    for _ in range(300):
        model = make_model(rng)
        assert validate(model) == [], f"dirty model: {validate(model)}"


def test_tallies_m_a_identity_on_generated_models():
    rng = random.Random(99)
    for _ in range(200):
        model = make_model(rng)
        for decl in model:
            t = tallies(model, decl.name)
            assert t.m_a == t.m_d + t.m_i
            assert t.a_a == t.a_d + t.a_i
            assert t.m_d == t.m_n + t.m_o
            assert t.m_d == t.m_v + t.m_h
            assert t.a_d == t.a_v + t.a_h


def test_queries_share_one_index_build(monkeypatch):
    from moodkit import class_model, compute_all

    builds = []
    real_build = class_model._build_index

    def counting_build(model):
        builds.append(model)
        return real_build(model)

    def no_validate(model):
        raise AssertionError("validate called on a valid model")

    model = make_model(random.Random(3), min_classes=4)
    monkeypatch.setattr(class_model, "_build_index", counting_build)
    assert validate(model) == []
    monkeypatch.setattr(class_model, "validate", no_validate)
    compute_all(model)
    for decl in model:
        tallies(model, decl.name)
        descendants(model, decl.name)
    assert builds == [model]


def test_validate_reads_names_off_the_position_map(monkeypatch):
    # One lookup per parent, use and override target: a Python-level
    # ClassModel.__contains__ call for each was a cost of every pass.
    rng = random.Random(2424)
    models = [make_model(rng, max_classes=10) for _ in range(50)]
    models.append(ClassModel([
        cls("A", parents=("Ghost",), uses=("A", "Nowhere"),
            methods=(m("f", target=("Phantom", "f")),)),
        cls("B", parents=("A",), uses=("A",))]))
    want = [validate(model) for model in models]
    assert UNRESOLVED_NAME in [d.code for d in want[-1]]

    def no_contains(model, name):
        raise AssertionError("validate called ClassModel.__contains__")

    monkeypatch.setattr(ClassModel, "__contains__", no_contains)
    assert [validate(model) for model in models] == want


def test_model_is_a_hashable_read_only_value():
    decls = [cls("A"), cls("B", parents=("A",))]
    model = ClassModel(decls)
    same = ClassModel(list(decls))
    assert model == same and hash(model) == hash(same)
    assert model != ClassModel(decls[:1])
    assert model != ClassModel([cls("A"), cls("B")])
    assert (model == "x") is False
    assert repr(model) == "ClassModel(['A', 'B'])"
    with pytest.raises(AttributeError):
        model.classes = ()
    from_iterator = ClassModel(iter(decls)).classes
    assert type(from_iterator) is tuple and from_iterator == tuple(decls)


def test_models_match_the_golden():
    # Outcomes recorded from a trusted model path (tests/model_golden.py
    # says how): each model's digest, and the whole outcome where the
    # golden keeps it; then moodkit metrics on a subset, in each format.
    golden = json.loads(model_golden.GOLDEN.read_text(encoding="utf-8"))
    labelled = model_golden.inputs(golden["seed"])
    assert model_golden.digest(labelled) == golden["inputs"], "inputs changed"
    got = model_golden.record(labelled)
    assert len(got) == len(golden["outcomes"]) >= 500
    mismatched = [row + want[1:] for row, want
                  in zip(got, golden["outcomes"]) if row != want]
    assert mismatched == []
    assert model_golden.cli_outcomes(labelled) == golden["cli"]


def _semantic_cases(rng):
    """Generated models declared child-first, models with shadowing or a
    bad override injected, and stars whose root is declared last."""
    for _ in range(120):
        yield ClassModel(reversed(make_model(rng, max_classes=10).classes))
    for names in (["inherited again"], ["bad override"],
                  ["inherited again", "bad override"],
                  ["bad override", "bad override"]):
        for _ in range(40):
            yield model_golden.mutant(
                rng, [model_golden.MUTANTS[name] for name in names])
    for n in (2, 5, 30, 200):
        yield model_golden.star(n, root_last=True, shared=False)
        yield model_golden.star(n, root_last=True, shared=True)


def test_semantic_checks_match_the_oracle():
    # validate's SHADOWING and BAD_OVERRIDE findings and cf's client count,
    # against their definitions applied to an ancestor closure found by
    # search (tests/oracles.py), here and on every model of the golden.
    models = list(_semantic_cases(random.Random(2525)))
    models += [model for _, model in model_golden.inputs()]
    seen = set()
    for model in models:
        want, clients = semantic_oracle(model)
        got = [(d.code, d.class_name, d.message) for d in validate(model)
               if d.code in (SHADOWING, BAD_OVERRIDE)]
        assert got == want, model
        seen.update(code for code, _, _ in want)
        if clients is not None and len(model) > 1:
            assert cf(model).numerator == clients, model
    assert seen == {SHADOWING, BAD_OVERRIDE}
