import gc
import json
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from moodkit import (
    AttributeDecl, ClassDecl, ClassModel, InvalidModelError, MethodDecl,
    MethodKind, MetricValue, Visibility, ahf, aif, cf, compute_all,
    descendants, mhf, mif, pf, tallies, validate,
)

from tests.modelgen import make_model, rename_model
from tests.oracles import metric_oracle
from tests.timing import median_ratio

H = Visibility.HIDDEN
V = Visibility.VISIBLE


def cls(name, parents=(), methods=(), attributes=(), uses=()):
    return ClassDecl(name=name, parents=parents, methods=methods,
                     attributes=attributes, uses=uses)


def m(name, vis=V, target=None):
    kind = MethodKind.OVERRIDE if target else MethodKind.NEW
    return MethodDecl(name=name, visibility=vis, kind=kind,
                      override_target=target)


def a(name, vis=V):
    return AttributeDecl(name=name, visibility=vis)


def test_metric_value_invariants():
    mv = MetricValue(2, 5)
    assert mv.value == 0.4 and mv.defined
    und = MetricValue(0, 0, "nothing to count")
    assert und.value is None and not und.defined
    with pytest.raises(ValueError):
        MetricValue(1, 0)
    with pytest.raises(ValueError):
        MetricValue(1, 2, "reason with nonzero denominator")


def test_mhf_hand_example():
    # 3 methods with 1 hidden plus 2 methods with 1 hidden -> 2/5
    model = ClassModel([
        cls("A", methods=(m("a1", H), m("a2"), m("a3"))),
        cls("B", methods=(m("b1", H), m("b2"))),
    ])
    got = mhf(model)
    assert (got.numerator, got.denominator) == (2, 5)
    assert got.value == 0.4


def test_mhf_extremes_and_undefined():
    all_hidden = ClassModel([cls("A", methods=(m("x", H), m("y", H)))])
    assert mhf(all_hidden).value == 1.0
    none = ClassModel([cls("A")])
    got = mhf(none)
    assert got.value is None and got.undefined_reason == "no defined methods"


def test_ahf_hand_example():
    model = ClassModel([
        cls("A", attributes=(a("p", H), a("q", H), a("r", H), a("s"))),
    ])
    assert ahf(model).value == 0.75
    visible_only = ClassModel([cls("A", attributes=(a("x"),))])
    assert ahf(visible_only).value == 0.0
    assert ahf(ClassModel([cls("A")])).value is None


def test_mif_hand_example():
    # Base defines 2, Derived adds 1 new: inherited 2 over available 5
    model = ClassModel([
        cls("Base", methods=(m("f"), m("g"))),
        cls("Derived", parents=("Base",), methods=(m("h"),)),
    ])
    got = mif(model)
    assert (got.numerator, got.denominator) == (2, 5)
    flat = ClassModel([cls("A", methods=(m("f"),)), cls("B", methods=(m("g"),))])
    assert mif(flat).value == 0.0
    assert mif(ClassModel([cls("A")])).value is None


def test_aif_hand_example():
    model = ClassModel([
        cls("Base", attributes=(a("x"),)),
        cls("Derived", parents=("Base",)),
    ])
    got = aif(model)
    assert (got.numerator, got.denominator) == (1, 2)
    assert got.value == 0.5


def test_pf_hand_example():
    # Base: 2 new methods, 2 descendants; one override below -> 1/4
    model = ClassModel([
        cls("Base", methods=(m("f"), m("g"))),
        cls("D1", parents=("Base",), methods=(m("f", target=("Base", "f")),)),
        cls("D2", parents=("Base",)),
    ])
    got = pf(model)
    assert (got.numerator, got.denominator) == (1, 4)
    assert got.value == 0.25


def test_pf_zero_and_undefined():
    no_overrides = ClassModel([
        cls("Base", methods=(m("f"),)),
        cls("D", parents=("Base",)),
    ])
    assert pf(no_overrides).value == 0.0
    leaves = ClassModel([cls("A", methods=(m("f"),)), cls("B")])
    got = pf(leaves)
    assert got.value is None
    assert got.undefined_reason == "no polymorphic opportunities"


def test_cf_hand_example():
    model = ClassModel([
        cls("A", uses=("B",)), cls("B"), cls("C"),
    ])
    got = cf(model)
    assert (got.numerator, got.denominator) == (1, 6)
    assert got.value == pytest.approx(1 / 6)


def test_cf_excludes_ancestors_and_dedups():
    model = ClassModel([
        cls("Base"),
        cls("D", parents=("Base",), uses=("Base", "Base", "E")),
        cls("E"),
    ])
    got = cf(model)
    # only the D->E edge counts: Base is an ancestor, duplicates collapse
    assert (got.numerator, got.denominator) == (1, 6)


def test_cf_single_class_undefined():
    got = cf(ClassModel([cls("A")]))
    assert got.value is None and got.undefined_reason == "TC < 2"


def test_compute_all_consistency():
    rng = random.Random(5)
    model = make_model(rng, max_classes=5, min_classes=2)
    report = compute_all(model)
    assert report.tc == len(model)
    assert report.mhf == mhf(model)
    assert report.ahf == ahf(model)
    assert report.mif == mif(model)
    assert report.aif == aif(model)
    assert report.pf == pf(model)
    assert report.cf == cf(model)


def test_report_json_schema():
    model = ClassModel([cls("A", methods=(m("f", H),), uses=())])
    payload = compute_all(model).to_json()
    assert set(payload) == {"mhf", "ahf", "mif", "aif", "pf", "cf", "tc"}
    for key in ("mhf", "ahf", "mif", "aif", "pf", "cf"):
        entry = payload[key]
        assert set(entry) == {"value", "numerator", "denominator",
                              "undefined_reason"}
    # value is null exactly when undefined
    assert payload["cf"]["value"] is None
    assert payload["cf"]["undefined_reason"] == "TC < 2"
    json.dumps(payload)  # must be serializable


def test_all_metrics_match_oracle_on_random_models():
    rng = random.Random(20240817)
    for _ in range(500):
        model = make_model(rng)
        assert validate(model) == []
        report = compute_all(model)
        expected = metric_oracle(model)
        for key in ("mhf", "ahf", "mif", "aif", "pf", "cf"):
            got: MetricValue = getattr(report, key)
            want_num, want_den = expected[key]
            assert (got.numerator, got.denominator) == (want_num, want_den), (
                f"{key} mismatch on {model!r}")
            if got.defined:
                assert 0 <= Fraction(got.numerator, got.denominator) <= 1


def test_hiding_complement_identity():
    rng = random.Random(31)
    for _ in range(100):
        model = make_model(rng)
        got = mhf(model)
        if got.defined:
            visible = sum(
                1 for d in model for meth in d.methods
                if meth.visibility is V)
            assert got.numerator + visible == got.denominator


def test_rename_and_reorder_invariance():
    rng = random.Random(67)
    for _ in range(60):
        model = make_model(rng, min_classes=2)
        base = compute_all(model)
        mapping = {d.name: f"Z_{i}" for i, d in enumerate(model)}
        renamed = rename_model(model, mapping)
        shuffled_decls = list(renamed)
        rng.shuffle(shuffled_decls)
        shuffled = ClassModel(shuffled_decls)
        for variant in (renamed, shuffled):
            other = compute_all(variant)
            for key in ("mhf", "ahf", "mif", "aif", "pf", "cf"):
                assert getattr(other, key) == getattr(base, key)


def test_isolated_featureless_class_effect():
    rng = random.Random(68)
    for _ in range(60):
        model = make_model(rng, min_classes=2)
        before = compute_all(model)
        bigger = ClassModel(list(model) + [cls("Isolated_extra")])
        after = compute_all(bigger)
        for key in ("mhf", "ahf", "mif", "aif", "pf"):
            assert getattr(after, key) == getattr(before, key)
        if before.cf.defined and before.cf.numerator > 0:
            assert after.cf.value < before.cf.value
            assert after.cf.numerator == before.cf.numerator


def test_oracle_agreement_on_25_class_models():
    rng = random.Random(20261018)
    for _ in range(100):
        model = make_model(rng, max_classes=25)
        report = compute_all(model)
        expected = metric_oracle(model)
        for key in ("mhf", "ahf", "mif", "aif", "pf", "cf"):
            got: MetricValue = getattr(report, key)
            assert (got.numerator, got.denominator) == expected[key], (
                f"{key} mismatch on {model!r}")


@pytest.mark.parametrize("bottom_overrides", [False, True])
def test_wide_diamond_with_one_overriding_side(bottom_overrides):
    # Top -> M0..M49 -> Bottom; only M0 redefines f.  Bottom sees f from
    # Top (through M1..M49) and from M0 as two features, g once, x once.
    width = 50
    middles = [cls("M0", parents=("Top",), methods=(m("f", target=("Top", "f")),))]
    middles += [cls(f"M{i}", parents=("Top",)) for i in range(1, width)]
    bottom_methods = (m("f", target=("M0", "f")),) if bottom_overrides else ()
    model = ClassModel(
        [cls("Top", methods=(m("f"), m("g")), attributes=(a("x"),))]
        + middles
        + [cls("Bottom", parents=tuple(c.name for c in middles),
               methods=bottom_methods)])
    assert validate(model) == []
    bottom_inherited = 1 if bottom_overrides else 3   # g, or f@Top, f@M0, g
    got = mif(model)
    assert got.numerator == 1 + 2 * (width - 1) + bottom_inherited
    assert got.denominator == 2 + 2 * width + len(bottom_methods) + bottom_inherited
    assert (aif(model).numerator, aif(model).denominator) == (width + 1, width + 2)
    assert (pf(model).numerator, pf(model).denominator) == (
        1 + len(bottom_methods), 2 * (width + 1))
    report = compute_all(model)
    for key, want in metric_oracle(model).items():
        got = getattr(report, key)
        assert (got.numerator, got.denominator) == want, key


def _assert_invalid(model, code):
    diags = validate(model)
    assert code in [d.code for d in diags]
    for fn in (compute_all, mhf, ahf, mif, aif, pf, cf):
        with pytest.raises(InvalidModelError) as exc:
            fn(model)
        assert exc.value.code == "INVALID_MODEL"
        assert exc.value.diagnostics == diags
    for decl in model:
        with pytest.raises(InvalidModelError):
            tallies(model, decl.name)
        with pytest.raises(InvalidModelError):
            descendants(model, decl.name)


def test_cyclic_model_raises_invalid_model_error():
    model = ClassModel([
        cls("A", parents=("B",), methods=(m("f"),)),
        cls("B", parents=("A",)),
        cls("C", uses=("A",)),
    ])
    _assert_invalid(model, "CYCLE")


def test_unresolved_parent_raises_invalid_model_error():
    model = ClassModel([cls("A", parents=("Ghost",)), cls("B", uses=("A",))])
    _assert_invalid(model, "UNRESOLVED_NAME")


def chain(depth, child_first=False):
    """C0 <- C1 <- ... with one method and one attribute per class,
    declared from C0 on, or from the deepest class on when child_first."""
    decls = [cls(f"C{i}", parents=(f"C{i - 1}",) if i else (),
                 methods=(m(f"m{i}"),), attributes=(a(f"a{i}"),))
             for i in range(depth)]
    return ClassModel(reversed(decls) if child_first else decls)


DECLARATION_ORDERS = pytest.mark.parametrize(
    "child_first", [False, True], ids=["parent-first", "child-first"])


@DECLARATION_ORDERS
def test_deep_chain_needs_no_recursion(child_first):
    depth = 10_000
    model = chain(depth, child_first)
    assert validate(model) == []
    report = compute_all(model)
    inherited = depth * (depth - 1) // 2
    assert (report.mif.numerator, report.mif.denominator) == (
        inherited, depth * (depth + 1) // 2)
    assert (report.aif.numerator, report.aif.denominator) == (
        inherited, depth * (depth + 1) // 2)
    assert report.pf.denominator == inherited


@DECLARATION_ORDERS
def test_chain_cost_grows_linearly(child_first):
    # validate + compute_all per doubling of depth: about 2x when linear,
    # 8x for the cubic walk this index replaced.  A fresh model for each
    # timing, since a model keeps its index.
    def timed(depth):
        model = chain(depth, child_first)
        start = time.perf_counter()
        validate(model)
        compute_all(model)
        return time.perf_counter() - start

    assert median_ratio(timed, 4000, 2000) < 3


def _sums_over_classes(model):
    """Each tally ratio's numerator and denominator, summed over the public
    per-class queries: tallies() and descendants() of every class."""
    ts = [tallies(model, decl.name) for decl in model]
    dcs = [descendants(model, decl.name) for decl in model]
    assert [t.dc for t in ts] == dcs

    def total(field):
        return sum(getattr(t, field) for t in ts)

    return {"mhf": (total("m_h"), total("m_d")),
            "ahf": (total("a_h"), total("a_d")),
            "mif": (total("m_i"), total("m_a")),
            "aif": (total("a_i"), total("a_a")),
            "pf": (total("m_o"), sum(t.m_n * dc for t, dc in zip(ts, dcs)))}


def _with_defect(rng, code):
    """A generated model plus one defect that validate reports as code, on
    a parent graph that stays resolved and acyclic, so the metrics run."""
    while True:
        decls = list(make_model(rng, min_classes=2))
        i = rng.randrange(len(decls))
        d = decls[i]
        if code == "DUPLICATE_METHOD" and d.methods:
            decls[i] = cls(d.name, d.parents, d.methods + (rng.choice(d.methods),),
                           d.attributes, d.uses)
        elif code == "DUPLICATE_ATTRIBUTE" and d.attributes:
            decls[i] = cls(d.name, d.parents, d.methods,
                           d.attributes + (rng.choice(d.attributes),), d.uses)
        elif code == "SHADOWING" and (d.methods or d.attributes):
            # A new class below d redeclares one of d's features as new.
            feature = rng.choice(d.methods + d.attributes)
            new = ((m(feature.name, rng.choice((V, H))),), ()) if isinstance(
                feature, MethodDecl) else ((), (a(feature.name),))
            decls.append(cls("Z", (d.name,), *new, uses=(d.name,)))
        elif code == "BAD_OVERRIDE" and d.methods:
            # An override of d's method from a class that does not extend d,
            # or of a differently named method from one that does.
            target = (d.name, rng.choice(d.methods).name)
            if rng.random() < 0.5:
                decls.append(cls("Z", methods=(m(target[1], target=target),)))
            else:
                decls.append(cls("Z", (d.name,), (m("other", target=target),)))
        else:
            continue
        model = ClassModel(decls)
        assert code in [diag.code for diag in validate(model)]
        return model


@pytest.mark.parametrize("defect", [None, "DUPLICATE_METHOD", "DUPLICATE_ATTRIBUTE",
                                    "SHADOWING", "BAD_OVERRIDE"])
def test_compute_all_equals_sums_of_the_per_class_queries(defect):
    # compute_all reads model-wide sums; tallies() and descendants() are the
    # per-class view.  Models that validate rejects but whose index builds
    # are measured too, and no other oracle covers them.
    rng = random.Random(f"sums-{defect}")
    for _ in range(150):
        model = (make_model(rng, max_classes=12) if defect is None
                 else _with_defect(rng, defect))
        report = compute_all(model)
        for key, (num, den) in _sums_over_classes(model).items():
            got = getattr(report, key)
            assert type(got.numerator) is int and type(got.denominator) is int
            assert (got.numerator, got.denominator) == (num, den), (key, model)


def _forest(n):
    """n classes in trees of 100, each a binary heap below its root, with
    two methods, two attributes and one use apiece."""
    return ClassModel([
        cls(f"C{i}", (f"C{i - 1 - (i % 100 - 1) // 2}",) if i % 100 else (),
            (m(f"m{i}"), m(f"n{i}", H)), (a(f"a{i}", H), a(f"b{i}")),
            (f"C{i * 7 % n}",))
        for i in range(n)])


def test_compute_all_memory_does_not_grow_with_the_model():
    # With the index built, compute_all sums as it goes: its peak stays
    # near constant from 2,000 to 8,000 classes, where one object per class
    # would quadruple it.  The least of three peaks leaves out allocations
    # that are not compute_all's own.
    def peak(model):
        compute_all(model)
        peaks = []
        for _ in range(3):
            gc.collect()
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                compute_all(model)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
        return min(peaks)

    small, large = peak(_forest(2000)), peak(_forest(8000))
    assert large <= 1.5 * small, (small, large)


def _unique_name_star(n, root_last):
    """A root and n - 1 leaves below it, each declaring a method of its own."""
    root = cls("Root")
    leaves = [cls(f"Leaf{i}", ("Root",), (m(f"m{i}"),)) for i in range(n - 1)]
    return leaves + [root] if root_last else [root] + leaves


@pytest.mark.parametrize("root_last", [False, True], ids=["root-first", "root-last"])
def test_validate_memory_grows_linearly_on_a_star(root_last):
    # validate + compute_all from a fresh model, which builds the index:
    # about 2x per doubling of the star.  An int mask per leaf or per name,
    # keyed by declaration position, grows 3.5x with the root declared
    # first and 3.8x with it last.  The least of three peaks, as above.
    def peak(decls):
        peaks = []
        for _ in range(3):
            model = ClassModel(decls)
            gc.collect()
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                validate(model)
                compute_all(model)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
        return min(peaks)

    small = peak(_unique_name_star(10_000, root_last))
    large = peak(_unique_name_star(20_000, root_last))
    assert large <= 2.5 * small, (small, large)
