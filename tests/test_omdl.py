import gc
import json
import random
import re
import time
import tracemalloc

import pytest

from moodkit import (
    AttributeDecl, ClassDecl, ClassModel, MethodDecl, MethodKind, ParseError,
    Visibility, errors, omdl, parse, render, spans, validate,
)

from tests import omdl_golden
from tests.modelgen import make_model
from tests.timing import median_ratio


def test_minimal_class():
    doc = parse("class A { }")
    assert len(doc.model) == 1
    decl = doc.model.get("A")
    assert decl.methods == () and decl.attributes == () and decl.parents == ()


def test_hidden_method():
    doc = parse("class A { hidden method m; }")
    decl = doc.model.get("A")
    assert len(decl.methods) == 1
    assert decl.methods[0].visibility is Visibility.HIDDEN


def test_default_visibility_is_visible():
    doc = parse("class A { method m; attribute x; }")
    decl = doc.model.get("A")
    assert decl.methods[0].visibility is Visibility.VISIBLE
    assert decl.attributes[0].visibility is Visibility.VISIBLE


def test_truncated_extends():
    with pytest.raises(ParseError) as exc:
        parse("class A extends")
    assert exc.value.expected == "identifier"
    assert exc.value.found == "end of input"


def test_full_grammar_corpus():
    src = """
    // every production in one file
    class Top {
        visible method run;
        hidden method helper;
        attribute size;
        hidden attribute cache;
    }
    class Left extends Top {
        method run overrides Top.run;
    }
    class Right extends Top { }
    class Bottom extends Left, Right {
        method own;
        uses Top, Left;
    }
    class Loner { uses Bottom; }
    """
    doc = parse(src)
    model = doc.model
    assert validate(model) == []
    assert [c.name for c in model] == ["Top", "Left", "Right", "Bottom", "Loner"]
    assert model.get("Bottom").parents == ("Left", "Right")
    left_run = model.get("Left").methods[0]
    assert left_run.kind is MethodKind.OVERRIDE
    assert left_run.override_target == ("Top", "run")
    assert model.get("Bottom").uses == ("Top", "Left")


def test_comments_and_whitespace_do_not_matter():
    a = parse("class A { method m; }").model
    b = parse("// lead\nclass  A\n{\n  method   m ; // trail\n}\n").model
    assert a == b


def test_spans_recorded():
    found = spans("class A {\n    method m;\n    attribute x;\n}")
    assert found[("class", "A")] == (1, 7)
    assert found[("method", "A", "m")] == (2, 12)
    assert found[("attribute", "A", "x")] == (3, 15)


def test_document_hashes_by_model_and_compares_with_spans():
    # A document is its model: moving a declaration changes its spans, not
    # the document.
    doc, moved = parse("class A {}"), parse("\nclass A {}")
    assert spans("class A {}") != spans("\nclass A {}")
    assert doc == moved and hash(doc) == hash(moved) and len({doc, moved}) == 1
    assert doc != parse("class B {}")


def test_parse_error_positions():
    with pytest.raises(ParseError) as exc:
        parse("class A {\n  method ;\n}")
    assert exc.value.position == (2, 10)


def test_duplicate_class_name_is_parse_error():
    with pytest.raises(ParseError):
        parse("class A { } class A { }")


def test_keywords_not_identifiers():
    with pytest.raises(ParseError):
        parse("class class { }")
    with pytest.raises(ParseError):
        parse("class A { method hidden; }")


def test_missing_semicolon():
    with pytest.raises(ParseError) as exc:
        parse("class A { method m }")
    assert exc.value.expected in ("';'",)


def test_stray_token_after_visibility():
    with pytest.raises(ParseError):
        parse("class A { hidden uses B; }")


def test_unknown_character():
    with pytest.raises(ParseError):
        parse("class A ! { }")


def test_parse_error_is_one_class_from_errors():
    assert ParseError is omdl.ParseError is errors.ParseError
    assert issubclass(ParseError, errors.MoodkitError) and ParseError.code == "PARSE"


def test_bytes_input_and_bad_utf8():
    doc = parse(b"class A { }")
    assert len(doc.model) == 1
    with pytest.raises(ParseError):
        parse(b"class A { \xff }")


def test_cr_only_source_equals_its_lf_twin():
    # The // comment ends at the CR, as the CLI has always read it.
    lf = "class A { // c\n  method m;\n}\nclass B extends A {\n  attribute x;\n}\n"
    want = parse(lf)
    for cr in (lf.replace("\n", "\r"), lf.replace("\n", "\r\n")):
        for source in (cr, cr.encode()):
            assert parse(source) == want and spans(source) == spans(lf)
    # bytes are split into lines before they are decoded
    assert error_of(b"class A {\r  method f\xff;\r}\r")[0] == (2, 11)


def test_parse_ignores_one_leading_byte_order_mark():
    want, found = parse("class A { method m; }"), spans("class A { method m; }")
    for source in ("\ufeffclass A { method m; }",
                   b"\xef\xbb\xbfclass A { method m; }"):
        assert parse(source) == want and spans(source) == found
    assert error_of("\ufeff\ufeffclass A { }") == ((1, 1), "a token", "'\\ufeff'")


def test_no_partial_model_on_error():
    # error in the second class: nothing from the first leaks out
    with pytest.raises(ParseError):
        parse("class A { method m; } class B {")


def test_render_deterministic():
    model = parse("class A extends B { method m; } class B { }").model
    assert render(model) == render(model)


def test_render_empty_class_form():
    model = ClassModel([])
    assert render(model) == ""


def test_round_trip_on_generated_models():
    rng = random.Random(4242)
    for _ in range(200):
        model = make_model(rng)
        text = render(model)
        again = parse(text)
        assert again.model == model


@pytest.mark.parametrize("decl, bad", [
    (ClassDecl("a b"), "a b"),
    (ClassDecl("class"), "class"),
    (ClassDecl("A", parents=("B", "1x")), "1x"),
    (ClassDecl("A", uses=("é",)), "é"),
    (ClassDecl("A", methods=(MethodDecl("m-1"),)), "m-1"),
    (ClassDecl("A", attributes=(AttributeDecl("x;"),)), "x;"),
    (ClassDecl("A", methods=(MethodDecl(
        "m", kind=MethodKind.OVERRIDE, override_target=("B", "hidden")),)),
     "hidden"),
    (ClassDecl("A", methods=(MethodDecl(
        "m", kind=MethodKind.OVERRIDE, override_target=(" B", "m")),)), " B"),
    (ClassDecl("A", parents=("",), uses=("u v",)), ""),
], ids=["space", "keyword", "digit-first", "non-ascii", "method", "attribute",
        "override-keyword", "override-space", "first-of-two"])
def test_render_rejects_names_parse_would_not_read(decl, bad):
    # Rendered, each of these would not parse back to the same model.
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        render(ClassModel([ClassDecl("Ok"), decl]))


def test_round_trip_diamond():
    src = ("class T { method f; attribute x; }\n"
           "class L extends T { method f overrides T.f; }\n"
           "class R extends T { }\n"
           "class B extends L, R { uses T; }\n")
    model = parse(src).model
    assert parse(render(model)).model == model


def test_fuzz_never_crashes():
    rng = random.Random(777)
    outcomes = {"parsed": 0, "error": 0}
    for _ in range(10_000):
        length = rng.randint(0, 60)
        blob = bytes(rng.randrange(256) for _ in range(length))
        try:
            parse(blob)
            outcomes["parsed"] += 1
        except ParseError:
            outcomes["error"] += 1
    # a sanity check that the fuzzer actually exercised the error path
    assert outcomes["error"] > 0


def test_fuzz_structured_snippets():
    # byte soup rarely reaches deep productions; fuzz token shuffles too
    rng = random.Random(778)
    vocab = ["class", "extends", "method", "attribute", "uses", "overrides",
             "visible", "hidden", "A", "B", "m", "{", "}", ";", ",", ".",
             "//x", "\n"]
    for _ in range(2_000):
        text = " ".join(rng.choice(vocab)
                        for _ in range(rng.randint(0, 25)))
        try:
            parse(text)
        except ParseError:
            pass


def error_of(source):
    with pytest.raises(ParseError) as exc:
        parse(source)
    return exc.value.position, exc.value.expected, exc.value.found


@pytest.mark.parametrize("source, method, attribute", [
    ("class A { // note { ; }\n  method m; // c\n  attribute x; }",
     (2, 10), (3, 13)),
    ("class A {\r\n  method m;\r\n  attribute x; }", (2, 10), (3, 13)),
    # a lone \r is a line break, as in the CLI
    ("class A {\r  method m;\r  attribute x; }", (2, 10), (3, 13)),
    # a tab is one column
    ("class A {\n\tmethod m;\n\tattribute x; }", (2, 9), (3, 12)),
], ids=["comment", "crlf", "lone-cr", "tab"])
def test_positions_after_comment_line_break_and_tab(source, method, attribute):
    found = spans(source)
    assert found[("method", "A", "m")] == method
    assert found[("attribute", "A", "x")] == attribute
    assert error_of(source.replace("method m", "method ")) == (
        method, "identifier", "';'")


@pytest.mark.parametrize("tail, position", [
    ("  \n \t", (3, 3)),
    ("\n// trailing", (3, 12)),
    (" // trailing\r\n", (3, 1)),
])
def test_end_of_input_after_whitespace_or_comment(tail, position):
    assert error_of("class A {\nmethod m;" + tail) == (
        position, "'method', 'attribute', 'uses', or '}'", "end of input")


def test_bad_character_on_line_three():
    assert error_of("class A {\n  method m;\n  @ }") == (
        (3, 3), "a token", "'@'")
    # Characters are checked before any parsing: the missing class name on
    # line 1 is not reported.
    assert error_of("class {\n\n\t!") == ((3, 2), "a token", "'!'")


@pytest.mark.parametrize("source", [
    "class A { }\nclass A { }\n  !",
    "class A { method m }\n  !",
    "class A { method class; }\n  !",
    "class A method m; }\n  !",
], ids=["duplicate-class", "missing-semicolon", "keyword-name",
        "missing-brace"])
def test_bad_character_is_reported_before_an_earlier_grammar_error(source):
    line = source.count("\n") + 1
    assert error_of(source) == ((line, 3), "a token", "'!'")


def _write_laid_out(model, rng, one_line):
    """render(model) with random layout; returns the text and the offset of
    each declared name, keyed as in spans()."""
    gaps = [" ", "\t", "  \t "] if one_line else [
        " ", "\t", "\n", "\r\n", "\n\n\t", " // a { comment ; }\n",
        "\r\n// x\r\n  "]
    parts, offsets, size = [], {}, 0

    def put(token, key=None):
        nonlocal size
        gap = rng.choice(gaps)
        if key is not None:
            offsets[key] = size + len(gap)
        parts.append(gap + token)
        size += len(gap) + len(token)

    for decl in model:
        put("class")
        put(decl.name, ("class", decl.name))
        if decl.parents:
            put("extends")
            put(", ".join(decl.parents))
        put("{")
        for m in decl.methods:
            if m.visibility is Visibility.HIDDEN or rng.random() < 0.3:
                put(m.visibility.value)
            put("method")
            put(m.name, ("method", decl.name, m.name))
            if m.override_target is not None:
                put("overrides")
                put(".".join(m.override_target))
            put(";")
        for a in decl.attributes:
            if a.visibility is Visibility.HIDDEN or rng.random() < 0.3:
                put(a.visibility.value)
            put("attribute")
            put(a.name, ("attribute", decl.name, a.name))
            put(";")
        if decl.uses:
            put("uses")
            put(", ".join(decl.uses))
            put(";")
        put("}")
    return "".join(parts) + rng.choice(gaps), offsets


@pytest.mark.parametrize("one_line", [False, True])
def test_spans_match_offsets_under_random_layout(one_line):
    rng = random.Random(9090 + one_line)
    for _ in range(150):
        model = make_model(rng)
        text, offsets = _write_laid_out(model, rng, one_line)
        assert parse(text).model == model
        assert spans(text) == {
            key: (text.count("\n", 0, off) + 1, off - text.rfind("\n", 0, off))
            for key, off in offsets.items()}



def test_spans_read_late_match_offsets_under_every_line_end():
    # CRLF, lone CR, a byte-order mark and bytes must give the positions
    # the LF text gives.
    rng = random.Random(2424)
    for _ in range(60):
        model = make_model(rng)
        text, offsets = _write_laid_out(model, rng, False)
        want = {key: (text.count("\n", 0, off) + 1, off - text.rfind("\n", 0, off))
                for key, off in offsets.items()}
        lf = text.replace("\r\n", "\n")
        cr, crlf = lf.replace("\n", "\r"), lf.replace("\n", "\r\n")
        for source in (text, lf, cr, crlf, "\ufeff" + crlf, text.encode(),
                       ("\ufeff" + cr).encode()):
            assert parse(source).model == model
            assert spans(source) == want


def test_parsed_document_holds_only_its_model():
    # A forest of 2,000 classes in trees of 100.  Parsed from bytes, whose
    # decoded text tracemalloc sees, a document holds no more than one
    # parsed from str: it keeps no copy of its source.
    text = "".join(
        f"class C{i}{f' extends C{i - 1 - (i % 100 - 1) // 2}' if i % 100 else ''} {{\n"
        f"    method m{i}; hidden method n{i}; method o{i};\n"
        f"    hidden attribute a{i}; attribute b{i};\n"
        f"    uses C{i * 7 % 2000}, C{i * 13 % 2000};\n}}\n"
        for i in range(2000))

    def held(source):
        gc.collect()
        tracemalloc.start()
        try:
            doc = parse(source)
            gc.collect()
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    # This parse also compiles the patterns, outside the traced ones.
    assert vars(parse(text)).keys() == {"model"}
    assert held(text.encode()) - held(text) <= len(text) / 10


def test_spans_and_parse_agree_on_the_golden_inputs():
    # spans raises the ParseError parse raises, and otherwise keys exactly
    # the model's declarations, in their order.
    for source in omdl_golden.inputs():
        try:
            model = parse(source).model
        except ParseError as exc:
            with pytest.raises(ParseError) as again:
                spans(source)
            fields = [(e.position, e.expected, e.found) for e in (again.value, exc)]
            assert fields[0] == fields[1], source
            continue
        want = []
        for decl in model:
            want.append(("class", decl.name))
            want += [("method", decl.name, m.name) for m in decl.methods]
            want += [("attribute", decl.name, a.name) for a in decl.attributes]
        assert list(spans(source)) == list(dict.fromkeys(want)), source


@pytest.mark.parametrize("one_line", [False, True])
def test_parse_cost_grows_linearly(one_line):
    # parse per doubling of classes: about 2x when linear.  A position
    # cursor that rescanned the source from its start for each position
    # would be quadratic, 3.5x or more here: the padding makes that rescan,
    # fast in C, outweigh the per-token work.
    def source(n):
        text = "".join(
            f"class C{i}{f' extends C{i - 1}' if i else ''} {{\n"
            f"    method m{i};\n    attribute a{i};\n}}{' ' * 200}\n"
            for i in range(n))
        return text.replace("\n", " ") if one_line else text

    def timed(text):
        start = time.perf_counter()
        parse(text)
        return time.perf_counter() - start

    assert median_ratio(timed, source(4000), source(2000)) < 3


def test_parse_matches_the_golden():
    # Outcomes recorded from a trusted parser (tests/omdl_golden.py says how).
    golden = json.loads(omdl_golden.GOLDEN.read_text(encoding="utf-8"))
    sources = omdl_golden.inputs(golden["seed"])
    assert omdl_golden.digest(sources) == golden["inputs"], "inputs changed"
    assert len(sources) == len(golden["outcomes"]) >= 2000
    mismatched = [(i, source) for i, (source, want)
                  in enumerate(zip(sources, golden["outcomes"]))
                  if omdl_golden.outcome(source) != want]
    assert mismatched == []


@pytest.mark.parametrize("name", [
    "methods", "classy", "usesX", "hidden_1", "visible2", "overrides_",
    "extendsA", "attributes"])
def test_keyword_prefixed_names_are_identifiers(name):
    source = (f"class {name} {{ hidden method {name}; attribute {name}; }}\n"
              f"class B extends {name}, classA {{\n"
              f"  method {name} overrides {name}.{name}; uses {name}; }}\n"
              "class classA { }")
    model = parse(source).model
    assert model == ClassModel([
        ClassDecl(name, methods=(MethodDecl(name, Visibility.HIDDEN),),
                  attributes=(AttributeDecl(name),)),
        ClassDecl("B", parents=(name, "classA"), uses=(name,), methods=(
            MethodDecl(name, kind=MethodKind.OVERRIDE,
                       override_target=(name, name)),)),
        ClassDecl("classA")])


@pytest.mark.parametrize("source, expected, found", [
    ("class Aextends B { }", "'{'", "'B'"),
    ("class A { method moverrides B.m; }", "';'", "'B'"),
    ("class A { hiddenmethod m; }", "'method', 'attribute', 'uses', or '}'",
     "'hiddenmethod'"),
    ("class A { usesB; }", "'method', 'attribute', 'uses', or '}'", "'usesB'"),
    ("class A { method m overrides B.mclass }", "';'", "'}'"),
])
def test_keyword_glued_to_a_name_is_one_identifier(source, expected, found):
    assert error_of(source)[1:] == (expected, found)


@pytest.mark.parametrize("char", ["é", "$", "/"])
@pytest.mark.parametrize("source, after", [
    ("class A { }", "class"),
    ("class A { hidden method m; }", "hidden"),
    ("class A { method m; }", "method"),
    ("class A { uses A; }", "uses"),
    ("class A { }", "class A"),
    ("class A extends B { }", "extends B"),
    ("class A { method m overrides B.m; }", "overrides B"),
    ("class A { attribute x; }", "attribute x"),
    ("class A { method m overrides B.m; }", "B."),
    ("class A extends B, C { }", "B,"),
    ("class A { uses B, C; }", "B,"),
    ("class A { uses B, C; }", "C"),
], ids=lambda v: v if " " not in v else None)
def test_character_after_a_token_that_starts_none(source, after, char):
    at = source.index(after) + len(after)
    assert error_of(source[:at] + char + source[at:]) == (
        (1, at + 1), "a token", repr(char))


def test_comment_and_crlf_between_every_pair_of_tokens():
    # Each comment holds text that would parse if read as tokens.  Token k
    # of the rendered text starts line k + 1.
    rng = random.Random(1111)
    for _ in range(50):
        model = make_model(rng)
        canon = render(model)
        tokens = list(re.finditer(r"\w+|[{};,.]", canon))
        token_at = {m.start(): k for k, m in enumerate(tokens)}
        line_starts = [0] + [m.end() for m in re.finditer("\n", canon)]
        text = "".join(m[0] + " // , X . y ; } {\r\n" for m in tokens)
        assert parse(text).model == model
        assert list(spans(text).items()) == [
            (key, (token_at[line_starts[line - 1] + col - 1] + 1, 1))
            for key, (line, col) in spans(canon).items()]


@pytest.mark.parametrize("source", [
    "class A { method m overrides B . m ; }",
    "class A{method m overrides B .m;}",
    "class A {\n method\tm\toverrides\tB\r\n.\r\nm\n;\n}",
    "class A { method m overrides B // b\n . // .\n m // m\n ; }",
])
def test_spaced_override_target(source):
    assert parse(source).model == ClassModel([ClassDecl("A", methods=(
        MethodDecl("m", kind=MethodKind.OVERRIDE, override_target=("B", "m")),))])


@pytest.mark.parametrize("body", ["{}", "{ }", "{\n}", "{ // x\n}", "\n{\r\n}"])
def test_empty_class_body(body):
    source = f"class A {body} class B extends A{body}"
    assert parse(source).model == ClassModel([ClassDecl("A"), ClassDecl("B", ("A",))])
    found = spans(source)
    assert found == {("class", "A"): (1, 7), ("class", "B"): found[("class", "B")]}


@pytest.mark.parametrize("source", [
    "class A extends { }",
    "class A extends B C { }",
    "class A B { }",
    "class A { method ; }",
    "class A { hidden uses B; }",
    "class A { attribute x y; }",
    "class A { method m overrides B m; }",
    "class A { method m overrides B.; }",
    "class A { method m overrides ; }",
    "class A { uses ; }",
    "class A { uses A B; }",
    "class A { uses A, ; }",
    "class A { } class A { }",
    "class A { method m; }}",
], ids=["header-extends", "header-list", "header-brace", "member-name",
        "member-visibility", "member-semicolon", "override-dot",
        "override-method", "override-class", "uses-empty", "uses-comma",
        "uses-trailing", "header-duplicate", "document"])
def test_bad_character_after_a_grammar_error_in_each_construct(source):
    assert error_of(source + "\n// $\n  ok $") == ((3, 6), "a token", "'$'")


def test_spans_is_a_plain_dict_and_declarations_match_public_ones():
    source = ("class A { hidden method m; attribute x; }\n"
              "class B extends A { method m overrides A.m; uses A; }")
    doc = parse(source)
    assert type(spans(source)) is dict
    built = ClassModel([
        ClassDecl("A", methods=(MethodDecl("m", Visibility.HIDDEN),),
                  attributes=(AttributeDecl("x"),)),
        ClassDecl("B", parents=["A"], uses=["A"], methods=[MethodDecl(
            "m", kind=MethodKind.OVERRIDE, override_target=("A", "m"))])])
    for parsed, public in zip(doc.model, built):
        assert parsed == public and hash(parsed) == hash(public)
        assert repr(parsed) == repr(public)
        for mine, theirs in zip(parsed.methods + parsed.attributes,
                                public.methods + public.attributes):
            assert mine == theirs and hash(mine) == hash(theirs)
    assert doc.model == built and hash(doc.model) == hash(built)
    assert list(spans(source)) == [("class", "A"), ("method", "A", "m"),
                               ("attribute", "A", "x"), ("class", "B"),
                               ("method", "B", "m")]


@pytest.mark.parametrize("gap", [" ", "// c\n"])
def test_parse_cost_grows_linearly_in_a_long_gap(gap):
    # A pattern whose skip of whitespace and comments backtracked over
    # every way of splitting a gap would blow up here.
    def timed(n):
        text = "class A {" + gap * n + "method m;" + gap * n + "}" + gap * n
        start = time.perf_counter()
        parse(text)
        with pytest.raises(ParseError):
            parse(text + "class")
        return time.perf_counter() - start

    assert median_ratio(timed, 40_000, 20_000) < 3


class _Scanned(Exception):
    pass


class _NoScanner:
    """Stands in for omdl._SCAN: any use of the scanner raises _Scanned."""

    def finditer(self, *args):
        raise _Scanned


def test_valid_input_never_reaches_the_scanner(monkeypatch):
    # Each header, member, uses line and "}", and the end of input, is read
    # by a pattern; the scanner is the error path and nothing else.
    rng = random.Random(1212)
    sources = [(text, parse(text).model) for text in (
        "", "// only a comment", "class A{}class B extends A{uses A;}",
        "class A { uses A, B; }", "class A {\r\n\tmethod m;\r\n}\r\n",
        "class A { method m overrides B . m ; } // end",
        "class A { } // end\n// and no final newline")]
    for _ in range(100):
        model = make_model(rng)
        canon = render(model)
        sources += [(canon, model), (canon.replace("\n", ""), model),
                    (canon.replace("\n", "\r\n") + "// end", model)]
        sources += [(_write_laid_out(model, rng, one_line)[0], model)
                    for one_line in (False, True)]
    invalid = {
        "class A {": ((1, 10), "'method', 'attribute', 'uses', or '}'",
                      "end of input"),
        "class A { } }": ((1, 13), "'class'", "'}'"),
        "class A { hidden uses B; }": ((1, 18), "'method' or 'attribute'",
                                       "'uses'"),
        "class A { uses B }": ((1, 18), "';'", "'}'"),
        "class A { uses B, }": ((1, 19), "identifier", "'}'"),
        "class A { } class A { }": ((1, 19), "a class name not declared before",
                                    "'A'"),
        "class A { method m; } // end\nclass": ((2, 6), "identifier",
                                                "end of input"),
    }
    monkeypatch.setattr(omdl, "_SCAN", _NoScanner())
    for text, model in sources:
        assert parse(text).model == model, text
    for text in invalid:
        with pytest.raises(_Scanned):
            parse(text)
    monkeypatch.undo()
    for text, error in invalid.items():
        assert error_of(text) == error, text
