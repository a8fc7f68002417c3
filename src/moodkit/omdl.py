"""OMDL: a small declarative language for describing class models.

Grammar (EBNF):

    document   := { class_decl } ;
    class_decl := "class" IDENT [ "extends" ident_list ] "{" { member } "}" ;
    ident_list := IDENT { "," IDENT } ;
    member     := method_decl | attr_decl | uses_decl ;
    method_decl:= [ visibility ] "method" IDENT [ "overrides" IDENT "." IDENT ] ";" ;
    attr_decl  := [ visibility ] "attribute" IDENT ";" ;
    uses_decl  := "uses" ident_list ";" ;
    visibility := "visible" | "hidden" ;

Identifiers are ASCII ``[A-Za-z_][A-Za-z0-9_]*``; ``//`` starts a comment
running to end of line; input is UTF-8.  Omitted visibility means visible.

The parser reads each class header, member, uses line and closing "}",
and the end of input, with one match of a compiled pattern.  Only an error
reaches the scanner, which reads on from there one token at a time and
reports it.  A character that can start no token is reported ahead of any
grammar error, wherever it stands in the input.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Union

from .class_model import (
    AttributeDecl, ClassDecl, ClassModel, MethodDecl, Visibility)
from .errors import ParseError

KEYWORDS = frozenset(
    {"class", "extends", "method", "attribute", "uses", "overrides",
     "visible", "hidden"})

# Whitespace and // comments before a token.  A comment must run to the
# end of its line, so no match reads a token inside one.  Backtracking into
# the skip leaves whitespace or "/" next, where no token starts, so it fails
# at once.  The empty alternative keeps the usual case, no comment, to one
# test of "/".
_COMMENT = r"//[^\n]*(?![^\n])[ \t\r\n]*"
_SKIP = rf"[ \t\r\n]*(?:{_COMMENT}(?:{_COMMENT})*|)"
# One match per token, with the skip before it.  Group 1 is the token, ""
# at end of input, or None when group 2 holds a character that cannot
# start a token.  After the skip, one of the alternatives always matches.
_SCAN = re.compile(_SKIP + r"(?:([A-Za-z_][A-Za-z0-9_]*|[{};,.]|\Z)|(.))",
                   re.DOTALL)
_NOT_IDENT = KEYWORDS | set("{};,.") | {"", None}

# Whole declarations, for parse: a header or the end of input; a member, a
# uses line or the closing "}".  A word ends where no ASCII letter, digit
# or "_" follows, as in the scanner, so "methods" is an identifier.
_END = r"(?![A-Za-z0-9_])"
_IDENT = rf"(?!(?:{'|'.join(sorted(KEYWORDS))}){_END})[A-Za-z_][A-Za-z0-9_]*{_END}"
_LIST = rf"{_IDENT}(?:{_SKIP},{_SKIP}{_IDENT})*"
_HEADER = (rf"{_SKIP}(?:class{_END}{_SKIP}({_IDENT})"
           rf"(?:{_SKIP}extends{_END}{_SKIP}({_LIST}))?{_SKIP}{{|\Z)")
_MEMBER = (rf"{_SKIP}(?:(?:(?:(visible|hidden){_END}{_SKIP})?"
           rf"(?:method{_END}{_SKIP}({_IDENT})(?:{_SKIP}overrides{_END}{_SKIP}"
           rf"({_IDENT}){_SKIP}\.{_SKIP}({_IDENT}))?"
           rf"|attribute{_END}{_SKIP}({_IDENT}))"
           rf"|uses{_END}{_SKIP}({_LIST})){_SKIP};|}})")
_COMMA = rf"{_SKIP},{_SKIP}"
_VISIBILITY = {None: Visibility.VISIBLE, "visible": Visibility.VISIBLE,
               "hidden": Visibility.HIDDEN}


@dataclass(frozen=True)
class OmdlDocument:
    """A parsed model; ``spans(source)`` gives where its declarations stand."""

    model: ClassModel


def parse(source: Union[str, bytes]) -> OmdlDocument:
    """Parse OMDL source into a document; ParseError on the first bad token.

    No partial model is ever returned.  Line ends may be LF, CRLF or CR,
    and one leading byte-order mark is ignored.  Bytes are decoded as
    UTF-8; a decoding failure is reported as a ParseError at the offending
    line.
    """
    return OmdlDocument(ClassModel(_read(_text(source))))


def spans(source: Union[str, bytes]) -> dict:
    """The source position of each declaration, with one more parse.

    Maps ("class", name), ("method", class, name) and ("attribute", class,
    name) keys, in declaration order, to (line, column) of the declaring
    token.  Source that ``parse`` rejects raises the same ParseError.
    """
    found: dict = {}
    _read(_text(source), found)
    return found


def _text(source: Union[str, bytes]) -> str:
    """source as str, with LF line ends and no leading byte-order mark."""
    cr, lf = (b"\r", b"\n") if isinstance(source, bytes) else ("\r", "\n")
    if cr in source:
        source = source.replace(cr + lf, lf).replace(cr, lf)
    if isinstance(source, bytes):
        try:
            source = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            prefix = source[:exc.start]
            line = prefix.count(b"\n") + 1
            col = exc.start - prefix.rfind(b"\n")
            raise ParseError((line, col), "valid UTF-8",
                             f"byte 0x{source[exc.start]:02x}") from None
    return source.removeprefix("\ufeff")


def _read(source: str, found: Optional[dict] = None) -> list[ClassDecl]:
    """The class declarations of normalised source.  Given a dict, also
    write into it the (line, column) of each class, method and attribute."""
    # Compiled on the first parse, and kept in re's cache, not on import:
    # every CLI subcommand imports this module.
    header, member, comma = map(re.compile, (_HEADER, _MEMBER, _COMMA))
    line, line_start, seen = 1, 0, 0

    def where(offset: int) -> tuple[int, int]:
        """(line, column) of an offset no smaller than the last one asked.

        Only the text between the two is scanned, so the positions of a
        whole parse cost one pass over the source, even on one long line.
        """
        nonlocal line, line_start, seen
        newlines = source.count("\n", seen, offset)
        if newlines:
            line += newlines
            line_start = source.rfind("\n", seen, offset) + 1
        seen = offset
        return line, offset - line_start + 1

    def fail(m: re.Match, expected: str):
        # A character that cannot start a token is reported before any
        # grammar error, wherever it is: look for one after m first.
        if m[1] is not None:
            m = next((later for later in scan if later[1] is None), m)
        text = m[1]
        if text is None:
            raise ParseError(where(m.start(2)), "a token", repr(m[2]))
        raise ParseError(where(m.start(1)), expected,
                         repr(text) if text else "end of input")

    def ident(m: re.Match) -> None:
        if m[1] in _NOT_IDENT:
            fail(m, "identifier")

    def ident_list() -> re.Match:
        """Check IDENT { "," IDENT }; return the match after it."""
        ident(next(scan))
        while (m := next(scan))[1] == ",":
            ident(next(scan))
        return m

    # Each class header, member, uses line and "}", and the end of input,
    # is one match of its pattern.  Where none matches, the scanner reads on
    # from there token by token to the error: the check that comes last
    # cannot pass there, or the pattern would have matched.
    classes: list[ClassDecl] = []
    names: set[str] = set()
    pos = 0
    while True:
        h = header.match(source, pos)
        if h is None or h[1] in names:
            scan = _SCAN.finditer(source, pos)
            if (m := next(scan))[1] != "class":
                fail(m, "'class'")
            ident(m := next(scan))
            if m[1] in names:
                fail(m, "a class name not declared before")
            if (m := next(scan))[1] == "extends":
                m = ident_list()
            fail(m, "'{'")
        cls = h[1]
        if cls is None:
            return classes
        names.add(cls)
        if found is not None:
            found[("class", cls)] = where(h.start(1))
        methods, attributes, uses = [], [], []
        pos = h.end()
        while m := member.match(source, pos):
            pos = m.end()
            word, name, target_cls, target, attribute, used = m.groups()
            if name:
                methods.append(MethodDecl._parsed(
                    name, _VISIBILITY[word], target_cls and (target_cls, target)))
                if found is not None:
                    found[("method", cls, name)] = where(m.start(2))
            elif attribute:
                attributes.append(AttributeDecl._parsed(attribute, _VISIBILITY[word]))
                if found is not None:
                    found[("attribute", cls, attribute)] = where(m.start(5))
            elif used:
                uses += comma.split(used)
            else:
                break
        else:
            scan = _SCAN.finditer(source, pos)
            if (word := (m := next(scan))[1]) == "visible" or word == "hidden":
                if (word := (m := next(scan))[1]) not in ("method", "attribute"):
                    fail(m, "'method' or 'attribute'")
            if word == "method" or word == "attribute":
                ident(next(scan))
                if (m := next(scan))[1] == "overrides" and word == "method":
                    ident(next(scan))
                    if (m := next(scan))[1] != ".":
                        fail(m, "'.'")
                    ident(next(scan))
                    m = next(scan)
            elif word == "uses":
                m = ident_list()
            else:
                fail(m, "'method', 'attribute', 'uses', or '}'")
            fail(m, "';'")
        classes.append(ClassDecl._parsed(
            cls, () if h[2] is None else tuple(comma.split(h[2])),
            tuple(methods), tuple(attributes), tuple(uses)))


def _identifier(name: str) -> str:
    """name, if the scanner reads it back as one identifier; else ValueError."""
    if name in _NOT_IDENT or (m := _SCAN.fullmatch(name)) is None or m[1] != name:
        raise ValueError(f"render: {name!r} is not an OMDL identifier")
    return name


def render(model: ClassModel) -> str:
    """Deterministic textual form of a model; parse(render(m)).model == m.

    Members are emitted methods first, then attributes, then one ``uses``
    line, in declaration order; default visibility is left implicit.  A
    name that is not an OMDL identifier (a keyword, ``1x``, ``a b``) raises
    ValueError naming the first such name in that order.
    """
    out: list[str] = []
    for decl in model:
        header = f"class {_identifier(decl.name)}"
        if decl.parents:
            header += " extends " + ", ".join(map(_identifier, decl.parents))
        if not (decl.methods or decl.attributes or decl.uses):
            out.append(header + " { }")
            continue
        out.append(header + " {")
        for m in decl.methods:
            prefix = "hidden " if m.visibility is Visibility.HIDDEN else ""
            target = ("" if m.override_target is None else
                      " overrides " + ".".join(map(_identifier, m.override_target)))
            out.append(f"    {prefix}method {_identifier(m.name)}{target};")
        for a in decl.attributes:
            prefix = "hidden " if a.visibility is Visibility.HIDDEN else ""
            out.append(f"    {prefix}attribute {_identifier(a.name)};")
        if decl.uses:
            out.append("    uses " + ", ".join(map(_identifier, decl.uses)) + ";")
        out.append("}")
    return "\n".join(out) + "\n" if out else ""
