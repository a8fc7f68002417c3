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

The parser pulls tokens from the scanner one at a time and stores none.  A
character that can start no token is reported ahead of any grammar error,
wherever it stands in the input.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Union

from .class_model import (
    AttributeDecl, ClassDecl, ClassModel, MethodDecl, MethodKind, Visibility,
)
from .errors import MoodkitError

KEYWORDS = frozenset(
    {"class", "extends", "method", "attribute", "uses", "overrides",
     "visible", "hidden"})

# One match per token, with the whitespace and comments before it.  Group 1
# is the token, "" at end of input, or None when group 2 holds a character
# that cannot start a token.  The skip never needs backtracking: after it,
# one of the alternatives always matches.
_SCAN = re.compile(
    r"""(?:[ \t\r\n]+|//[^\n]*)*
        (?: ([A-Za-z_][A-Za-z0-9_]*|[{};,.]|\Z) | (.) )""",
    re.VERBOSE | re.DOTALL,
)
_NOT_IDENT = KEYWORDS | set("{};,.") | {"", None}


class ParseError(MoodkitError):
    """Raised at the first offending token; carries position and expectation."""

    code = "PARSE"

    def __init__(self, position: tuple[int, int], expected: str, found: str):
        self.position = position
        self.expected = expected
        self.found = found
        line, col = position
        super().__init__(f"{line}:{col}: expected {expected}, found {found}")


@dataclass(frozen=True)
class OmdlDocument:
    """A parsed model plus the source position of each declaration.

    ``spans`` maps ("class", name), ("method", class, name) and
    ("attribute", class, name) keys to (line, column) of the declaring token.
    """

    model: ClassModel
    spans: dict


def parse(source: Union[str, bytes]) -> OmdlDocument:
    """Parse OMDL source into a document; ParseError on the first bad token.

    No partial model is ever returned.  Bytes are decoded as UTF-8; a
    decoding failure is reported as a ParseError at the offending line.
    """
    if isinstance(source, bytes):
        try:
            source = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            prefix = source[:exc.start]
            line = prefix.count(b"\n") + 1
            col = exc.start - prefix.rfind(b"\n")
            raise ParseError((line, col), "valid UTF-8",
                             f"byte 0x{source[exc.start]:02x}") from None
    # Recursive descent straight over the matches of _SCAN.  A match whose
    # token is "" (end of input) or None (a character that cannot start a
    # token) passes no check below, so no match after it is pulled.
    scan = _SCAN.finditer(source)
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

    def ident(m: re.Match) -> str:
        name = m[1]
        if name in _NOT_IDENT:
            fail(m, "identifier")
        return name

    def ident_list(names: list) -> re.Match:
        """Append IDENT { "," IDENT } to names; return the match after it."""
        names.append(ident(next(scan)))
        m = next(scan)
        while m[1] == ",":
            names.append(ident(next(scan)))
            m = next(scan)
        return m

    classes: list[ClassDecl] = []
    spans: dict = {}
    m = next(scan)
    while (word := m[1]) != "":
        if word != "class":
            fail(m, "'class'")
        m = next(scan)
        cls = ident(m)
        if ("class", cls) in spans:
            fail(m, "a class name not declared before")
        spans[("class", cls)] = where(m.start(1))
        parents: list[str] = []
        m = next(scan)
        if m[1] == "extends":
            m = ident_list(parents)
        if m[1] != "{":
            fail(m, "'{'")
        methods: list[MethodDecl] = []
        attributes: list[AttributeDecl] = []
        uses: list[str] = []
        m = next(scan)
        while (word := m[1]) != "}":
            visibility = Visibility.VISIBLE
            if word == "visible" or word == "hidden":
                visibility = Visibility(word)
                m = next(scan)
                word = m[1]
                if word != "method" and word != "attribute":
                    fail(m, "'method' or 'attribute'")
            if word == "method":
                m = next(scan)
                name = ident(m)
                spans[("method", cls, name)] = where(m.start(1))
                target: Optional[tuple[str, str]] = None
                m = next(scan)
                if m[1] == "overrides":
                    target_cls = ident(next(scan))
                    m = next(scan)
                    if m[1] != ".":
                        fail(m, "'.'")
                    target = (target_cls, ident(next(scan)))
                    m = next(scan)
                methods.append(MethodDecl(
                    name=name, visibility=visibility, override_target=target,
                    kind=MethodKind.NEW if target is None else MethodKind.OVERRIDE))
            elif word == "attribute":
                m = next(scan)
                name = ident(m)
                spans[("attribute", cls, name)] = where(m.start(1))
                attributes.append(AttributeDecl(name=name, visibility=visibility))
                m = next(scan)
            elif word == "uses":
                m = ident_list(uses)
            else:
                fail(m, "'method', 'attribute', 'uses', or '}'")
            if m[1] != ";":
                fail(m, "';'")
            m = next(scan)
        classes.append(ClassDecl(
            name=cls, parents=tuple(parents), methods=tuple(methods),
            attributes=tuple(attributes), uses=tuple(uses)))
        m = next(scan)
    return OmdlDocument(model=ClassModel(classes), spans=spans)


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
