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
# is the token, or "" at end of input; group 2 is a character that cannot
# start a token.  The skip never needs backtracking: after it, one of the
# alternatives always matches.
_SCAN = re.compile(
    r"""(?:[ \t\r\n]+|//[^\n]*)*
        (?: ([A-Za-z_][A-Za-z0-9_]*|[{};,.]|\Z) | (.) )""",
    re.VERBOSE | re.DOTALL,
)
_NOT_IDENT = KEYWORDS | set("{};,.") | {""}


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


class _Parser:
    """Recursive descent over (text, offset) tokens; "" is end of input."""

    def __init__(self, source: str):
        self._source = source
        self._line, self._line_start, self._seen = 1, 0, 0
        self._tokens: list[tuple[str, int]] = []
        for m in _SCAN.finditer(source):
            text = m[1]
            if text is None:
                raise ParseError(self.where(m.start(2)), "a token", repr(m[2]))
            self._tokens.append((text, m.start(1)))
            if not text:
                break
        self._i = 0

    def where(self, offset: int) -> tuple[int, int]:
        """(line, column) of an offset no smaller than the last one asked.

        Only the text between the two is scanned, so the positions of a
        whole parse cost one pass over the source, even on one long line.
        """
        newlines = self._source.count("\n", self._seen, offset)
        if newlines:
            self._line += newlines
            self._line_start = self._source.rfind("\n", self._seen, offset) + 1
        self._seen = offset
        return self._line, offset - self._line_start + 1

    @property
    def text(self) -> str:
        return self._tokens[self._i][0]

    def fail(self, expected: str):
        text, offset = self._tokens[self._i]
        raise ParseError(self.where(offset), expected,
                         repr(text) if text else "end of input")

    def accept(self, word: str) -> bool:
        """Consume the current token if its text is ``word``."""
        if self.text == word:
            self._i += 1
            return True
        return False

    def expect(self, word: str):
        if not self.accept(word):
            self.fail(f"'{word}'")

    def ident(self) -> tuple[str, int]:
        tok = self._tokens[self._i]
        if tok[0] in _NOT_IDENT:
            self.fail("identifier")
        self._i += 1
        return tok

    def ident_list(self) -> list[str]:
        names = [self.ident()[0]]
        while self.accept(","):
            names.append(self.ident()[0])
        return names

    def document(self) -> OmdlDocument:
        classes: list[ClassDecl] = []
        spans: dict = {}
        while self.text:
            self.expect("class")
            name, offset = self.ident()
            if ("class", name) in spans:
                raise ParseError(self.where(offset),
                                 "a class name not declared before", repr(name))
            spans[("class", name)] = self.where(offset)
            parents = self.ident_list() if self.accept("extends") else []
            self.expect("{")
            methods: list[MethodDecl] = []
            attributes: list[AttributeDecl] = []
            uses: list[str] = []
            while not self.accept("}"):
                self._member(name, methods, attributes, uses, spans)
            classes.append(ClassDecl(
                name=name, parents=tuple(parents),
                methods=tuple(methods), attributes=tuple(attributes),
                uses=tuple(uses)))
        return OmdlDocument(model=ClassModel(classes), spans=spans)

    def _member(self, cls: str, methods: list, attributes: list,
                uses: list, spans: dict):
        visibility = Visibility.VISIBLE
        if self.text in ("visible", "hidden"):
            visibility = Visibility(self.text)
            self._i += 1
            if self.text not in ("method", "attribute"):
                self.fail("'method' or 'attribute'")
        if self.accept("method"):
            name, offset = self.ident()
            kind = MethodKind.NEW
            target: Optional[tuple[str, str]] = None
            if self.accept("overrides"):
                target_cls = self.ident()[0]
                self.expect(".")
                target = (target_cls, self.ident()[0])
                kind = MethodKind.OVERRIDE
            self.expect(";")
            methods.append(MethodDecl(
                name=name, visibility=visibility, kind=kind,
                override_target=target))
            spans[("method", cls, name)] = self.where(offset)
        elif self.accept("attribute"):
            name, offset = self.ident()
            self.expect(";")
            attributes.append(AttributeDecl(name=name, visibility=visibility))
            spans[("attribute", cls, name)] = self.where(offset)
        elif self.accept("uses"):
            uses.extend(self.ident_list())
            self.expect(";")
        else:
            self.fail("'method', 'attribute', 'uses', or '}'")


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
    return _Parser(source).document()


def render(model: ClassModel) -> str:
    """Deterministic textual form of a model; parse(render(m)).model == m.

    Members are emitted methods first, then attributes, then one ``uses``
    line, in declaration order; default visibility is left implicit.
    """
    out: list[str] = []
    for decl in model:
        header = f"class {decl.name}"
        if decl.parents:
            header += " extends " + ", ".join(decl.parents)
        if not (decl.methods or decl.attributes or decl.uses):
            out.append(header + " { }")
            continue
        out.append(header + " {")
        for m in decl.methods:
            parts = []
            if m.visibility is Visibility.HIDDEN:
                parts.append("hidden")
            parts.append(f"method {m.name}")
            if m.override_target is not None:
                parts.append(f"overrides {m.override_target[0]}.{m.override_target[1]}")
            out.append("    " + " ".join(parts) + ";")
        for a in decl.attributes:
            prefix = "hidden " if a.visibility is Visibility.HIDDEN else ""
            out.append(f"    {prefix}attribute {a.name};")
        if decl.uses:
            out.append("    uses " + ", ".join(decl.uses) + ";")
        out.append("}")
    return "\n".join(out) + "\n" if out else ""
