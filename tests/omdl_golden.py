"""Seeded OMDL inputs and the parse outcome of each, for a golden file.

``inputs(seed)`` rebuilds the same list of sources from a seed: rendered
``tests.modelgen`` models, laid out with random whitespace, ``//``
comments and CRLF, then mostly broken by one deleted, inserted or replaced
character; keyword and punctuation soups; and characters that can start
no token (``é``, ``$``, ``/``) placed right after a token.  ``outcome``
reduces a parse to JSON: a digest of the declarations and the whole
``spans`` dict, or the ``ParseError`` position, expected and found.

Regenerate the golden only from a parser whose output is trusted:

    PYTHONPATH=src python -m tests.omdl_golden
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from pathlib import Path

from moodkit import ParseError, parse, render, spans

from tests.modelgen import make_model

GOLDEN = Path(__file__).parent / "data" / "omdl_golden.json"
SEED = 1101

_GAPS = (" ", "\t", "\n", "\r\n", "  \t", " // c, D . m ; { }\n",
         "\r\n// x\r\n  ", "\n\n\t")
_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[{};,.]")
_WORD = re.compile(r"[A-Za-z_]")
_VOCAB = ("class", "extends", "method", "attribute", "uses", "overrides",
          "visible", "hidden", "A", "B", "m", "methods", "classy", "{", "}",
          ";", ",", ".", "//x\n", "\r\n", "é")
_NO_TOKEN = ("é", "ß", "€", "$", "/", "!", "@", "\x00")
_INSERT = _NO_TOKEN + ("{", "}", ";", ",", ".", " ", "\t", "\n", "\r", "a",
                       "Z", "_", "1", "/")


def _laid_out(rng: random.Random) -> str:
    """A rendered random model with each gap between tokens redrawn; a gap
    next to punctuation may be empty."""
    tokens = _TOKEN.findall(render(make_model(rng, max_classes=5)))
    parts = []
    for before, token in zip([";"] + tokens, tokens):
        glued = not (_WORD.match(before) and _WORD.match(token))
        parts.append("" if glued and rng.random() < 0.4 else rng.choice(_GAPS))
        parts.append(token)
    return "".join(parts) + rng.choice(("",) + _GAPS)


def _mutated(rng: random.Random) -> str:
    text = _laid_out(rng)
    if not text:
        return rng.choice(_INSERT)
    at = rng.randrange(len(text))
    how = rng.randrange(3)
    if how == 0:
        return text[:at] + text[at + 1:]
    char = rng.choice(_INSERT)
    return text[:at] + char + text[at + (how == 2):]


def _soup(rng: random.Random) -> str:
    return "".join(rng.choice(_VOCAB) + rng.choice(("", " ", "\t", "\n"))
                   for _ in range(rng.randint(0, 30)))


def _bad_after_token(rng: random.Random) -> str:
    text = _laid_out(rng)
    ends = [m.end() for m in _TOKEN.finditer(text)]
    at = rng.choice(ends)
    return text[:at] + rng.choice(_NO_TOKEN) + text[at:]


def inputs(seed: int = SEED) -> list[str]:
    """About 2,000 sources: 150 valid, 1,200 one-character mutations, 300
    soups and 350 with a character that starts no token after a token."""
    rng = random.Random(seed)
    families = ((_laid_out, 150), (_mutated, 1200), (_soup, 300),
                (_bad_after_token, 350))
    return [make(rng) for make, count in families for _ in range(count)]


def outcome(source: str):
    """A digest of the parsed declarations and spans, or the error's fields."""
    try:
        doc = parse(source)
    except ParseError as exc:
        return [*exc.position, exc.expected, exc.found]
    text = repr(doc.model.classes) + repr(spans(source))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def digest(sources: list[str]) -> str:
    return hashlib.sha256("\0".join(sources).encode()).hexdigest()


if __name__ == "__main__":
    sources = inputs()
    GOLDEN.parent.mkdir(exist_ok=True)
    body = ",\n".join(json.dumps(outcome(s), ensure_ascii=False) for s in sources)
    GOLDEN.write_text(
        f'{{"seed": {SEED}, "inputs": "{digest(sources)}", "outcomes": [\n'
        f"{body}\n]}}\n", encoding="utf-8")
