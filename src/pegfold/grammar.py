"""Grammar files: the container type and the file-syntax reader.

A grammar file is a list of productions::

    Sum     = Product {@ ( '+' #add / '-' #sub ) @Product }*
    Product = Value {@ ( '*' #mul / '/' #div ) @Value }*
    Value   = { [0-9]+ #Integer } / '(' Sum ')'

Syntax summary:

* ``Name = expression`` defines a production; the first one is the
  default start symbol.  ``//`` starts a line comment.
* Literals are single-quoted with escapes ``\\' \\\\ \\n \\r \\t \\xHH``;
  ``''`` denotes the empty expression.
* Character classes ``[a-z0-9_]`` support ``-`` ranges and the escapes
  ``\\] \\\\ \\- \\n \\r \\t \\xHH``; ``.`` matches any byte.
* Precedence, loosest first: choice ``/``, sequence, prefix ``& ! @ @[n]``,
  suffix ``? * +``, primary (literals, classes, ``.``, names, ``#tag``,
  ``( e )``, ``{ e }``, ``{@ e }``).
* ``{@`` opens a left-fold only when followed by whitespace; ``{@Name``
  is a constructor whose first element is the link ``@Name``.
* The index of ``@[n]`` is ASCII digits; after ``@`` any other ``[``
  opens a character class, so ``@[0-9]`` links a digit.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

from .expr import (
    ANY,
    EMPTY,
    And,
    CharClass,
    Expression,
    LeftFold,
    Link,
    New,
    Not,
    Nonterminal,
    OneOrMore,
    Option,
    Tag,
    Terminal,
    ZeroOrMore,
    choice,
    format_expression,
    sequence,
)

__all__ = [
    "Grammar",
    "Diagnostic",
    "GrammarSyntaxError",
    "parse_grammar",
    "format_grammar",
]


@dataclass(frozen=True)
class Diagnostic:
    """One finding about a grammar: ``severity`` is ``error`` or ``warning``."""

    severity: str
    code: str
    message: str
    production: str | None = None
    line: int = 0
    column: int = 0

    def __str__(self) -> str:
        where = self.production or "<grammar>"
        if self.line > 0:
            where += f":{self.line}:{self.column}"
        return f"{self.severity} {self.code} {where}: {self.message}"


class Grammar:
    """An ordered map of productions plus a start symbol.

    ``productions`` is read-only, because the grammar keeps the programs
    compiled from it (see :mod:`pegfold.interp`).  ``locations`` maps
    production names to their ``(line, column)`` in the source text, for
    diagnostics; it does not participate in equality.
    """

    __slots__ = ("_productions", "start", "locations", "_programs", "_facts")

    def __init__(
        self,
        productions: Mapping[str, Expression],
        start: str | None = None,
        locations: dict[str, tuple[int, int]] | None = None,
    ):
        if not productions:
            raise ValueError("a grammar needs at least one production")
        self._productions = MappingProxyType(dict(productions))
        self.start = start if start is not None else next(iter(productions))
        if self.start not in self.productions:
            raise ValueError(f"start symbol {self.start!r} is not a production")
        self.locations = locations or {}
        # (memo, build_ast, counting) -> compiled program; see pegfold.interp.program_for.
        self._programs: dict = {}
        # Facts every analysis reads, computed once; see pegfold.analysis.
        self._facts = None

    @property
    def productions(self) -> Mapping[str, Expression]:
        return self._productions

    def location(self, name: str) -> tuple[int, int]:
        return self.locations.get(name, (0, 0))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Grammar):
            return NotImplemented
        return (
            list(self.productions.items()) == list(other.productions.items())
            and self.start == other.start
        )

    def __repr__(self) -> str:
        return f"<Grammar start={self.start} productions={list(self.productions)}>"


class GrammarSyntaxError(ValueError):
    """Raised when a grammar file does not parse; carries diagnostics."""

    def __init__(self, diagnostics: list[Diagnostic]):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = diagnostics


def format_grammar(grammar: Grammar) -> str:
    """Renders a grammar back to file syntax; re-parsing round-trips."""
    width = max(len(name) for name in grammar.productions)
    lines = [
        f"{name.ljust(width)} = {format_expression(body)}"
        for name, body in grammar.productions.items()
    ]
    return "\n".join(lines) + "\n"


_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DEFINITION = re.compile(_IDENT.pattern + r"[ \t\r\n]*=")  # ``Name =``: the next production
_INDEX = re.compile(r"\[([0-9]+)\]")
_PLAIN = re.compile(r"[^'\\]+")  # literal text up to a quote or an escape
_HEX = set("0123456789abcdefABCDEF")
_ESCAPES = {"n": 0x0A, "r": 0x0D, "t": 0x09, "\\": 0x5C}


class _Reader:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.n = len(text)
        self.brackets: list[int] = []  # where each unclosed ( or { opened

    # -- diagnostics -----------------------------------------------------

    def line_col(self, pos: int) -> tuple[int, int]:
        line = self.text.count("\n", 0, pos) + 1
        col = pos - self.text.rfind("\n", 0, pos)
        return line, col

    def fail(
        self, message: str, pos: int | None = None, code: str = "syntax", name: str | None = None
    ) -> GrammarSyntaxError:
        line, col = self.line_col(self.pos if pos is None else pos)
        return GrammarSyntaxError([Diagnostic("error", code, message, name, line, col)])

    # -- lexical helpers -------------------------------------------------

    def skip_space(self) -> None:
        while self.pos < self.n:
            ch = self.text[self.pos]
            if ch in " \t\r\n":
                self.pos += 1
            elif ch == "/" and self.text.startswith("//", self.pos):
                nl = self.text.find("\n", self.pos)
                self.pos = self.n if nl < 0 else nl + 1
            else:
                return

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < self.n else ""

    def eat(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.fail(f"expected {ch!r}")
        self.pos += 1

    def read_identifier(self) -> str:
        name = _IDENT.match(self.text, self.pos)
        if name is None:
            raise self.fail("expected an identifier")
        self.pos = name.end()
        return name[0]

    # -- grammar structure -----------------------------------------------

    def read_grammar(self) -> Grammar:
        productions: dict[str, Expression] = {}
        locations: dict[str, tuple[int, int]] = {}
        self.skip_space()
        if self.pos >= self.n:
            raise self.fail("empty grammar: expected at least one production")
        while self.pos < self.n:
            at = self.pos
            name = self.read_identifier()
            if name in productions:
                message = f"production {name!r} is defined twice"
                raise self.fail(message, at, "duplicate-production", name)
            self.skip_space()
            self.eat("=")
            self.skip_space()
            productions[name] = self.read_expression()
            locations[name] = self.line_col(at)
            self.skip_space()
        return Grammar(productions, locations=locations)

    def read_expression(self) -> Expression:
        alternatives = [self.read_sequence()]
        self.skip_space()
        while self.peek() == "/":
            self.pos += 1
            self.skip_space()
            alternatives.append(self.read_sequence())
            self.skip_space()
        return choice(alternatives)

    def read_sequence(self) -> Expression:
        items = [self.read_prefixed()]
        while True:
            self.skip_space()
            ch = self.peek()
            if ch == "" or ch in "/)}":
                break
            if ch in _IDENT_START and _DEFINITION.match(self.text, self.pos):
                break
            items.append(self.read_prefixed())
        return sequence(items)

    def read_prefixed(self) -> Expression:
        ch = self.peek()
        if ch == "&":
            self.pos += 1
            self.skip_space()
            return And(self.read_suffixed())
        if ch == "!":
            self.pos += 1
            self.skip_space()
            return Not(self.read_suffixed())
        if ch == "@":
            # "@[digits]" is an indexed link; any other "[..." after "@"
            # is a character-class body.
            index = _INDEX.match(self.text, self.pos + 1)
            if index is None:
                self.pos += 1
            else:
                self.pos = index.end()
                self.skip_space()
            return Link(self.read_suffixed(), index and int(index[1]))
        return self.read_suffixed()

    def read_suffixed(self) -> Expression:
        e = self.read_primary()
        while True:
            ch = self.peek()
            if ch == "?":
                e = Option(e)
            elif ch == "*":
                e = ZeroOrMore(e)
            elif ch == "+":
                e = OneOrMore(e)
            else:
                return e
            self.pos += 1

    def read_primary(self) -> Expression:
        ch = self.peek()
        if ch == "'":
            return self.read_literal()
        if ch == "[":
            return self.read_char_class()
        if ch == ".":
            self.pos += 1
            return ANY
        if ch == "#":
            self.pos += 1
            return Tag(self.read_identifier())
        if ch == "(":
            self.brackets.append(self.pos)
            self.pos += 1
            self.skip_space()
            e = self.read_expression()
            self.skip_space()
            self.eat(")")
            self.brackets.pop()
            return e
        if ch == "{":
            self.brackets.append(self.pos)
            # "{@" + whitespace opens a left-fold; "{@Name" is a
            # constructor that starts with the link @Name.
            fold = self.text.startswith("@", self.pos + 1) and (
                self.text[self.pos + 2 : self.pos + 3] in " \t\r\n}"
            )
            self.pos += 2 if fold else 1
            self.skip_space()
            body = self.read_expression()
            self.skip_space()
            self.eat("}")
            self.brackets.pop()
            return LeftFold(body) if fold else New(body)
        if ch in _IDENT_START:
            return Nonterminal(self.read_identifier())
        raise self.fail("expected an expression")

    def read_literal(self) -> Expression:
        self.eat("'")
        out = bytearray()
        while True:
            plain = _PLAIN.match(self.text, self.pos)
            if plain is not None:
                try:
                    out += plain[0].encode("utf-8")
                except UnicodeEncodeError as error:  # a lone surrogate has no UTF-8 form
                    raise self.fail("lone surrogate in literal", self.pos + error.start) from None
                self.pos = plain.end()
            if self.pos >= self.n:
                raise self.fail("unterminated literal")
            if self.text[self.pos] == "'":
                self.pos += 1
                return Terminal(bytes(out)) if out else EMPTY
            out.append(self.read_escape("'"))

    def read_escape(self, *extra: str) -> int:
        at = self.pos
        self.pos += 1
        if self.pos >= self.n:
            raise self.fail("dangling escape", at)
        ch = self.text[self.pos]
        self.pos += 1
        if ch in extra:
            return ord(ch)
        if ch in _ESCAPES:
            return _ESCAPES[ch]
        if ch == "x":
            hexpart = self.text[self.pos : self.pos + 2]
            if len(hexpart) != 2 or any(c not in _HEX for c in hexpart):
                raise self.fail("bad \\xHH escape", at)
            self.pos += 2
            return int(hexpart, 16)
        raise self.fail(f"unknown escape \\{ch}", at)

    def read_char_class(self) -> Expression:
        at = self.pos
        self.eat("[")
        ranges: list[tuple[int, int]] = []
        while True:
            if self.pos >= self.n:
                raise self.fail("unterminated character class", at)
            if self.peek() == "]":
                self.pos += 1
                break
            lo = self.read_class_byte()
            if self.peek() == "-" and not self.text.startswith("-]", self.pos):
                self.pos += 1
                hi = self.read_class_byte()
                if lo > hi:
                    raise self.fail(f"inverted range {chr(lo)}-{chr(hi)} in character class", at)
                ranges.append((lo, hi))
            else:
                ranges.append((lo, lo))
        if not ranges:
            raise self.fail("empty character class", at)
        return CharClass(tuple(ranges))

    def read_class_byte(self) -> int:
        ch = self.peek()
        if ch == "\\":
            return self.read_escape("]", "-", "'")
        b = ch.encode("utf-8", "surrogatepass")  # a lone surrogate is three bytes
        if len(b) != 1:
            raise self.fail(f"character class entries must be single bytes, got {ch!r}")
        self.pos += 1
        return b[0]


def parse_grammar(text: str) -> Grammar:
    """Parses grammar-file text into a :class:`Grammar`.

    Raises :class:`GrammarSyntaxError` (with positioned diagnostics) on
    malformed syntax, duplicate production names, or brackets nested deeper
    than the caller's recursion limit lets the reader follow.
    """
    reader = _Reader(text)
    try:
        return reader.read_grammar()
    except RecursionError:
        # Where the recursion ran out depends on the caller's stack depth, so
        # the diagnostic points at the outermost unclosed bracket instead.
        raise reader.fail("grammar nests too deeply", (reader.brackets or [reader.pos])[0]) from None
