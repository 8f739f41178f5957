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
    Choice,
    Expression,
    LeftFold,
    Link,
    New,
    Not,
    Nonterminal,
    OneOrMore,
    Option,
    Sequence,
    Tag,
    Terminal,
    ZeroOrMore,
    format_expression,
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
_HEAD = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)[ \t\r\n]*=[ \t\r\n]*")  # ``Name =`` and the space after
_INDEX = re.compile(r"\[([0-9]+)\]")
_PLAIN = re.compile(r"[^'\\]+")  # literal text up to a quote or an escape
# The primaries read in one match: a name, a literal in ASCII with no escape,
# ``.`` or a tag.  ``read_primary`` reads any other the long way, which
# reports what is wrong with it.
_TOKEN = re.compile(
    r"([A-Za-z_][A-Za-z0-9_]*)|'([\x00-&(-\[\]-\x7f]*)'|(\.)|#([A-Za-z_][A-Za-z0-9_]*)"
)
_TOKENS = (None, Nonterminal, lambda s: Terminal(s.encode()) if s else EMPTY, lambda s: ANY, Tag)
_PREFIXES = set("&!@")
_SUFFIXES = {"?": Option, "*": ZeroOrMore, "+": OneOrMore}
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
        text, pos, n = self.text, self.pos, self.n
        while pos < n:
            ch = text[pos]
            if ch in " \t\r\n":
                pos += 1
            elif ch == "/" and text.startswith("//", pos):
                nl = text.find("\n", pos)
                pos = n if nl < 0 else nl + 1
            else:
                break
        self.pos = pos

    def peek(self) -> str:
        return self.text[self.pos : self.pos + 1]  # "" at the end

    def eat(self, ch: str) -> None:
        if not self.text.startswith(ch, self.pos):
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
            head = _HEAD.match(self.text, at)
            name = self.read_identifier() if head is None else head[1]
            if name in productions:
                message = f"production {name!r} is defined twice"
                raise self.fail(message, at, "duplicate-production", name)
            if head is None:  # a comment before the ``=``, or no ``=``
                self.skip_space()
                self.eat("=")
            else:
                self.pos = head.end()
            self.skip_space()
            productions[name] = self.read_expression()  # which skips the space after it
            locations[name] = self.line_col(at)
        return Grammar(productions, locations=locations)

    # Each of these reads from a position past white space, and
    # ``read_expression`` and ``read_sequence`` skip the space after what
    # they read.

    def read_expression(self) -> Expression:
        alternatives = [self.read_sequence()]
        while self.text.startswith("/", self.pos):
            self.pos += 1
            self.skip_space()
            alternatives.append(self.read_sequence())
        return alternatives[0] if len(alternatives) == 1 else Choice(tuple(alternatives))

    def read_sequence(self) -> Expression:
        text = self.text
        ch = text[self.pos : self.pos + 1]
        items = [self.read_prefixed(ch) if ch in _PREFIXES else self.read_suffixed()]
        while True:
            self.skip_space()
            ch = text[self.pos : self.pos + 1]
            # The sequence ends before a choice, a closing bracket, the end or
            # ``Name =``: the next production.
            if ch == "" or ch in "/)}" or (ch in _IDENT_START and _HEAD.match(text, self.pos)):
                break
            items.append(self.read_prefixed(ch) if ch in _PREFIXES else self.read_suffixed())
        return items[0] if len(items) == 1 else Sequence(tuple(items))

    def read_prefixed(self, ch: str) -> Expression:
        """The expression after the prefix ``ch``, which is at ``pos``."""
        if ch == "&":
            self.pos += 1
            self.skip_space()
            return And(self.read_suffixed())
        if ch == "!":
            self.pos += 1
            self.skip_space()
            return Not(self.read_suffixed())
        # "@[digits]" is an indexed link; any other "[..." after "@" is a
        # character-class body.
        index = _INDEX.match(self.text, self.pos + 1)
        if index is None:
            self.pos += 1
        else:
            self.pos = index.end()
            self.skip_space()
        return Link(self.read_suffixed(), index and int(index[1]))

    def read_suffixed(self) -> Expression:
        e = self.read_primary()
        text = self.text
        while True:
            suffix = _SUFFIXES.get(text[self.pos : self.pos + 1])
            if suffix is None:
                return e
            e = suffix(e)
            self.pos += 1

    def read_primary(self) -> Expression:
        token = _TOKEN.match(self.text, self.pos)
        if token is not None:
            self.pos = token.end()
            return _TOKENS[token.lastindex](token[token.lastindex])
        ch = self.text[self.pos : self.pos + 1]
        if ch == "'":
            return self.read_literal()
        if ch == "[":
            return self.read_char_class()
        if ch == "#":
            self.pos += 1
            return Tag(self.read_identifier())  # which reports the missing name
        if ch == "(":
            self.brackets.append(self.pos)
            self.pos += 1
            self.skip_space()
            e = self.read_expression()
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
            self.eat("}")
            self.brackets.pop()
            return LeftFold(body) if fold else New(body)
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
        text = self.text
        ranges: list[tuple[int, int]] = []
        while True:
            if self.pos >= self.n:
                raise self.fail("unterminated character class", at)
            if text.startswith("]", self.pos):
                self.pos += 1
                break
            lo = self.read_class_byte()
            if text.startswith("-", self.pos) and not text.startswith("-]", self.pos):
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
        if "\x00" <= ch < "\x80" and ch != "\\":  # an ASCII byte as it is
            self.pos += 1
            return ord(ch)
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
