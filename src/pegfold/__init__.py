"""pegfold: a PEG parsing toolkit that builds syntax trees declaratively.

Grammars annotate ordinary PEG expressions with tree operators --
constructors ``{e}``, left folds ``{@ e}``, links ``@e`` / ``@[n]e`` and
tags ``#t`` -- instead of semantic actions.  A transactional machine
defers node mutations to a log so speculative parsing can roll them back
wholesale, and packrat memoization stores nodes at analysis-chosen safe
points the moment their transaction commits.

>>> import pegfold
>>> g = pegfold.parse_grammar("Number = { [0-9]+ #Int }")
>>> pegfold.serialize(pegfold.ParseSession(g, b"12").parse().root)
"#Int['12']"
"""

from .analysis import MemoPlan, assign_memo_points, validate
from .expr import (
    And,
    AnyChar,
    CharClass,
    Choice,
    Empty,
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
    erase_tree_operators,
    format_expression,
)
from .grammar import Diagnostic, Grammar, GrammarSyntaxError, format_grammar, parse_grammar
from .interp import (
    InvalidGrammarError,
    NestingLimitExceeded,
    ParseError,
    ParseResult,
    ParseSession,
    Stats,
    StepLimitExceeded,
)
from .machine import InternalParserError, Machine, TxMark
from .memo import MemoEntry, MemoTable
from .tree import Node, NotationError, equals, parse_notation, serialize, to_json, to_json_dict

__version__ = "0.1.0"

__all__ = [
    "And",
    "AnyChar",
    "CharClass",
    "Choice",
    "Diagnostic",
    "Empty",
    "Expression",
    "Grammar",
    "GrammarSyntaxError",
    "InternalParserError",
    "InvalidGrammarError",
    "LeftFold",
    "Link",
    "Machine",
    "MemoEntry",
    "MemoPlan",
    "MemoTable",
    "NestingLimitExceeded",
    "New",
    "Node",
    "Nonterminal",
    "Not",
    "NotationError",
    "OneOrMore",
    "Option",
    "ParseError",
    "ParseResult",
    "ParseSession",
    "Sequence",
    "Stats",
    "StepLimitExceeded",
    "Tag",
    "Terminal",
    "TxMark",
    "ZeroOrMore",
    "assign_memo_points",
    "equals",
    "erase_tree_operators",
    "format_expression",
    "format_grammar",
    "parse_grammar",
    "parse_notation",
    "serialize",
    "to_json",
    "to_json_dict",
    "validate",
    "__version__",
]
