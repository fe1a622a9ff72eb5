"""A small boolean query language over the index substrate.

Grammar (AND binds tighter than OR; juxtaposition is an implicit AND,
matching the paper's keyword-query semantics)::

    expr    := orExpr
    orExpr  := andExpr ( OR andExpr )*
    andExpr := notExpr ( [AND] notExpr )*
    notExpr := NOT notExpr | atom
    atom    := '(' expr ')' | '"' word+ '"' | word

Words may be feature triplets (``memory:category:harddrive``); quoted
groups are phrase queries and need a positional index. Keywords are
case-insensitive; everything else is normalized by the evaluation
context's term normalizer (the engine's analyzer).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import QueryError
from repro.index.positional import PositionalIndex

# --------------------------------------------------------------------------
# AST
# --------------------------------------------------------------------------


class Node:
    """Base class for query AST nodes."""

    def evaluate(self, context: "EvalContext") -> set[int]:  # pragma: no cover
        raise NotImplementedError


@dataclass(frozen=True)
class TermNode(Node):
    term: str

    def evaluate(self, context: "EvalContext") -> set[int]:
        return context.docs_with_term(self.term)


@dataclass(frozen=True)
class PhraseNode(Node):
    words: tuple[str, ...]

    def evaluate(self, context: "EvalContext") -> set[int]:
        return context.docs_with_phrase(self.words)


@dataclass(frozen=True)
class AndNode(Node):
    children: tuple[Node, ...]

    def evaluate(self, context: "EvalContext") -> set[int]:
        result: set[int] | None = None
        for child in self.children:
            docs = child.evaluate(context)
            result = docs if result is None else (result & docs)
            if not result:
                return set()
        return result or set()


@dataclass(frozen=True)
class OrNode(Node):
    children: tuple[Node, ...]

    def evaluate(self, context: "EvalContext") -> set[int]:
        result: set[int] = set()
        for child in self.children:
            result |= child.evaluate(context)
        return result


@dataclass(frozen=True)
class NotNode(Node):
    child: Node

    def evaluate(self, context: "EvalContext") -> set[int]:
        return context.all_docs() - self.child.evaluate(context)


# --------------------------------------------------------------------------
# Lexer
# --------------------------------------------------------------------------

_SPECIAL = {"(", ")", '"'}


def _lex(query: str) -> list[str]:
    """Split into words, parens, and quote marks. Quotes are not nested."""
    tokens: list[str] = []
    word: list[str] = []
    for ch in query:
        if ch in _SPECIAL:
            if word:
                tokens.append("".join(word))
                word = []
            tokens.append(ch)
        elif ch.isspace():
            if word:
                tokens.append("".join(word))
                word = []
        else:
            word.append(ch)
    if word:
        tokens.append("".join(word))
    return tokens


# --------------------------------------------------------------------------
# Parser (recursive descent)
# --------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[str]) -> None:
        self._tokens = tokens
        self._pos = 0

    def peek(self) -> str | None:
        if self._pos < len(self._tokens):
            return self._tokens[self._pos]
        return None

    def advance(self) -> str:
        token = self._tokens[self._pos]
        self._pos += 1
        return token

    def parse(self) -> Node:
        node = self.or_expr()
        if self.peek() is not None:
            raise QueryError(f"unexpected token {self.peek()!r}")
        return node

    def or_expr(self) -> Node:
        children = [self.and_expr()]
        while self._is_keyword("OR"):
            self.advance()
            children.append(self.and_expr())
        if len(children) == 1:
            return children[0]
        return OrNode(tuple(children))

    def and_expr(self) -> Node:
        children = [self.not_expr()]
        while True:
            token = self.peek()
            if token is None or token == ")" or self._is_keyword("OR"):
                break
            if self._is_keyword("AND"):
                self.advance()
            children.append(self.not_expr())
        if len(children) == 1:
            return children[0]
        return AndNode(tuple(children))

    def not_expr(self) -> Node:
        if self._is_keyword("NOT"):
            self.advance()
            return NotNode(self.not_expr())
        return self.atom()

    def atom(self) -> Node:
        token = self.peek()
        if token is None:
            raise QueryError("unexpected end of query")
        if token == "(":
            self.advance()
            node = self.or_expr()
            if self.peek() != ")":
                raise QueryError("missing closing parenthesis")
            self.advance()
            return node
        if token == '"':
            self.advance()
            words: list[str] = []
            while self.peek() not in ('"', None):
                words.append(self.advance())
            if self.peek() != '"':
                raise QueryError("unterminated phrase")
            self.advance()
            if not words:
                raise QueryError("empty phrase")
            return PhraseNode(tuple(words))
        if token == ")":
            raise QueryError("unexpected closing parenthesis")
        self.advance()
        return TermNode(token)

    def _is_keyword(self, keyword: str) -> bool:
        token = self.peek()
        return token is not None and token.upper() == keyword


def parse_query(query: str) -> Node:
    """Parse a boolean query string into an AST.

    Raises :class:`~repro.errors.QueryError` on empty or malformed input.
    """
    tokens = _lex(query)
    if not tokens:
        raise QueryError("empty query")
    return _Parser(tokens).parse()


# --------------------------------------------------------------------------
# Evaluation
# --------------------------------------------------------------------------


class EvalContext:
    """Binds an AST to an index (and optionally a positional index).

    Parameters
    ----------
    index:
        Anything with ``postings(term)`` and ``num_documents``, i.e.
        any :class:`~repro.index.backend.IndexBackend`.
    positional:
        Needed only for phrase queries.
    normalize:
        Term normalizer applied to every word before lookup (e.g. the
        analyzer's single-term normalization). Defaults to lowercasing.
        Returning ``None``/empty drops the word (e.g. stopwords), which for
        a phrase is an error — stopwords inside phrases are ambiguous.
    """

    def __init__(
        self,
        index,
        positional: PositionalIndex | None = None,
        normalize: Callable[[str], str | None] | None = None,
    ) -> None:
        self._index = index
        self._positional = positional
        self._normalize = normalize or (lambda w: w.lower())

    def all_docs(self) -> set[int]:
        return set(range(self._index.num_documents))

    def docs_with_term(self, word: str) -> set[int]:
        term = self._normalize(word)
        if not term:
            return set()
        return set(self._index.postings(term).doc_ids())

    def docs_with_phrase(self, words: tuple[str, ...]) -> set[int]:
        if self._positional is None:
            raise QueryError(
                "phrase queries need a positional index; none was provided"
            )
        terms: list[str] = []
        for word in words:
            term = self._normalize(word)
            if not term:
                raise QueryError(
                    f"phrase word {word!r} normalized to nothing "
                    "(stopword inside a phrase?)"
                )
            terms.append(term)
        return set(self._positional.phrase_query(terms))


def evaluate_query(
    query: str,
    index,
    positional: PositionalIndex | None = None,
    normalize: Callable[[str], str | None] | None = None,
) -> list[int]:
    """Parse and evaluate ``query``; return sorted matching doc positions."""
    node = parse_query(query)
    context = EvalContext(index, positional=positional, normalize=normalize)
    return sorted(node.evaluate(context))
