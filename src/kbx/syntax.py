"""Text format for knowledge bases and mappings: parser and canonical serializer.

The format is whitespace-insensitive with ``#`` line comments.  ``[=`` is the
inclusion token, a ``-`` suffix inverts a role, and a ``_`` prefix marks a
labeled null.  A name starts with a letter (``str.isalpha``), and goes on with
letters or digits (``str.isalnum``) and ``'``.  The lexer matches one pattern,
``_TOKEN``, at each position: a newline, other whitespace, a comment, a name
with or without its ``_``, or one of ``[=`` ``{`` ``}`` ``(`` ``)`` ``,``
``;`` ``-``; anything else is an error.  Because a bare inclusion ``S [= S'``
does not reveal whether its sides are concepts or roles, the parser infers
name kinds from usage (``exists`` arguments, ``-`` suffixes, assertion
arities, explicit declarations) and propagates them across axioms; names with
no evidence default to concepts.  KB files may carry an optional
``roles { ... }`` block and mapping signature entries may be marked
``role X`` so that serialization is always re-parsable.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .model import (
    ABox,
    Atomic,
    BasicConcept,
    BasicRole,
    ConceptAssertion,
    ConceptInclusion,
    Constant,
    Exists,
    KnowledgeBase,
    Mapping,
    Null,
    RoleAssertion,
    RoleInclusion,
    Signature,
    TBox,
    TBoxAxiom,
    Term,
    signature_of,
    validate_mapping,
)


class ParseError(Exception):
    """Raised on the first syntax or well-formedness failure, with a location."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column


class _Token(NamedTuple):
    kind: str  # ident | null | punct | eof; a null's text keeps its '_'
    text: str
    line: int
    column: int


# [^\W_] is exactly str.isalnum.  It also admits digits as a name's first
# character, so the lexer checks that character with str.isalpha.
_TOKEN = re.compile(
    r"(?P<newline>\n)|(?P<space>[^\S\n]+)|(?P<comment>#[^\n]*)"
    r"|(?P<name>_?[^\W_](?:[^\W_]|')*)|(?P<punct>\[=|[{}(),;-])|(?P<other>.)",
    re.DOTALL,
)


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0
    m: re.Match[str] | None = None
    for m in _TOKEN.finditer(text):
        kind, word, column = m.lastgroup, m.group(), m.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "punct":
            tokens.append(_Token("punct", word, line, column))
        elif kind == "name" and word.lstrip("_")[0].isalpha():
            tokens.append(_Token("null" if word[0] == "_" else "ident", word, line, column))
        elif word[0] == "_":
            raise ParseError("null name expected after '_'", line, column)
        elif kind not in ("space", "comment"):
            raise ParseError(f"unexpected character {word[0]!r}", line, column)
    # A comment that runs to the end of the input does not move the end's column.
    end = m.start() if m and m.lastgroup == "comment" else len(text)
    tokens.append(_Token("eof", "", line, end - line_start + 1))
    return tokens


# An axiom side before the concept-vs-role decision: its shape ("exists",
# "inv" or "name"), the role it reads as, and its token.  A bare name reads
# as the role of that name, an existential as its role.
_Side = tuple[str, BasicRole, _Token]
_RawAxiom = tuple[_Side, bool, _Side]


class _Parser:
    """A cursor over the tokens, and the concept-or-role kind of each name."""

    def __init__(self, text: str):
        self.tokens = _lex(text)
        self.pos = 0
        self.kinds: dict[str, str] = {}

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, message: str, tok: _Token | None = None) -> ParseError:
        tok = tok or self.peek()
        return ParseError(message, tok.line, tok.column)

    def accept(self, text: str) -> bool:
        """Take the next token if it is the keyword or punctuation ``text``."""
        if self.peek().text == text:
            self.next()
            return True
        return False

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if not self.accept(text):
            raise self.error(f"expected {text!r}")
        return tok

    def ident(self, message: str) -> _Token:
        if self.peek().kind != "ident":
            raise self.error(message)
        return self.next()

    def constrain(self, name: str, kind: str, tok: _Token) -> None:
        if self.kinds.setdefault(name, kind) != kind:
            raise self.error(f"name {name!r} used as both concept and role", tok)

    def close(self) -> None:
        """The final ``}``, and nothing after it."""
        self.expect("}")
        if self.peek().kind != "eof":
            raise self.error("trailing input after closing '}'")

    # -- blocks ----------------------------------------------------------

    def names(self, marked: bool) -> list[str]:
        """``{ N, ... }``: every name is a role, or in a signature (``marked``)
        only those written ``role N``."""
        names: list[str] = []
        self.expect("{")
        while not self.accept("}"):
            tok = self.ident("name expected" if marked else "role name expected")
            role = not marked
            if marked and tok.text == "role" and self.peek().kind == "ident":
                tok, role = self.next(), True
            if role:
                self.constrain(tok.text, "role", tok)
            names.append(tok.text)
            if not self.accept(","):
                self.expect("}")
                break
        return names

    def role(self) -> tuple[BasicRole, _Token]:
        tok = self.ident("role name expected")
        return BasicRole(tok.text, self.accept("-")), tok

    def side(self) -> _Side:
        tok = self.ident("concept or role expected")
        if tok.text == "exists":
            role, rtok = self.role()
            return ("exists", role, rtok)
        if self.accept("-"):
            return ("inv", BasicRole(tok.text, True), tok)
        return ("name", BasicRole(tok.text), tok)

    def tbox(self) -> list[_RawAxiom]:
        self.expect("tbox")
        self.expect("{")
        raw: list[_RawAxiom] = []
        while not self.accept("}"):
            lhs = self.side()
            self.expect("[=")
            negated = self.accept("not")
            raw.append((lhs, negated, self.side()))
            self.expect(";")
        return raw

    def arg(self) -> Term:
        tok = self.peek()
        if tok.kind == "ident":
            self.next()
            return Constant(tok.text)
        if tok.kind == "null":
            self.next()
            return Null(tok.text[1:])
        raise self.error("constant or null expected")

    def axioms(self, raw: list[_RawAxiom]) -> tuple[TBoxAxiom, ...]:
        """Fix name kinds from each axiom's shape, propagate them across bare
        inclusions, then build the axioms."""
        for lhs, _neg, rhs in raw:
            shapes = {lhs[0], rhs[0]}
            if shapes >= {"exists", "inv"}:
                raise self.error("inclusion mixes a concept and a role", lhs[2])
            if shapes != {"name"}:
                kind = "concept" if "exists" in shapes else "role"
                for shape, role, tok in (lhs, rhs):
                    if shape == "name":
                        self.constrain(role.name, kind, tok)
            for shape, role, tok in (lhs, rhs):
                if shape != "name":
                    self.constrain(role.name, "role", tok)
        changed = True
        while changed:
            changed = False
            for (s1, r1, _), _neg, (s2, r2, _) in raw:
                if s1 != "name" or s2 != "name":
                    continue
                for known, other in ((r1.name, r2.name), (r2.name, r1.name)):
                    if known in self.kinds and other not in self.kinds:
                        self.kinds[other] = self.kinds[known]
                        changed = True
        axioms: set[TBoxAxiom] = set()
        for lhs, negated, rhs in raw:
            shapes = {lhs[0], rhs[0]}
            if "exists" not in shapes and (
                "inv" in shapes or self.kinds.get(lhs[1].name) == "role"
            ):
                if self.kinds.get(rhs[1].name) == "concept":
                    raise self.error("inclusion mixes a concept and a role", rhs[2])
                axioms.add(RoleInclusion(lhs[1], rhs[1], negated))
                continue
            sides: list[BasicConcept] = []
            for shape, role, tok in (lhs, rhs):
                if shape == "exists":
                    sides.append(Exists(role))
                elif self.kinds.get(role.name) == "role":
                    raise self.error(f"role {role.name!r} used where a concept is required", tok)
                else:
                    sides.append(Atomic(role.name))
            axioms.add(ConceptInclusion(sides[0], sides[1], negated))
        return tuple(sorted(axioms, key=str))


def parse_kb(text: str) -> KnowledgeBase:
    """Parse a ``kb { roles? tbox { ... } abox { ... } }`` file.

    Raises ParseError with a source location on the first failure.
    """
    p = _Parser(text)
    p.expect("kb")
    p.expect("{")
    if p.accept("roles"):
        p.names(marked=False)
    raw = p.tbox()
    p.expect("abox")
    p.expect("{")
    assertions: list = []
    first_exists: _Token | None = None
    while not p.accept("}"):
        tok = p.ident("assertion expected")
        role: BasicRole | None = None
        if tok.text == "exists":
            role, rtok = p.role()
            p.constrain(role.name, "role", rtok)
            first_exists = first_exists or tok
        p.expect("(")
        args = [p.arg()]
        if role is None and p.accept(","):
            args.append(p.arg())
        p.expect(")")
        p.expect(";")
        if role is not None:
            assertions.append(ConceptAssertion(Exists(role), args[0]))
        elif len(args) == 2:
            p.constrain(tok.text, "role", tok)
            assertions.append(RoleAssertion(BasicRole(tok.text), args[0], args[1]))
        else:
            p.constrain(tok.text, "concept", tok)
            assertions.append(ConceptAssertion(Atomic(tok.text), args[0]))
    p.close()
    tbox = p.axioms(raw)
    abox = ABox.make(assertions)
    if first_exists and abox.extended:
        raise p.error(
            "existential assertions are only allowed in ABoxes without nulls", first_exists
        )
    return KnowledgeBase(tbox, abox)


def parse_mapping(text: str) -> Mapping:
    """Parse a ``mapping { source {...} target {...} tbox {...} }`` file."""
    p = _Parser(text)
    start = p.expect("mapping")
    p.expect("{")
    p.expect("source")
    source = p.names(marked=True)
    p.expect("target")
    target = p.names(marked=True)
    raw = p.tbox()
    p.close()
    t12 = p.axioms(raw)

    def split(names: list[str]) -> Signature:
        roles = {name for name in names if p.kinds.get(name) == "role"}
        return Signature(frozenset(names) - roles, frozenset(roles))

    mapping = Mapping(split(source), split(target), t12)
    violations = validate_mapping(mapping)
    if violations:
        raise p.error("; ".join(violations), start)
    return mapping


def _block(name: str, lines: list[str], indent: str) -> list[str]:
    if not lines:
        return [f"{indent}{name} {{ }}"]
    out = [f"{indent}{name} {{"]
    out.extend(f"{indent}  {line}" for line in lines)
    out.append(f"{indent}}}")
    return out


def _abox_lines(abox: ABox) -> list[str]:
    return [f"{a};" for a in sorted(map(str, abox.assertions))]


def _tbox_lines(tbox: TBox) -> list[str]:
    return [f"{ax};" for ax in sorted(map(str, tbox))]


def serialize(x: KnowledgeBase | Mapping | ABox) -> str:
    """Canonical text form: sorted axioms/assertions, stable across runs."""
    if isinstance(x, KnowledgeBase):
        roles = sorted(signature_of(x).roles)
        lines = ["kb {"]
        if roles:
            lines.append(f"  roles {{ {', '.join(roles)} }}")
        lines.extend(_block("tbox", _tbox_lines(x.tbox), "  "))
        lines.extend(_block("abox", _abox_lines(x.abox), "  "))
        lines.append("}")
        return "\n".join(lines) + "\n"
    if isinstance(x, Mapping):
        def names(sig: Signature) -> str:
            entries = sorted(sig.concepts) + [f"role {r}" for r in sorted(sig.roles)]
            return ", ".join(entries)

        lines = ["mapping {"]
        lines.append(f"  source {{ {names(x.sigma1)} }}")
        lines.append(f"  target {{ {names(x.sigma2)} }}")
        lines.extend(_block("tbox", _tbox_lines(x.t12), "  "))
        lines.append("}")
        return "\n".join(lines) + "\n"
    if isinstance(x, ABox):
        return "\n".join(_block("abox", _abox_lines(x), "")) + "\n"
    raise TypeError(f"cannot serialize {type(x).__name__}")
