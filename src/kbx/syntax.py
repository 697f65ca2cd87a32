"""Text format for knowledge bases and mappings: parser and canonical serializer.

The format is whitespace-insensitive with ``#`` line comments.  ``[=`` is the
inclusion token, a ``-`` suffix inverts a role, and a ``_`` prefix marks a
labeled null.  A name starts with a letter (``str.isalpha``), and goes on with
letters or digits (``str.isalnum``) and ``'``.  The lexer is one ``findall``
of ``_TOKEN``, which skips the whitespace and comments before each token and
takes a name with or without its ``_``, ``[=``, or one character, of which
``{`` ``}`` ``(`` ``)`` ``,`` ``;`` ``-`` are tokens and any other is an
error.  Tokens are plain strings and the parser's cursor is an index into
them, so a token's line and column are computed only for an error that points
at it.  A parse makes one term object per constant or null name, and every
occurrence of the name is that object.  Because a bare inclusion ``S [= S'``
does not reveal whether its sides are concepts or roles, the parser infers
name kinds from usage (``exists`` arguments, ``-`` suffixes, assertion
arities, explicit declarations) and propagates them across axioms; names with
no evidence default to concepts.  KB files may carry an optional
``roles { ... }`` block and mapping signature entries may be marked ``role X``
so that serialization is always re-parsable.
"""

from __future__ import annotations

import re
from itertools import islice

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


# After whitespace and comments: a name, "[=", any other character (one of
# "{}(),;-" or an error), or the end of the input, which matches as "" once,
# or twice after whitespace or a comment.  [^\W_] is exactly str.isalnum.  It
# also admits digits as a name's first character, so the lexer checks that
# character with str.isalpha.
_TOKEN = re.compile(r"\s*(?:#[^\n]*\s*)*(_?[^\W_]+(?:'[^\W_]*)*|\[=|.|\Z)", re.DOTALL)
_PUNCT = frozenset(["[=", "{", "}", "(", ")", ",", ";", "-"])


def _error(text: str, at: int, message: str) -> ParseError:
    """The error at the ``at``-th token, located by matching the tokens again."""
    offset = next(islice(_TOKEN.finditer(text), at, None)).start(1)
    if offset == len(text):  # A comment that runs to the end does not move the end's column.
        comment = text.find("#", text.rfind("\n") + 1)
        offset = comment if comment >= 0 else offset
    return ParseError(message, text.count("\n", 0, offset) + 1,
                      offset - text.rfind("\n", 0, offset))


def _lex(text: str) -> list[str]:
    """The token texts, then ``""`` for the end of the input."""
    tokens = _TOKEN.findall(text)
    del tokens[tokens.index(""):]
    bad = [w for w in set(tokens) if w not in _PUNCT and not w.lstrip("_")[:1].isalpha()]
    if bad:
        at = min(map(tokens.index, bad))
        message = ("null name expected after '_'" if tokens[at][0] == "_"
                   else f"unexpected character {tokens[at][0]!r}")
        raise _error(text, at, message)
    tokens.append("")
    return tokens


# An axiom side before the concept-vs-role decision: its shape ("exists",
# "inv" or "name"), the role it reads as, and its token's index.  A bare name
# reads as the role of that name, an existential as its role.
_Side = tuple[str, BasicRole, int]
_RawAxiom = tuple[_Side, bool, _Side]


class _Parser:
    """A cursor over the tokens, the concept-or-role kind of each name, and
    the one term of each constant or null name."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _lex(text)
        self.pos = 0
        self.kinds: dict[str, str] = {}
        self.terms: dict[str, Term] = {}

    def error(self, message: str, at: int | None = None) -> ParseError:
        return _error(self.text, self.pos if at is None else at, message)

    def accept(self, text: str) -> bool:
        """Take the next token if it is the keyword or punctuation ``text``."""
        if self.tokens[self.pos] == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> None:
        if self.tokens[self.pos] != text:
            raise self.error(f"expected {text!r}")
        self.pos += 1

    def ident(self, message: str) -> int:
        """Take the next token if it is a name, and return its index."""
        at = self.pos
        if not self.tokens[at][:1].isalpha():
            raise self.error(message)
        self.pos = at + 1
        return at

    def constrain(self, name: str, kind: str, at: int) -> None:
        if self.kinds.setdefault(name, kind) != kind:
            raise self.error(f"name {name!r} used as both concept and role", at)

    def close(self) -> None:
        """The final ``}``, and nothing after it."""
        self.expect("}")
        if self.tokens[self.pos]:
            raise self.error("trailing input after closing '}'")

    # -- blocks ----------------------------------------------------------

    def names(self, marked: bool) -> list[str]:
        """``{ N, ... }``: every name is a role, or in a signature (``marked``)
        only those written ``role N``."""
        names: list[str] = []
        self.expect("{")
        while not self.accept("}"):
            at = self.ident("name expected" if marked else "role name expected")
            role = not marked
            if marked and self.tokens[at] == "role" and self.tokens[self.pos][:1].isalpha():
                at, role = self.ident("name expected"), True
            if role:
                self.constrain(self.tokens[at], "role", at)
            names.append(self.tokens[at])
            if not self.accept(","):
                self.expect("}")
                break
        return names

    def role(self) -> tuple[BasicRole, int]:
        at = self.ident("role name expected")
        return BasicRole(self.tokens[at], self.accept("-")), at

    def side(self) -> _Side:
        at = self.ident("concept or role expected")
        name = self.tokens[at]
        if name == "exists":
            role, rat = self.role()
            return ("exists", role, rat)
        if self.accept("-"):
            return ("inv", BasicRole(name, True), at)
        return ("name", BasicRole(name), at)

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
        """The constant or null at the cursor, as this parse's one term of its name."""
        word = self.tokens[self.pos]
        term = self.terms.get(word)
        if term is None:
            if word[:1].isalpha():
                term = Constant(word)
            elif word[:1] == "_":
                term = Null(word[1:])
            else:
                raise self.error("constant or null expected")
            self.terms[word] = term
        self.pos += 1
        return term

    def axioms(self, raw: list[_RawAxiom]) -> tuple[TBoxAxiom, ...]:
        """Fix name kinds from each axiom's shape, propagate them across bare
        inclusions, then build the axioms."""
        for lhs, _neg, rhs in raw:
            shapes = {lhs[0], rhs[0]}
            if shapes >= {"exists", "inv"}:
                raise self.error("inclusion mixes a concept and a role", lhs[2])
            if shapes != {"name"}:
                kind = "concept" if "exists" in shapes else "role"
                for shape, role, at in (lhs, rhs):
                    if shape == "name":
                        self.constrain(role.name, kind, at)
            for shape, role, at in (lhs, rhs):
                if shape != "name":
                    self.constrain(role.name, "role", at)
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
            for shape, role, at in (lhs, rhs):
                if shape == "exists":
                    sides.append(Exists(role))
                elif self.kinds.get(role.name) == "role":
                    raise self.error(f"role {role.name!r} used where a concept is required", at)
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
    first_exists: int | None = None
    while not p.accept("}"):
        at = p.ident("assertion expected")
        name = p.tokens[at]
        role: BasicRole | None = None
        if name == "exists":
            role, rat = p.role()
            p.constrain(role.name, "role", rat)
            first_exists = at if first_exists is None else first_exists
        p.expect("(")
        first = p.arg()
        second = p.arg() if role is None and p.accept(",") else None
        p.expect(")")
        p.expect(";")
        if role is not None:
            assertions.append(ConceptAssertion(Exists(role), first))
        elif second is not None:
            p.constrain(name, "role", at)
            assertions.append(RoleAssertion(BasicRole(name), first, second))
        else:
            p.constrain(name, "concept", at)
            assertions.append(ConceptAssertion(Atomic(name), first))
    p.close()
    tbox = p.axioms(raw)
    abox = ABox.make(assertions)
    if first_exists is not None and abox.extended:
        raise p.error(
            "existential assertions are only allowed in ABoxes without nulls", first_exists
        )
    return KnowledgeBase(tbox, abox)


def parse_mapping(text: str) -> Mapping:
    """Parse a ``mapping { source {...} target {...} tbox {...} }`` file."""
    p = _Parser(text)
    p.expect("mapping")
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
        raise p.error("; ".join(violations), 0)
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
