"""Core syntactic objects: signatures, roles, concepts, axioms, ABoxes, KBs, mappings.

Everything here is an immutable `Record` with structural equality.  Rendering
methods produce the concrete text syntax understood by the parser in
`kbx.syntax`; the parser and serializer rely on them being exact.
"""

from __future__ import annotations

import operator
from typing import Iterable, Iterator, Union

_set = object.__setattr__


def _compare(op):
    """An order on records of one class: their field tuples' order."""

    def compare(self, other):
        if other.__class__ is self.__class__:
            return op(self._values, other._values)
        return NotImplemented

    return compare


class Record:
    """An immutable value whose fields are the names in its class's ``__slots__``.

    A record keeps its field tuple next to its fields.  Records of one class
    compare, order and hash as their field tuples do; records of different
    classes are never equal.  The repr reads ``Name(field=value, ...)``.  The
    base ``__init__`` takes every field, in order or by name; a class with
    defaults or a normal form writes its own and passes the field tuple to
    ``_fill``.
    """

    __slots__ = ("_values",)

    def __init__(self, *values, **named) -> None:
        fields = self.__slots__
        if named:
            values += tuple(named.pop(f) for f in fields[len(values):] if f in named)
        if len(values) != len(fields) or named:
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(fields)}")
        self._fill(values)

    def _fill(self, values: tuple) -> None:
        _set(self, "_values", values)
        for f, value in zip(self.__slots__, values):
            _set(self, f, value)

    def __eq__(self, other):  # spelled out: every set and dict lookup runs it
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    __lt__ = _compare(operator.lt)
    __le__ = _compare(operator.le)
    __gt__ = _compare(operator.gt)
    __ge__ = _compare(operator.ge)

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self.__slots__, self._values))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")


class Signature(Record):
    """A finite set of concept names plus a disjoint finite set of role names."""

    __slots__ = ("concepts", "roles")

    def __init__(
        self, concepts: frozenset[str] = frozenset(), roles: frozenset[str] = frozenset()
    ) -> None:
        overlap = concepts & roles
        if overlap:
            raise ValueError(f"names used as both concept and role: {sorted(overlap)}")
        self._fill((concepts, roles))

    @staticmethod
    def make(concepts: Iterable[str] = (), roles: Iterable[str] = ()) -> "Signature":
        return Signature(frozenset(concepts), frozenset(roles))

    def union(self, other: "Signature") -> "Signature":
        return Signature(self.concepts | other.concepts, self.roles | other.roles)


class BasicRole(Record):
    """A role name or its inverse (``P`` or ``P-``)."""

    __slots__ = ("name", "inverted")

    def __init__(self, name: str, inverted: bool = False) -> None:
        self._fill((name, inverted))

    def inverse(self) -> "BasicRole":
        return BasicRole(self.name, not self.inverted)

    def __str__(self) -> str:
        return self.name + ("-" if self.inverted else "")


class Atomic(Record):
    """A concept name used as a basic concept."""

    __slots__ = ("name",)

    def __str__(self) -> str:
        return self.name


class Exists(Record):
    """Existential restriction over a basic role (``exists R``)."""

    __slots__ = ("role",)

    def __str__(self) -> str:
        return f"exists {self.role}"


BasicConcept = Union[Atomic, Exists]


class ConceptInclusion(Record):
    __slots__ = ("lhs", "rhs", "negated_rhs")

    def __init__(self, lhs: BasicConcept, rhs: BasicConcept, negated_rhs: bool = False) -> None:
        self._fill((lhs, rhs, negated_rhs))

    def __str__(self) -> str:
        neg = "not " if self.negated_rhs else ""
        return f"{self.lhs} [= {neg}{self.rhs}"


class RoleInclusion(Record):
    __slots__ = ("lhs", "rhs", "negated_rhs")

    def __init__(self, lhs: BasicRole, rhs: BasicRole, negated_rhs: bool = False) -> None:
        self._fill((lhs, rhs, negated_rhs))

    def __str__(self) -> str:
        neg = "not " if self.negated_rhs else ""
        return f"{self.lhs} [= {neg}{self.rhs}"


TBoxAxiom = Union[ConceptInclusion, RoleInclusion]
TBox = tuple[TBoxAxiom, ...]


class Constant(Record):
    __slots__ = ("name",)

    def __str__(self) -> str:
        return self.name


class Null(Record):
    """A labeled null; rendered with a leading underscore."""

    __slots__ = ("name",)

    def __str__(self) -> str:
        return f"_{self.name}"


Term = Union[Constant, Null]


class Variable(Record):
    """A query variable; only meaningful inside query atoms, never in ABoxes."""

    __slots__ = ("name",)

    def __str__(self) -> str:
        return f"?{self.name}"


class ConceptAssertion(Record):
    __slots__ = ("concept", "term")

    def __str__(self) -> str:
        if isinstance(self.concept, Exists):
            return f"{self.concept} ({self.term})"
        return f"{self.concept}({self.term})"


class RoleAssertion(Record):
    """A role membership fact.

    Assertions over an inverted role are normalized on construction:
    ``R-(a, b)`` is stored as ``R(b, a)``, so stored values always carry a
    forward role and serialization round-trips exactly.
    """

    __slots__ = ("role", "first", "second")

    def __init__(self, role: BasicRole, first: Term, second: Term) -> None:
        if role.inverted:
            role, first, second = role.inverse(), second, first
        self._fill((role, first, second))

    def __str__(self) -> str:
        return f"{self.role}({self.first}, {self.second})"


Assertion = Union[ConceptAssertion, RoleAssertion]


class ABox(Record):
    """A finite set of assertions; extended iff some labeled null occurs."""

    __slots__ = ("assertions",)

    @staticmethod
    def make(assertions: Iterable[Assertion]) -> "ABox":
        seen: dict[Assertion, None] = {}
        for a in assertions:
            seen.setdefault(a, None)
        return ABox(tuple(sorted(seen, key=str)))

    @property
    def extended(self) -> bool:
        return any(isinstance(t, Null) for t in self.terms())

    def terms(self) -> Iterator[Term]:
        for a in self.assertions:
            if isinstance(a, ConceptAssertion):
                yield a.term
            else:
                yield a.first
                yield a.second

    def constants(self) -> list[Constant]:
        out: dict[Constant, None] = {}
        for t in self.terms():
            if isinstance(t, Constant):
                out.setdefault(t, None)
        return sorted(out, key=str)

    def all_terms(self) -> list[Term]:
        out: dict[Term, None] = {}
        for t in self.terms():
            out.setdefault(t, None)
        return sorted(out, key=str)


EMPTY_ABOX = ABox(())


class KnowledgeBase(Record):
    __slots__ = ("tbox", "abox")


class Mapping(Record):
    """A source signature, a disjoint target signature, and bridging axioms."""

    __slots__ = ("sigma1", "sigma2", "t12")


def concept_over(c: BasicConcept, sig: Signature) -> bool:
    if isinstance(c, Atomic):
        return c.name in sig.concepts
    return c.role.name in sig.roles


def role_over(r: BasicRole, sig: Signature) -> bool:
    return r.name in sig.roles


def signature_of(x: Union[TBox, tuple, ABox, KnowledgeBase, Mapping]) -> Signature:
    """The concept and role names syntactically occurring in ``x``."""
    concepts: set[str] = set()
    roles: set[str] = set()

    def see_concept(c: BasicConcept) -> None:
        if isinstance(c, Atomic):
            concepts.add(c.name)
        else:
            roles.add(c.role.name)

    def see_axioms(axioms: Iterable[TBoxAxiom]) -> None:
        for ax in axioms:
            if isinstance(ax, ConceptInclusion):
                see_concept(ax.lhs)
                see_concept(ax.rhs)
            else:
                roles.add(ax.lhs.name)
                roles.add(ax.rhs.name)

    def see_abox(abox: ABox) -> None:
        for a in abox.assertions:
            if isinstance(a, ConceptAssertion):
                see_concept(a.concept)
            else:
                roles.add(a.role.name)

    if isinstance(x, KnowledgeBase):
        see_axioms(x.tbox)
        see_abox(x.abox)
    elif isinstance(x, ABox):
        see_abox(x)
    elif isinstance(x, Mapping):
        see_axioms(x.t12)
    else:
        see_axioms(x)
    return Signature(frozenset(concepts), frozenset(roles))


def validate_mapping(m: Mapping) -> list[str]:
    """Check the mapping invariants; returns human-readable violations (empty = valid)."""
    violations: list[str] = []
    overlap = (m.sigma1.concepts | m.sigma1.roles) & (m.sigma2.concepts | m.sigma2.roles)
    if overlap:
        violations.append(f"signature overlap between source and target: {sorted(overlap)}")
    for ax in m.t12:
        if isinstance(ax, ConceptInclusion):
            if not concept_over(ax.lhs, m.sigma1):
                violations.append(f"axiom '{ax}': left side not over the source signature")
            if not concept_over(ax.rhs, m.sigma2):
                violations.append(f"axiom '{ax}': right side not over the target signature")
        else:
            if not role_over(ax.lhs, m.sigma1):
                violations.append(f"axiom '{ax}': left side not over the source signature")
            if not role_over(ax.rhs, m.sigma2):
                violations.append(f"axiom '{ax}': right side not over the target signature")
    return violations


def all_basic_roles(sig: Signature) -> list[BasicRole]:
    """Every basic role over the signature, both orientations, in stable order."""
    out: list[BasicRole] = []
    for name in sorted(sig.roles):
        out.append(BasicRole(name))
        out.append(BasicRole(name, inverted=True))
    return out


def all_basic_concepts(sig: Signature) -> list[BasicConcept]:
    """Every basic concept over the signature, in stable order."""
    out: list[BasicConcept] = [Atomic(n) for n in sorted(sig.concepts)]
    out.extend(Exists(r) for r in all_basic_roles(sig))
    return out
