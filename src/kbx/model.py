"""Core syntactic objects: signatures, roles, concepts, axioms, ABoxes, KBs, mappings.

Everything here is an immutable value with structural equality.  Rendering
methods produce the concrete text syntax understood by the parser in
`kbx.syntax`; the parser and serializer rely on them being exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Union


@dataclass(frozen=True)
class Signature:
    """A finite set of concept names plus a disjoint finite set of role names."""

    concepts: frozenset[str] = frozenset()
    roles: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        overlap = self.concepts & self.roles
        if overlap:
            raise ValueError(f"names used as both concept and role: {sorted(overlap)}")

    @staticmethod
    def make(concepts: Iterable[str] = (), roles: Iterable[str] = ()) -> "Signature":
        return Signature(frozenset(concepts), frozenset(roles))

    def union(self, other: "Signature") -> "Signature":
        return Signature(self.concepts | other.concepts, self.roles | other.roles)


@dataclass(frozen=True, order=True)
class BasicRole:
    """A role name or its inverse (``P`` or ``P-``)."""

    name: str
    inverted: bool = False

    def inverse(self) -> "BasicRole":
        return BasicRole(self.name, not self.inverted)

    def __str__(self) -> str:
        return self.name + ("-" if self.inverted else "")


@dataclass(frozen=True, order=True)
class Atomic:
    """A concept name used as a basic concept."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, order=True)
class Exists:
    """Existential restriction over a basic role (``exists R``)."""

    role: BasicRole

    def __str__(self) -> str:
        return f"exists {self.role}"


BasicConcept = Union[Atomic, Exists]


@dataclass(frozen=True)
class ConceptInclusion:
    lhs: BasicConcept
    rhs: BasicConcept
    negated_rhs: bool = False

    def __str__(self) -> str:
        neg = "not " if self.negated_rhs else ""
        return f"{self.lhs} [= {neg}{self.rhs}"


@dataclass(frozen=True)
class RoleInclusion:
    lhs: BasicRole
    rhs: BasicRole
    negated_rhs: bool = False

    def __str__(self) -> str:
        neg = "not " if self.negated_rhs else ""
        return f"{self.lhs} [= {neg}{self.rhs}"


TBoxAxiom = Union[ConceptInclusion, RoleInclusion]
TBox = tuple[TBoxAxiom, ...]


@dataclass(frozen=True, order=True)
class Constant:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, order=True)
class Null:
    """A labeled null; rendered with a leading underscore."""

    name: str

    def __str__(self) -> str:
        return f"_{self.name}"


Term = Union[Constant, Null]


@dataclass(frozen=True, order=True)
class Variable:
    """A query variable; only meaningful inside query atoms, never in ABoxes."""

    name: str

    def __str__(self) -> str:
        return f"?{self.name}"


@dataclass(frozen=True)
class ConceptAssertion:
    concept: BasicConcept
    term: Term

    def __str__(self) -> str:
        if isinstance(self.concept, Exists):
            return f"{self.concept} ({self.term})"
        return f"{self.concept}({self.term})"


@dataclass(frozen=True)
class RoleAssertion:
    """A role membership fact.

    Assertions over an inverted role are normalized on construction:
    ``R-(a, b)`` is stored as ``R(b, a)``, so stored values always carry a
    forward role and serialization round-trips exactly.
    """

    role: BasicRole
    first: Term
    second: Term

    def __post_init__(self) -> None:
        if self.role.inverted:
            object.__setattr__(self, "role", self.role.inverse())
            first, second = self.first, self.second
            object.__setattr__(self, "first", second)
            object.__setattr__(self, "second", first)

    def __str__(self) -> str:
        return f"{self.role}({self.first}, {self.second})"


Assertion = Union[ConceptAssertion, RoleAssertion]


@dataclass(frozen=True)
class ABox:
    """A finite set of assertions; extended iff some labeled null occurs."""

    assertions: tuple[Assertion, ...]

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


@dataclass(frozen=True)
class KnowledgeBase:
    tbox: TBox
    abox: ABox


@dataclass(frozen=True)
class Mapping:
    """A source signature, a disjoint target signature, and bridging axioms."""

    sigma1: Signature
    sigma2: Signature
    t12: TBox


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
