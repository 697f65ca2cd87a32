"""Core syntactic objects: signatures, roles, concepts, axioms, ABoxes, KBs, mappings.

Everything here is an immutable `Record`: a tuple of its fields with
structural equality, hashed and built in C.  The vocabulary records
`Atomic`, `BasicRole` and `Exists` are interned: building one returns the
object already made for equal fields, so set and dict lookups between
records built by different modules (the parser, the reasoner, the
interpretations) succeed on identity in C, without a Python ``__eq__``.
Each interning table is cleared when it reaches `INTERN_LIMIT` entries, so
two equal records need not be the same object: equality stays structural,
and no code may compare records with ``is``.  Rendering methods produce the
concrete text syntax understood by the parser in `kbx.syntax`; the parser
and serializer rely on them being exact.
"""

from __future__ import annotations

from collections import _tuplegetter
from typing import Iterable, Iterator, Union

_new = tuple.__new__
_eq = tuple.__eq__
_ne = tuple.__ne__

INTERN_LIMIT = 65536  # entries per interning table; a full table is cleared
# The interning tables: name -> Atomic, (name, inverted) -> BasicRole,
# role -> Exists.
_atomics: dict = {}
_roles: dict = {}
_exists: dict = {}


def _intern(table: dict, key, record):
    """Store ``record`` as the one object for ``key`` and return it."""
    if len(table) >= INTERN_LIMIT:
        table.clear()
    table[key] = record
    return record


def _compare(op, symbol):
    """An order on records of one class: their field tuples' order."""

    def compare(self, other):
        if other.__class__ is self.__class__:
            return op(self, other)
        raise TypeError(f"'{symbol}' not supported between instances of "
                        f"'{type(self).__name__}' and '{type(other).__name__}'")

    return compare


class Record(tuple):
    """An immutable value: a tuple of the fields named by its class keyword
    ``fields``, each read by name through a C descriptor.

    Every subclass declares ``__slots__ = ()``.  A record hashes, and records
    of one class compare and order, as their field tuples do; a record never
    equals a record of another class or a plain tuple, and is true even with
    no fields.  The repr reads ``Name(field=value, ...)``.  A class without its own
    ``__new__`` takes every field, in order or by name; one with defaults or
    a normal form writes a ``__new__`` that returns
    ``tuple.__new__(cls, fields)``.  `Atomic`, `BasicRole` and `Exists`
    intern: their ``__new__`` returns the record in a bounded per-class table
    when there is one.  That only speeds lookups up; equality, hashing,
    order, repr and pickling stay structural, so never compare with ``is``.
    """

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls, fields: tuple = ()) -> None:
        cls._fields = fields
        for i, name in enumerate(fields):
            setattr(cls, name, _tuplegetter(i, None))
        if "__new__" not in cls.__dict__:  # as namedtuple does: one parameter per field
            args = "".join(f"{name}, " for name in fields)
            cls.__new__ = staticmethod(eval(f"lambda cls, {args}: _new(cls, ({args}))"))

    # Spelled out (every set and dict lookup runs them), with ``_eq`` and
    # ``_ne`` bound at module level: the cheapest spelling measured.
    def __eq__(self, other):
        return other.__class__ is self.__class__ and _eq(self, other)

    def __ne__(self, other):
        return other.__class__ is not self.__class__ or _ne(self, other)

    __hash__ = tuple.__hash__
    __lt__ = _compare(tuple.__lt__, "<")
    __le__ = _compare(tuple.__le__, "<=")
    __gt__ = _compare(tuple.__gt__, ">")
    __ge__ = _compare(tuple.__ge__, ">=")

    def __bool__(self) -> bool:
        return True

    def __reduce__(self):
        return self.__class__, tuple(self)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self))
        return f"{type(self).__qualname__}({fields})"


class Signature(Record, fields=("concepts", "roles")):
    """A finite set of concept names plus a disjoint finite set of role names."""

    __slots__ = ()

    def __new__(
        cls, concepts: frozenset[str] = frozenset(), roles: frozenset[str] = frozenset()
    ):
        overlap = concepts & roles
        if overlap:
            raise ValueError(f"names used as both concept and role: {sorted(overlap)}")
        return _new(cls, (concepts, roles))

    @staticmethod
    def make(concepts: Iterable[str] = (), roles: Iterable[str] = ()) -> "Signature":
        return Signature(frozenset(concepts), frozenset(roles))

    def union(self, other: "Signature") -> "Signature":
        return Signature(self.concepts | other.concepts, self.roles | other.roles)


class BasicRole(Record, fields=("name", "inverted")):
    """A role name or its inverse (``P`` or ``P-``)."""

    __slots__ = ()

    def __new__(cls, name: str, inverted: bool = False):
        key = (name, inverted)
        try:
            return _roles[key]
        except KeyError:
            return _intern(_roles, key, _new(cls, key))

    def inverse(self) -> "BasicRole":
        return BasicRole(self.name, not self.inverted)

    def __str__(self) -> str:
        return self.name + ("-" if self.inverted else "")


class Atomic(Record, fields=("name",)):
    """A concept name used as a basic concept."""

    __slots__ = ()

    def __new__(cls, name: str):
        try:
            return _atomics[name]
        except KeyError:
            return _intern(_atomics, name, _new(cls, (name,)))

    def __str__(self) -> str:
        return self.name


class Exists(Record, fields=("role",)):
    """Existential restriction over a basic role (``exists R``)."""

    __slots__ = ()

    def __new__(cls, role: BasicRole):
        try:
            return _exists[role]
        except KeyError:
            return _intern(_exists, role, _new(cls, (role,)))

    def __str__(self) -> str:
        return f"exists {self.role}"


BasicConcept = Union[Atomic, Exists]


class ConceptInclusion(Record, fields=("lhs", "rhs", "negated_rhs")):
    __slots__ = ()

    def __new__(cls, lhs: BasicConcept, rhs: BasicConcept, negated_rhs: bool = False):
        return _new(cls, (lhs, rhs, negated_rhs))

    def __str__(self) -> str:
        neg = "not " if self.negated_rhs else ""
        return f"{self.lhs} [= {neg}{self.rhs}"


class RoleInclusion(Record, fields=("lhs", "rhs", "negated_rhs")):
    __slots__ = ()

    def __new__(cls, lhs: BasicRole, rhs: BasicRole, negated_rhs: bool = False):
        return _new(cls, (lhs, rhs, negated_rhs))

    def __str__(self) -> str:
        neg = "not " if self.negated_rhs else ""
        return f"{self.lhs} [= {neg}{self.rhs}"


TBoxAxiom = Union[ConceptInclusion, RoleInclusion]
TBox = tuple[TBoxAxiom, ...]


class Constant(Record, fields=("name",)):
    __slots__ = ()

    def __str__(self) -> str:
        return self.name


class Null(Record, fields=("name",)):
    """A labeled null; rendered with a leading underscore."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"_{self.name}"


Term = Union[Constant, Null]


class Variable(Record, fields=("name",)):
    """A query variable; only meaningful inside query atoms, never in ABoxes."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"?{self.name}"


class ConceptAssertion(Record, fields=("concept", "term")):
    __slots__ = ()

    def __str__(self) -> str:
        if isinstance(self.concept, Exists):
            return f"{self.concept} ({self.term})"
        return f"{self.concept}({self.term})"


class RoleAssertion(Record, fields=("role", "first", "second")):
    """A role membership fact.

    Assertions over an inverted role are normalized on construction:
    ``R-(a, b)`` is stored as ``R(b, a)``, so stored values always carry a
    forward role and serialization round-trips exactly.
    """

    __slots__ = ()

    def __new__(cls, role: BasicRole, first: Term, second: Term):
        if role.inverted:
            role, first, second = role.inverse(), second, first
        return _new(cls, (role, first, second))

    def __str__(self) -> str:
        return f"{self.role}({self.first}, {self.second})"


Assertion = Union[ConceptAssertion, RoleAssertion]


class ABox(Record, fields=("assertions",)):
    """A finite set of assertions; extended iff some labeled null occurs."""

    __slots__ = ()

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

    def all_terms(self) -> list[Term]:
        out: dict[Term, None] = {}
        for t in self.terms():
            out.setdefault(t, None)
        return sorted(out, key=str)


EMPTY_ABOX = ABox(())


class KnowledgeBase(Record, fields=("tbox", "abox")):
    __slots__ = ()


class Mapping(Record, fields=("sigma1", "sigma2", "t12")):
    """A source signature, a disjoint target signature, and bridging axioms."""

    __slots__ = ()


def concept_over(c: BasicConcept, sig: Signature) -> bool:
    if isinstance(c, Atomic):
        return c.name in sig.concepts
    return c.role.name in sig.roles


def role_over(r: BasicRole, sig: Signature) -> bool:
    return r.name in sig.roles


def signature_of(x: Union[TBox, tuple, KnowledgeBase]) -> Signature:
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

    if isinstance(x, KnowledgeBase):
        see_axioms(x.tbox)
        for a in x.abox.assertions:
            if isinstance(a, ConceptAssertion):
                see_concept(a.concept)
            else:
                roles.add(a.role.name)
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
        over = concept_over if isinstance(ax, ConceptInclusion) else role_over
        if not over(ax.lhs, m.sigma1):
            violations.append(f"axiom '{ax}': left side not over the source signature")
        if not over(ax.rhs, m.sigma2):
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
