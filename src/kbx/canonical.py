"""Canonical models: regular chase presentation, truncations, Herbrand structures.

The canonical model of a KB is in general infinite, but its anonymous part is
regular: the type of a path element depends only on its final witness class,
and edges only ever connect a path to its parent.  `CanonicalStructure` stores
that finite presentation (individuals, reachable witness classes, generating
edges and type tables); `materialize` unfolds it to any finite depth, and
`truncation` does the same over a signature, with int anonymous elements.
"""

from __future__ import annotations

from itertools import count

from .model import (
    ABox,
    Atomic,
    BasicRole,
    ConceptAssertion,
    Constant,
    Exists,
    KnowledgeBase,
    Null,
    RoleAssertion,
    Signature,
    TBox,
    Term,
    concept_over,
    role_over,
)
from .reasoner import Reasoner


class InconsistentKB(Exception):
    """The knowledge base admits no model."""


def positive_part(tbox: TBox) -> TBox:
    return tuple(ax for ax in tbox if not ax.negated_rhs)


def combined_tbox(*tboxes: TBox) -> TBox:
    """Union of TBoxes in canonical (sorted, deduplicated) order."""
    return tuple(sorted(set().union(*tboxes), key=str))


def element_label(e) -> str:
    """Stable rendering of interpretation elements (terms or witness paths).

    A path is a plain tuple; terms are records, which are tuples too."""
    if type(e) is tuple:
        return ".".join([str(e[0])] + [f"w[{r}]" for r in e[1:]])
    return str(e)


class FiniteInterpretation:
    """A finite interpretation: atomic concept and role extensions over hashables.

    Elements with equal types, and element pairs with equal roles, are built
    sharing one frozenset, which ``drop`` and ``restore`` rebind and never
    mutate; each distinct set is filtered once per signature."""

    def __init__(self, elements, concept_facts, role_facts, constants):
        """Args are iterables of (name, elem) / (name, elem, elem) plus a
        Constant -> element map; extra elements may carry no facts at all."""
        self.elements: tuple = tuple(sorted(set(elements), key=element_label))
        self.constant_elems: dict = dict(constants)
        self.concept_ext: dict[str, set] = {}
        for name, e in concept_facts:
            self.concept_ext.setdefault(name, set()).add(e)
        self.role_ext: dict[str, set] = {}
        for name, e1, e2 in role_facts:
            self.role_ext.setdefault(name, set()).add((e1, e2))
        types: dict = {e: set() for e in self.elements}
        for name, ext in self.concept_ext.items():
            a = Atomic(name)
            for e in ext:
                types[e].add(a)
        # element -> neighbour -> roles from the element to the neighbour
        self._links: dict = {}
        plus: dict = {}  # (role set, role) -> the set with the role, kept once
        for name, ext in self.role_ext.items():
            r, inv = BasicRole(name), BasicRole(name, inverted=True)
            out, back = Exists(r), Exists(inv)
            for e1, e2 in ext:
                for x, y, q in ((e1, e2, r), (e2, e1, inv)):
                    links = self._links.setdefault(x, {})
                    old = links.get(y, frozenset())
                    links[y] = plus.get((old, q)) or plus.setdefault((old, q), old | {q})
                types[e1].add(out)
                types[e2].add(back)
        shared: dict = {}  # each distinct type, kept once
        self._types = {e: shared.setdefault(tp := frozenset(t), tp) for e, t in types.items()}
        self._over: dict = {}  # (set, signature) -> its members over the signature

    def ttype(self, e, sigma: Signature | None = None) -> frozenset:
        return self._filter(self._types[e], sigma, concept_over)

    def rtype(self, e1, e2, sigma: Signature | None = None) -> frozenset:
        return self._filter(self._links.get(e1, {}).get(e2, frozenset()), sigma, role_over)

    def _filter(self, items: frozenset, sigma: Signature | None, over) -> frozenset:
        if sigma is None:
            return items
        got = self._over.get((items, sigma))
        if got is None:
            got = self._over[items, sigma] = frozenset(x for x in items if over(x, sigma))
        return got

    def neighbours(self, e):
        """The elements that share a role fact with ``e``."""
        return self._links.get(e, {}).keys()

    def drop(self, fact) -> None:
        """Take the concept fact ``(name, e)`` or role fact ``(name, e1, e2)``
        out of the structure, in place; ``restore`` puts it back.  An element
        that loses its last fact stays, fact-free."""
        name, *ends = fact
        ext = self.concept_ext if len(ends) == 1 else self.role_ext
        ext[name].discard(ends[0] if len(ends) == 1 else tuple(ends))
        if not ext[name]:
            del ext[name]
        if len(ends) == 1:
            self._types[ends[0]] -= {Atomic(name)}
            return
        e1, e2 = ends
        for x, y, r in ((e1, e2, BasicRole(name)), (e2, e1, BasicRole(name, inverted=True))):
            links = self._links[x]
            if rest := links[y] - {r}:
                links[y] = rest
            else:
                del links[y]
            if not any(r in roles for roles in links.values()):
                self._types[x] -= {Exists(r)}

    def restore(self, fact) -> None:
        """Put back a fact that ``drop`` took out."""
        name, *ends = fact
        if len(ends) == 1:
            self.concept_ext.setdefault(name, set()).add(ends[0])
            self._types[ends[0]] |= {Atomic(name)}
            return
        e1, e2 = ends
        self.role_ext.setdefault(name, set()).add((e1, e2))
        for x, y, r in ((e1, e2, BasicRole(name)), (e2, e1, BasicRole(name, inverted=True))):
            links = self._links.setdefault(x, {})
            links[y] = links.get(y, frozenset()) | {r}
            self._types[x] |= {Exists(r)}

    def concept_facts(self):
        for name in sorted(self.concept_ext):
            for e in sorted(self.concept_ext[name], key=element_label):
                yield name, e

    def role_facts(self):
        for name in sorted(self.role_ext):
            for e1, e2 in sorted(
                self.role_ext[name], key=lambda p: (element_label(p[0]), element_label(p[1]))
            ):
                yield name, e1, e2

    def fact_count(self) -> int:
        return sum(map(len, self.concept_ext.values())) + sum(map(len, self.role_ext.values()))


class CanonicalStructure:
    """Finite presentation of a canonical model.

    States are the ABox individuals plus the reachable witness-class
    representatives; `gen` maps each state to the classes it generates, as
    the context's `children` and `generated` give them.
    """

    def __init__(self, kb: KnowledgeBase, ctx: Reasoner):
        """``ctx`` must be the context of ``kb.tbox``; `build_canonical` makes
        one when its caller has none."""
        self.reasoner = ctx
        self.individuals: tuple[Term, ...] = tuple(kb.abox.all_terms())
        self.individual_types: dict[Term, frozenset] = ctx.term_types(kb.abox)
        self.individual_roles: dict = ctx.pair_roles(kb.abox)
        satisfied: dict[Term, set] = {t: set() for t in self.individuals}
        for (t1, _t2), roles in self.individual_roles.items():
            satisfied[t1] |= roles

        self.gen: dict = {
            t: ctx.children(self.individual_types[t], frozenset(satisfied[t]))
            for t in self.individuals
        }

        self.class_types: dict[BasicRole, frozenset] = {}
        self.class_edges: dict[BasicRole, frozenset] = {}
        todo = [r for t in self.individuals for r in self.gen[t]]
        while todo:
            rep = todo.pop()
            if rep in self.class_types:
                continue
            self.class_types[rep] = ctx.class_type(rep)
            self.class_edges[rep] = ctx.sup(rep)
            self.gen[rep] = ctx.generated(rep)
            todo.extend(self.gen[rep])
        # The reachable classes' representatives, in the order they were found.
        self.classes = self.class_types.keys()
        self.parents: dict = {}  # class -> the states that generate it
        for s, children in self.gen.items():
            for child in children:
                self.parents.setdefault(child, set()).add(s)
        self._over: dict = {}

    def states(self):
        return list(self.individuals) + sorted(self.classes, key=str)

    def state_type(self, state, sigma: Signature | None = None) -> frozenset:
        types = self.individual_types if isinstance(state, (Constant, Null)) else self.class_types
        tp = types[state]
        if sigma is None:
            return tp
        return frozenset(c for c in tp if concept_over(c, sigma))

    def over(self, sigma: Signature | None) -> tuple[dict, dict]:
        """Every state's ``state_type`` and every class's ``edge_roles`` over
        ``sigma``, built on the first call for that signature; states with
        one type share its filtered set."""
        got = self._over.get(sigma)
        if got is None:
            types = {**self.individual_types, **self.class_types}
            filtered = {
                tp: tp if sigma is None else frozenset(c for c in tp if concept_over(c, sigma))
                for tp in set(types.values())
            }
            got = self._over[sigma] = (
                {s: filtered[types[s]] for s in self.gen},
                {rep: self.edge_roles(rep, sigma) for rep in self.classes},
            )
        return got

    def edge_roles(self, child_rep: BasicRole, sigma: Signature | None = None) -> frozenset:
        """All roles holding from parent to child on a generating edge into
        the class ``child_rep`` of this structure; their inverses hold from
        child to parent."""
        roles = self.class_edges[child_rep]
        if sigma is None:
            return roles
        return frozenset(r for r in roles if role_over(r, sigma))


def build_canonical(kb: KnowledgeBase, check_consistency: bool = True) -> CanonicalStructure:
    """Construct the regular presentation in a context of its own; raises
    InconsistentKB on clash.  A caller that holds the context of ``kb.tbox``
    builds ``CanonicalStructure(kb, ctx)`` instead."""
    ctx = Reasoner(kb.tbox)
    if check_consistency and not ctx.consistent(kb.abox):
        raise InconsistentKB("knowledge base is inconsistent")
    return CanonicalStructure(kb, ctx)


def rtype_edge(c: CanonicalStructure, p1: tuple, p2: tuple) -> frozenset:
    """Roles holding between two path elements (empty unless adjacent)."""
    if len(p1) == 1 and len(p2) == 1:
        return c.individual_roles.get((p1[0], p2[0]), frozenset())
    if len(p2) == len(p1) + 1 and p2[:-1] == p1:
        return c.edge_roles(p2[-1])
    if len(p1) == len(p2) + 1 and p1[:-1] == p2:
        return frozenset(r.inverse() for r in c.edge_roles(p1[-1]))
    return frozenset()


def _unfold(c: CanonicalStructure, depth: int, sigma: Signature | None, elem) -> tuple:
    """The elements of all paths with at most ``depth`` witness steps, with
    their concept facts ``(name, e)`` and role facts ``(name, e1, e2)`` over
    ``sigma`` (None: over every name).

    The paths are numbered breadth-first, the individuals first; path i is
    the element ``elem(i, parent, state)``, given its parent's element (None
    for an individual) and its last state.
    """
    states: list = list(c.individuals)
    elems = [elem(i, None, t) for i, t in enumerate(states)]
    first = dict(zip(states, elems))
    role_facts = [
        (r.name, first[t1], first[t2])
        for (t1, t2), roles in c.individual_roles.items()
        for r in roles
        if not r.inverted and (sigma is None or role_over(r, sigma))
    ]
    types, need = c.over(sigma)
    names = {s: [b.name for b in tp if isinstance(b, Atomic)] for s, tp in types.items()}
    edges = {rep: [(r.name, r.inverted) for r in roles] for rep, roles in need.items()}
    start = 0
    for _ in range(depth):
        end = len(states)
        for i in range(start, end):
            for rep in c.gen[states[i]]:
                e = elem(len(states), elems[i], rep)
                states.append(rep)
                elems.append(e)
                role_facts += [
                    (n, e, elems[i]) if inverted else (n, elems[i], e)
                    for n, inverted in edges[rep]
                ]
        start = end
    concept_facts = [(n, e) for s, e in zip(states, elems) for n in names[s]]
    return elems, concept_facts, role_facts


def materialize(c: CanonicalStructure, depth: int) -> FiniteInterpretation:
    """Finite truncation: all paths with at most `depth` witness steps."""
    elems, concept_facts, role_facts = _unfold(
        c, depth, None, lambda i, parent, state: (state,) if parent is None else parent + (state,)
    )
    constants = {t: (t,) for t in c.individuals if isinstance(t, Constant)}
    return FiniteInterpretation(elems, concept_facts, role_facts, constants)


def truncation(c: CanonicalStructure, depth: int, sigma: Signature) -> FiniteInterpretation:
    """The facts over ``sigma`` of ``materialize(c, depth)`` on exactly the
    elements that carry one, each individual as its own term and each
    anonymous path as the int of its breadth-first index: up to that
    renaming, the Herbrand structure of the ABox that ``materialize(c,
    depth)`` reads as over ``sigma``."""
    _, concept_facts, role_facts = _unfold(
        c, depth, sigma, lambda i, parent, state: state if parent is None else i
    )
    used = {e for _, e in concept_facts} | {e for _, e1, e2 in role_facts for e in (e1, e2)}
    constants = {t: t for t in c.individuals if isinstance(t, Constant) and t in used}
    return FiniteInterpretation(used, concept_facts, role_facts, constants)


def _fresh_names(prefix: str, taken):
    """``prefix1``, ``prefix2``, ... in order, skipping the names in ``taken``."""
    return (name for name in (f"{prefix}{k}" for k in count(1)) if name not in taken)


def build_vabox(abox: ABox) -> FiniteInterpretation:
    """Herbrand structure of an ABox.

    Existential assertions are first normalized away by introducing a fresh
    labeled null as the required successor (the successor is a null, so this
    stays within extended-ABox semantics).
    """
    elements = abox.all_terms()
    used = {t.name for t in elements if isinstance(t, Null)}
    fresh = map(Null, _fresh_names("v", used))
    concept_facts = []
    role_facts = []
    for a in abox.assertions:
        if isinstance(a, ConceptAssertion):
            if isinstance(a.concept, Atomic):
                concept_facts.append((a.concept.name, a.term))
            else:
                succ = next(fresh)
                elements.append(succ)
                role = a.concept.role
                if role.inverted:
                    role_facts.append((role.name, succ, a.term))
                else:
                    role_facts.append((role.name, a.term, succ))
        else:
            role_facts.append((a.role.name, a.first, a.second))
    constants = {t: t for t in elements if isinstance(t, Constant)}
    return FiniteInterpretation(elements, concept_facts, role_facts, constants)


def closure_abox(
    kb1: KnowledgeBase, t12: TBox, sigma2: Signature, reasoner: Reasoner | None = None
) -> ABox:
    """All target-signature facts over the source individuals entailed by the
    positive part of the combined KB (existential concept facts included).

    One pass: the entailed concepts of each term and the entailed roles of
    each asserted pair, filtered to the target signature.  ``reasoner``, when
    given, must be the context of the combined TBox; its negated axioms do
    not matter, since closures read only the positive ones.
    """
    if reasoner is None:
        reasoner = Reasoner(positive_part(combined_tbox(kb1.tbox, t12)))
    facts: list = [
        ConceptAssertion(b, t)
        for t, types in reasoner.term_types(kb1.abox).items()
        for b in types
        if concept_over(b, sigma2)
    ]
    facts += [
        RoleAssertion(r, t1, t2)
        for (t1, t2), roles in reasoner.pair_roles(kb1.abox).items()
        for r in roles
        if not r.inverted and role_over(r, sigma2)
    ]
    return ABox.make(facts)
