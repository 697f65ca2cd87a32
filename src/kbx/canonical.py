"""Canonical models: regular chase presentation, truncations, Herbrand structures.

The canonical model of a KB is in general infinite, but its anonymous part is
regular: the type of a path element depends only on its final witness class,
and edges only ever connect a path to its parent.  `CanonicalStructure` stores
that finite presentation (individuals, reachable witness classes, generating
edges and type tables); `materialize` unfolds it to any finite depth.
"""

from __future__ import annotations

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
from .reasoner import Reasoner, WitnessClass


class InconsistentKB(Exception):
    """The knowledge base admits no model."""


def positive_part(tbox: TBox) -> TBox:
    return tuple(ax for ax in tbox if not ax.negated_rhs)


def combined_tbox(*tboxes: TBox) -> TBox:
    """Union of TBoxes in canonical (sorted, deduplicated) order."""
    axioms = set()
    for t in tboxes:
        axioms.update(t)
    return tuple(sorted(axioms, key=str))


def element_label(e) -> str:
    """Stable rendering of interpretation elements (terms or witness paths)."""
    if isinstance(e, tuple):
        parts = [str(e[0])] + [f"w[{r}]" for r in e[1:]]
        return ".".join(parts)
    return str(e)


class FiniteInterpretation:
    """A finite interpretation: atomic concept and role extensions over hashables."""

    def __init__(self, elements, concept_facts, role_facts, constants):
        """Args are iterables of (name, elem) / (name, elem, elem) plus a
        Constant -> element map; extra elements may carry no facts at all."""
        self.elements: tuple = tuple(sorted(set(elements), key=element_label))
        self.concept_ext: dict[str, frozenset] = {}
        self.role_ext: dict[str, frozenset] = {}
        self.constant_elems: dict = dict(constants)
        cext: dict[str, set] = {}
        for name, e in concept_facts:
            cext.setdefault(name, set()).add(e)
        rext: dict[str, set] = {}
        self._pair_roles: dict = {}
        for name, e1, e2 in role_facts:
            rext.setdefault(name, set()).add((e1, e2))
            self._pair_roles.setdefault((e1, e2), set()).add(BasicRole(name))
            self._pair_roles.setdefault((e2, e1), set()).add(BasicRole(name, inverted=True))
        self.concept_ext = {n: frozenset(s) for n, s in cext.items()}
        self.role_ext = {n: frozenset(s) for n, s in rext.items()}
        self._types: dict = {e: set() for e in self.elements}
        for name, ext in self.concept_ext.items():
            for e in ext:
                self._types[e].add(Atomic(name))
        for (e1, _e2), roles in self._pair_roles.items():
            for r in roles:
                self._types[e1].add(Exists(r))
        self._types = {e: frozenset(t) for e, t in self._types.items()}

    def ttype(self, e, sigma: Signature | None = None) -> frozenset:
        t = self._types[e]
        if sigma is None:
            return t
        return frozenset(c for c in t if concept_over(c, sigma))

    def rtype(self, e1, e2, sigma: Signature | None = None) -> frozenset:
        roles = self._pair_roles.get((e1, e2), frozenset())
        if sigma is None:
            return frozenset(roles)
        return frozenset(r for r in roles if role_over(r, sigma))

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
        return sum(len(v) for v in self.concept_ext.values()) + sum(
            len(v) for v in self.role_ext.values()
        )


class CanonicalStructure:
    """Finite presentation of a canonical model.

    States are the ABox individuals plus the reachable witness-class
    representatives; `gen` maps each state to the classes it generates.
    """

    def __init__(self, kb: KnowledgeBase, ctx: Reasoner):
        """``ctx`` must be the context of ``kb.tbox``; `build_canonical` makes
        one when its caller has none."""
        self.kb = kb
        self.reasoner = ctx
        self.individuals: tuple[Term, ...] = tuple(kb.abox.all_terms())
        self.individual_types: dict[Term, frozenset] = ctx.term_types(kb.abox)
        self.individual_roles: dict = ctx.pair_roles(kb.abox)
        satisfied: dict[Term, set] = {t: set() for t in self.individuals}
        for (t1, _t2), roles in self.individual_roles.items():
            satisfied[t1] |= roles

        self.gen: dict = {}
        for t in self.individuals:
            cands = {c.role for c in self.individual_types[t] if isinstance(c, Exists)}
            reps = {ctx.rep_of(r) for r in ctx.minimal_roles(cands) if r not in satisfied[t]}
            self.gen[t] = tuple(sorted(reps, key=str))

        self.classes: dict[BasicRole, WitnessClass] = {}
        self.class_types: dict[BasicRole, frozenset] = {}
        self.class_edges: dict[BasicRole, frozenset] = {}
        todo = [r for t in self.individuals for r in self.gen[t]]
        while todo:
            rep = todo.pop()
            if rep in self.classes:
                continue
            self.classes[rep] = ctx.witness_class(rep)
            self.class_types[rep] = ctx.sup_concepts(Exists(rep.inverse()))
            self.class_edges[rep] = ctx.sup_roles(rep)
            self.gen[rep] = ctx.generated(rep)
            todo.extend(self.gen[rep])

    def states(self):
        return list(self.individuals) + sorted(self.classes, key=str)

    def state_type(self, state, sigma: Signature | None = None) -> frozenset:
        tp = (
            self.individual_types[state]
            if isinstance(state, (Constant, Null))
            else self.class_types[state]
        )
        if sigma is None:
            return tp
        return frozenset(c for c in tp if concept_over(c, sigma))

    def edge_roles(self, child_rep: BasicRole, sigma: Signature | None = None) -> frozenset:
        """All roles holding on a generating edge (parent, child), both orientations."""
        roles = self.class_edges.get(child_rep)
        if roles is None:  # not a class of this structure
            roles = self.reasoner.sup_roles(child_rep)
        if sigma is None:
            return roles
        return frozenset(r for r in roles if role_over(r, sigma))


def build_canonical(
    kb: KnowledgeBase, check_consistency: bool = True, reasoner: Reasoner | None = None
) -> CanonicalStructure:
    """Construct the regular presentation; raises InconsistentKB on clash.

    ``reasoner``, when given, must be the context of ``kb.tbox``; otherwise
    the structure builds its own.
    """
    if reasoner is None:
        reasoner = Reasoner(kb.tbox)
    if check_consistency and not reasoner.consistent(kb.abox):
        raise InconsistentKB("knowledge base is inconsistent")
    return CanonicalStructure(kb, reasoner)


def derives_assertion(kb: KnowledgeBase, assertion) -> bool:
    """Whether the KB entails a single membership assertion (one-shot, uncached)."""
    return Reasoner(kb.tbox).entails(kb.abox, assertion)


def ttype_at(c: CanonicalStructure, path: tuple, sigma: Signature | None = None) -> frozenset:
    """Type of a path element; depends only on the path's last component."""
    if len(path) == 1:
        return c.state_type(path[0], sigma)
    return c.state_type(path[-1], sigma)


def rtype_edge(
    c: CanonicalStructure, p1: tuple, p2: tuple, sigma: Signature | None = None
) -> frozenset:
    """Roles holding between two path elements (empty unless adjacent)."""
    if len(p1) == 1 and len(p2) == 1:
        roles = c.individual_roles.get((p1[0], p2[0]), frozenset())
        if sigma is None:
            return roles
        return frozenset(r for r in roles if role_over(r, sigma))
    if len(p2) == len(p1) + 1 and p2[:-1] == p1:
        return c.edge_roles(p2[-1], sigma)
    if len(p1) == len(p2) + 1 and p1[:-1] == p2:
        return frozenset(r.inverse() for r in c.edge_roles(p1[-1], sigma))
    return frozenset()


def materialize(c: CanonicalStructure, depth: int) -> FiniteInterpretation:
    """Finite truncation: all paths with at most `depth` witness steps."""
    paths: list[tuple] = [(t,) for t in c.individuals]
    frontier = list(paths)
    for _ in range(depth):
        nxt = []
        for p in frontier:
            state = p[-1] if len(p) > 1 else p[0]
            for rep in c.gen[state]:
                nxt.append(p + (rep,))
        paths.extend(nxt)
        frontier = nxt
        if not frontier:
            break
    path_set = set(paths)
    concept_facts = []
    role_facts = []
    for p in paths:
        tp = ttype_at(c, p)
        for b in tp:
            if isinstance(b, Atomic):
                concept_facts.append((b.name, p))
    for (t1, t2), roles in c.individual_roles.items():
        for r in roles:
            if not r.inverted:
                role_facts.append((r.name, (t1,), (t2,)))
    for p in paths:
        if len(p) > 1 and p[:-1] in path_set:
            parent = p[:-1]
            for r in c.edge_roles(p[-1]):
                if not r.inverted:
                    role_facts.append((r.name, parent, p))
                else:
                    role_facts.append((r.name, p, parent))
    constants = {t: (t,) for t in c.individuals if isinstance(t, Constant)}
    return FiniteInterpretation(paths, concept_facts, role_facts, constants)


def build_vabox(abox: ABox) -> FiniteInterpretation:
    """Herbrand structure of an ABox.

    Existential assertions are first normalized away by introducing a fresh
    labeled null as the required successor (the successor is a null, so this
    stays within extended-ABox semantics).
    """
    used = {t.name for t in abox.all_terms() if isinstance(t, Null)}
    counter = 0

    def fresh() -> Null:
        nonlocal counter
        while True:
            counter += 1
            name = f"v{counter}"
            if name not in used:
                used.add(name)
                return Null(name)

    elements = list(abox.all_terms())
    concept_facts = []
    role_facts = []
    for a in abox.assertions:
        if isinstance(a, ConceptAssertion):
            if isinstance(a.concept, Atomic):
                concept_facts.append((a.concept.name, a.term))
            else:
                succ = fresh()
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
