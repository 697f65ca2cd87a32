"""Deciding whether a target TBox faithfully stands in for a source TBox.

Given a mapping between two disjoint vocabularies, a target TBox *represents*
a source TBox when, over every source data set, querying the translated data
under the target TBox guarantees exactly the same target-vocabulary answers
as the source TBox and mapping guarantee directly.  This module checks a
candidate target TBox for that property, decides whether any representing
TBox exists, and builds one when possible.

A failed candidate check comes with a concrete counterexample: a source data
set and a target query on which the two sides disagree.
"""

from collections import deque
from itertools import combinations_with_replacement, product
from typing import Optional

from .canonical import CanonicalStructure, build_canonical, combined_tbox, positive_part
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
    Record,
    RoleAssertion,
    RoleInclusion,
    Signature,
    TBox,
    Variable,
    all_basic_concepts,
    all_basic_roles,
    signature_of,
    validate_mapping,
)
from .reasoner import Reasoner


class PreconditionViolated(Exception):
    """An operation was invoked outside its stated precondition."""


class InstanceQuery(Record, fields=("concept_atoms", "role_atoms")):
    """A conjunctive query with constants and at most one existential variable.

    Concept atoms pair a basic concept with a term; an existential concept in
    an atom asks the term to have some outgoing edge of that role.  Role
    atoms pair a basic role with two terms.
    """

    __slots__ = ()

    def variables(self) -> list:
        seen: dict = {}
        for _, t in self.concept_atoms:
            if isinstance(t, Variable):
                seen.setdefault(t, None)
        for _, t1, t2 in self.role_atoms:
            for t in (t1, t2):
                if isinstance(t, Variable):
                    seen.setdefault(t, None)
        return sorted(seen, key=str)

    def __str__(self) -> str:
        parts = [f"{c}({t})" for c, t in self.concept_atoms]
        parts.extend(f"{r}({t1}, {t2})" for r, t1, t2 in self.role_atoms)
        body = " & ".join(parts) if parts else "true"
        vs = self.variables()
        if vs:
            return "exists " + ", ".join(str(v) for v in vs) + " . " + body
        return body


class Counterexample(Record, fields=("abox", "query", "reason")):
    """Source data and a target query on which the two sides disagree."""

    __slots__ = ()

    def __str__(self) -> str:
        facts = ", ".join(str(a) for a in self.abox.assertions)
        return f"data {{{facts}}}, query {self.query}: {self.reason}"


class RepresentationVerdict(Record, fields=("answer", "counterexample", "tbox", "reason")):
    __slots__ = ()

    def __new__(
        cls,
        answer: str,  # "yes" or "no"
        counterexample: Optional[Counterexample] = None,
        tbox: Optional[TBox] = None,
        reason: Optional[str] = None,
    ):
        return tuple.__new__(cls, (answer, counterexample, tbox, reason))


_PROBE = Constant("o")

# Deterministic constant pool for counterexample data and query probes; the
# query constants never occur in the data, which is what makes a certain
# answer on them impossible for a satisfiable theory.
_A = Constant("a")
_B = Constant("b")
_W0 = Constant("w0")
_W1 = Constant("w1")
_FRESH0 = Constant("c0")
_FRESH1 = Constant("c1")
_Y = Variable("y")


def _require_valid(mapping: Mapping, t1: TBox, t2: Optional[TBox]) -> None:
    problems = validate_mapping(mapping)
    s1 = mapping.sigma1
    s2 = mapping.sigma2
    sig1 = signature_of(t1)
    if (sig1.concepts & s2.concepts) or (sig1.roles & s2.roles):
        problems.append("source TBox mentions target names")
    if t2 is not None:
        sig2 = signature_of(t2)
        if (sig2.concepts & s1.concepts) or (sig2.roles & s1.roles):
            problems.append("candidate target TBox mentions source names")
    if problems:
        raise PreconditionViolated("; ".join(problems))


class _Kind(Record, fields=("names", "sources", "sat", "live", "axiom")):
    """Basic concepts or basic roles: the terms of that kind on either side,
    and how to join two of them.

    ``names`` and ``sources`` list every basic term of this kind over the
    target and over the source signature, ``sat`` the set of sources that are
    consistent with the source TBox, and ``live`` those consistent with it
    plus the mapping.  ``axiom`` is ConceptInclusion or RoleInclusion.
    """

    __slots__ = ()


class _Decision:
    """Everything one representability decision reasons with: a context for
    each TBox involved, compiled once, the canonical probes built from them,
    and the safety verdicts found so far.  It lives for one decision only.

    The source side has three contexts: the source TBox ``t1``, the mapping
    ``t12`` and their union ``comb``.  A candidate ``t2`` adds one target
    context ``tgt``, of ``t2`` plus the positive mapping axioms, which gives
    the target side's derivations, probes and satisfiability.
    """

    def __init__(self, mapping: Mapping, t1: TBox, t2: Optional[TBox] = None):
        t12 = mapping.t12
        src_sig = mapping.sigma1.union(signature_of(t1))
        self.tgt_sig = mapping.sigma2
        self.t1 = Reasoner(t1)
        self.t12 = Reasoner(t12)
        self.comb = comb = Reasoner(combined_tbox(t1, t12))
        if t2 is not None:
            self.tgt_sig = self.tgt_sig.union(signature_of(t2))
            # Negated mapping axioms only constrain source-side facts, so they
            # can never fire on translated data; satisfiability on the target
            # side is therefore measured against t2 plus the positive mapping
            # axioms.  Closures read only positive axioms, so derivations and
            # probes are the same as under t2 plus the whole mapping.
            self.tgt = Reasoner(combined_tbox(t2, positive_part(t12)))
        self._probes: dict = {}
        self._safe: dict = {}

        def kind(names, sources, axiom) -> _Kind:
            sat = frozenset(b for b in sources if self.t1.pair_consistent(b, b))
            live = [b for b in sources if comb.pair_consistent(b, b)]
            return _Kind(names, sources, sat, live, axiom)

        self.concepts = kind(
            all_basic_concepts(self.tgt_sig), all_basic_concepts(src_sig), ConceptInclusion
        )
        self.roles = kind(all_basic_roles(self.tgt_sig), all_basic_roles(src_sig), RoleInclusion)

    def probe(self, ctx: Reasoner, concept: BasicConcept) -> CanonicalStructure:
        """Canonical structure of ``ctx``'s TBox over the single fact ``concept(o)``."""
        key = (ctx, concept)
        got = self._probes.get(key)
        if got is None:
            kb = KnowledgeBase(ctx.tbox, ABox.make([ConceptAssertion(concept, _PROBE)]))
            got = self._probes[key] = build_canonical(kb, check_consistency=False, reasoner=ctx)
        return got

    def safe(self, check, kind: _Kind, lhs, rhs) -> bool:
        """``check(self, kind, lhs, rhs)``, one of the safety checks below, memoized."""
        key = (check, lhs, rhs)
        got = self._safe.get(key)
        if got is None:
            got = self._safe[key] = check(self, kind, lhs, rhs)
        return got


# ---------------------------------------------------------------------------
# Safety of a single target axiom over all translated source data.
#
# An axiom between target terms is *safe* when adding it to a target TBox can
# never produce facts (or clashes) on translated source data that the source
# theory did not already guarantee.  Quantifiers over sources are set algebra
# on sub(x), the terms deriving x under source TBox plus mapping, as b [= x iff
# b in sub(x): lhs [= rhs needs (sub(lhs) - sub(rhs)) & sat empty (no
# satisfiable b [= lhs misses rhs); lhs [= not rhs, no consistent {b, c} in
# sub(lhs) x sub(rhs).  Both then check canonical data's generated neighbors.
# ---------------------------------------------------------------------------


def _inclusion_safe(d: _Decision, kind: _Kind, lhs, rhs) -> bool:
    if lhs == rhs:
        return True
    comb = d.comb
    if (comb.sub(lhs) - comb.sub(rhs)) & kind.sat:
        return False
    if kind is d.roles:
        # A role inclusion also moves the existentials at both ends.
        return d.safe(_inclusion_safe, d.concepts, Exists(lhs), Exists(rhs)) and d.safe(
            _inclusion_safe, d.concepts, Exists(lhs.inverse()), Exists(rhs.inverse())
        )
    if isinstance(lhs, Exists):
        # The lhs can also fire at a fresh witness created for an incoming
        # edge of its role; that witness must then already carry the rhs.
        back = lhs.role.inverse()
        for b in kind.live:
            if b not in comb.sub(Exists(back)):
                continue
            probe = d.probe(comb, b)
            if not any(
                back in probe.edge_roles(rep) and rhs in probe.state_type(rep)
                for rep in probe.gen[_PROBE]
            ):
                return False
    return True


def _disjointness_safe(d: _Decision, kind: _Kind, lhs, rhs) -> bool:
    comb = d.comb
    below_lhs, below_rhs = comb.sub(lhs), comb.sub(rhs)
    for b, c in product(kind.sources, repeat=2):
        if b in below_lhs and c in below_rhs and comb.pair_consistent(b, c):
            return False
    # Nor may the two meet at, or on the edge to, a generated neighbor.
    for b in d.concepts.live:
        probe = d.probe(comb, b)
        for rep in probe.gen[_PROBE]:
            if kind is d.concepts:
                meet = {lhs, rhs} <= probe.state_type(rep)
            else:
                rt = probe.edge_roles(rep)
                meet = {lhs, rhs} <= rt or {lhs.inverse(), rhs.inverse()} <= rt
            if meet:
                return False
    return True


# ---------------------------------------------------------------------------
# Counterexample assembly.
# ---------------------------------------------------------------------------


def _realize(term, fresh: Constant) -> list:
    """Plain facts putting ``a`` into a basic concept, reaching out to
    ``fresh`` for an existential one, or ``(a, b)`` into a basic role."""
    if isinstance(term, BasicRole):
        return [RoleAssertion(term, _A, _B)]
    if isinstance(term, Atomic):
        return [ConceptAssertion(term, _A)]
    return [RoleAssertion(term.role, _A, fresh)]


def _member_query(term) -> InstanceQuery:
    """The query asking ``a`` to be in a basic concept, or ``(a, b)`` in a basic role."""
    if isinstance(term, BasicRole):
        return InstanceQuery((), ((term, _A, _B),))
    if isinstance(term, Atomic):
        return InstanceQuery(((term, _A),), ())
    return InstanceQuery((), ((term.role, _A, _Y),))


def _fresh_probe(tgt_sig: Signature) -> InstanceQuery:
    """The least target fact over constants that appear nowhere in the data."""
    names = sorted(tgt_sig.concepts)
    if names:
        return InstanceQuery(((Atomic(names[0]), _FRESH0),), ())
    rnames = sorted(tgt_sig.roles)
    return InstanceQuery((), ((BasicRole(rnames[0]), _FRESH0, _FRESH1),))


def _neighbor_query(need_t: frozenset, need_r: frozenset) -> InstanceQuery:
    concept_atoms = tuple((c, _Y) for c in sorted(need_t, key=str))
    role_atoms = tuple((r, _A, _Y) for r in sorted(need_r, key=str))
    return InstanceQuery(concept_atoms, role_atoms)


# ---------------------------------------------------------------------------
# Membership: does a given target TBox represent the source TBox?
# ---------------------------------------------------------------------------


def is_ucq_representation(mapping: Mapping, t1: TBox, t2: TBox) -> RepresentationVerdict:
    """Decide whether ``t2`` represents ``t1`` under the mapping.

    A ``no`` verdict carries source data together with a target query that is
    guaranteed by one side but not the other.
    """
    _require_valid(mapping, t1, t2)
    d = _Decision(mapping, t1, t2)
    comb, tgt, tgt_sig = d.comb, d.tgt, d.tgt_sig

    def no(data: list, query: InstanceQuery, reason: str) -> RepresentationVerdict:
        return RepresentationVerdict("no", Counterexample(ABox.make(data), query, reason))

    # Contradictory source data must translate to contradictory target data,
    # and satisfiable source data to satisfiable target data.
    for kind in (d.concepts, d.roles):
        for b, c in combinations_with_replacement(kind.sources, 2):
            if not d.t1.pair_consistent(b, c):
                continue
            if not d.t12.pair_consistent(b, c):
                # The mapping itself rules this pair out: it admits no
                # translation at all, so there is nothing to compare.
                continue
            src_ok = comb.pair_consistent(b, c)
            if src_ok == tgt.pair_consistent(b, c):
                continue
            if kind is d.roles:
                side = "satisfiable" if src_ok else "contradictory"
                reason = (
                    f"{{{b}, {c}}} on one pair is {side} with the source TBox "
                    "but the candidate disagrees on its translation"
                )
            elif src_ok:
                reason = (
                    f"{{{b}, {c}}} at one object is satisfiable with the source TBox "
                    "but its translation is contradictory under the candidate"
                )
            else:
                reason = (
                    f"{{{b}, {c}}} at one object is contradictory with the source TBox "
                    "but its translation stays satisfiable under the candidate"
                )
            return no(_realize(b, _W0) + _realize(c, _W1), _fresh_probe(tgt_sig), reason)

    # Both sides must entail the same target memberships.
    for kind in (d.concepts, d.roles):
        for b in kind.live:
            src_up, tgt_up = comb.sup(b), tgt.sup(b)
            for bp in kind.names:
                src_d = bp in src_up
                if src_d == (bp in tgt_up):
                    continue
                holder = "the source TBox" if src_d else "only the candidate"
                reason = f"{b} transfers into {bp} under {holder}"
                return no(_realize(b, _W0), _member_query(bp), reason)

    # Every generated neighbor on one side must be matched on the other.
    for bc in d.concepts.live:
        probe_src = d.probe(comb, bc)
        probe_tgt = d.probe(tgt, bc)
        for have, other, template in (
            (probe_src, probe_tgt, "data satisfying {bc} is guaranteed a neighbor with "
             "{need} that the candidate cannot reproduce"),
            (probe_tgt, probe_src, "the candidate forces a neighbor with {need} "
             "onto data satisfying {bc} beyond what the source TBox guarantees"),
        ):
            for rep in have.gen[_PROBE]:
                need_t = have.state_type(rep, tgt_sig)
                need_r = have.edge_roles(rep, tgt_sig)
                if _has_matching_state(other, need_t, need_r):
                    continue
                reason = template.format(bc=bc, need=sorted(map(str, need_t)))
                return no(_realize(bc, _W0), _neighbor_query(need_t, need_r), reason)

    return RepresentationVerdict("yes")


def _has_matching_state(
    probe: CanonicalStructure, need_t: frozenset, need_r: frozenset
) -> bool:
    if need_r:
        # Only a direct generated neighbor can carry required connecting roles.
        for rep in probe.gen[_PROBE]:
            if need_r <= probe.edge_roles(rep) and need_t <= probe.state_type(rep):
                return True
        return False
    for state in probe.states():
        if need_t <= probe.state_type(state):
            return True
    return False


# ---------------------------------------------------------------------------
# Existence and synthesis of a representing target TBox.
# ---------------------------------------------------------------------------


def representation_exists(mapping: Mapping, t1: TBox) -> RepresentationVerdict:
    """Decide whether any target TBox represents ``t1`` under the mapping.

    On ``yes`` the verdict carries a representing TBox: target axioms
    covering everything the source theory forces.  On ``no`` it carries the
    first forced behavior that no target axiom can capture.
    """
    _require_valid(mapping, t1, None)
    d = _Decision(mapping, t1)
    comb = d.comb
    axioms: list = []

    def no(reason: str) -> RepresentationVerdict:
        return RepresentationVerdict("no", reason=reason)

    # Entailed target memberships need a safe target-side rewriting.
    for kind in (d.concepts, d.roles):
        for b in kind.live:
            up = comb.sup(b)
            for bp in kind.names:
                if bp not in up:
                    continue
                got = _included_all(d, kind, b, [bp])
                if got is None:
                    return no(f"no target axiom can capture that {b} entails {bp}")
                axioms.extend(got)

    # Generated neighbors need a chain of target axioms reproducing them.
    for bc in d.concepts.live:
        for rep in d.probe(comb, bc).gen[_PROBE]:
            got = _conform_pass(d, bc, rep)
            if got is None:
                return no(
                    f"the neighbor that {bc} generates through {rep} "
                    "cannot be reproduced on the target side"
                )
            axioms.extend(got)

    # Source-side contradictions need a target-side contradiction.
    for kind in (d.concepts, d.roles):
        for b1, b2 in combinations_with_replacement(kind.sources, 2):
            if not d.t1.pair_consistent(b1, b2) or comb.pair_consistent(b1, b2):
                continue
            got = _cover_clash(d, kind, b1, b2)
            if got is None:
                return no(
                    f"the contradiction between {b1} and {b2} "
                    "cannot be mirrored on the target side"
                )
            axioms.extend(got)

    out = []
    for ax in combined_tbox(tuple(axioms)):
        if ax.lhs == ax.rhs and not ax.negated_rhs:
            continue
        out.append(ax)
    return RepresentationVerdict("yes", tbox=tuple(out))


def _conform_pass(d: _Decision, bc: BasicConcept, rep: BasicRole) -> Optional[list]:
    """Target axioms with which the target side reproduces the neighbor that
    ``bc``-data generates through ``rep``, or ``None``.

    The axioms follow a chain from ``bc``: each hop is a target role whose
    witness they force into existence, and the last node carries every
    required target concept.
    """
    probe = d.probe(d.comb, bc)
    need_t = probe.state_type(rep, d.tgt_sig)
    need_r = probe.edge_roles(rep, d.tgt_sig)

    # Zero hops: the starting object itself absorbs all required facts.
    if not need_r:
        got = _included_all(d, d.concepts, bc, need_t)
        if got is not None:
            return got

    # Whether a hop or an acceptance works depends only on the node at hand,
    # so a breadth-first search over node values finds a shortest chain.
    seen: set = set()
    queue: deque = deque([(bc, [])])
    while queue:
        node, axioms = queue.popleft()
        for q in d.roles.names:
            nxt = Exists(q.inverse())
            if nxt in seen:
                continue
            link = [] if node == Exists(q) else _included_all(d, d.concepts, node, [Exists(q)])
            if link is None:
                continue
            seen.add(nxt)
            edge = _included_all(d, d.roles, q, need_r)
            last = None if edge is None else _included_all(d, d.concepts, nxt, need_t)
            if last is not None:
                return axioms + link + edge + last
            queue.append((nxt, axioms + link))
        if need_r:
            # Connecting roles can only be required on a chain of one hop.
            return None
    return None


def _included_all(d: _Decision, kind: _Kind, sub, targets) -> Optional[list]:
    """Target axioms with which ``sub``'s translation safely reaches every
    term of ``targets``, or ``None`` if some term is out of reach.

    Each term is reached from the first target term that the mapping derives
    from ``sub`` and that is safely included in it.
    """
    out = []
    up = d.t12.sup(sub)
    for target in sorted(targets, key=str):
        for name in kind.names:
            if name in up and d.safe(_inclusion_safe, kind, name, target):
                break
        else:
            return None
        if name != target:
            out.append(kind.axiom(name, target))
    return out


def _distinct(x, y) -> list:
    return [x] if x == y else [x, y]


def _cover_clash(d: _Decision, kind: _Kind, m1, m2):
    """Target axioms making the translation of the clashing pair {m1, m2}
    contradictory, or ``None``.

    The two members are tried first.  A concept clash is then tried at the far
    end of each existential member and through its role, a role clash at the
    concepts on either end of the two roles.
    """
    attempts = [(kind, _distinct(m1, m2))]
    if kind is d.concepts:
        for x in _distinct(m1, m2):
            if isinstance(x, Exists):
                attempts.append((d.concepts, [Exists(x.role.inverse())]))
                attempts.append((d.roles, [x.role]))
    else:
        for r1, r2 in ((m1, m2), (m1.inverse(), m2.inverse())):
            attempts.append((d.concepts, _distinct(Exists(r1), Exists(r2))))
    for k, members in attempts:
        got = _cover_members(d, k, members)
        if got is not None:
            return got
    return None


def _cover_members(d: _Decision, kind: _Kind, members: list):
    """Target axioms making any two of ``members`` contradictory together."""
    # A target disjointness between translations of two members.
    for x, y in product(members, repeat=2):
        up_x, up_y = d.t12.sup(x), d.t12.sup(y)
        for bp in kind.names:
            if bp not in up_x:
                continue
            for cp in kind.names:
                if cp in up_y and d.safe(_disjointness_safe, kind, bp, cp):
                    return [kind.axiom(bp, cp, negated_rhs=True)]
    # A target inclusion feeding a disjointness the mapping already states.
    for x, y in product(members, repeat=2):
        up_x = d.t12.sup(x)
        for bp in kind.names:
            if bp not in up_x:
                continue
            for ax in d.t12.tbox:
                if not (isinstance(ax, kind.axiom) and ax.negated_rhs and ax.lhs == y):
                    continue
                if d.safe(_inclusion_safe, kind, bp, ax.rhs):
                    return [] if bp == ax.rhs else [kind.axiom(bp, ax.rhs)]
    return None
