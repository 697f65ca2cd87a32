"""Universal-solution decisions: positivity, non-emptiness, membership.

A target ABox is a universal solution when its Herbrand structure is
target-signature homomorphically equivalent to the canonical model of the
source KB joined with the mapping TBox.  Negative information cannot be
carried by an ABox, so every decision starts with the positivity check ruling
out disjointness pressure on the target side.

One membership check, both embeddings between the candidate's Herbrand
structure and the canonical model, then decides all three questions:
`is_universal_solution` runs it on the given candidate,
`universal_solution_plain` on the closure ABox, and
`universal_solution_extended` on truncations of the canonical model, taken
as structures rather than ABoxes.  A truncation T_d maps into the canonical
model U by inclusion and lies inside T_{d+1}, so "U maps into T_d" is
monotone in d and galloping finds the least such depth.  That probe hands its
structure and live images on to the minimiser, and the certificate's
simulation table is read off the minimiser's end state.
A yes carries its two embeddings as a certificate, and `verify_solution`
checks them a second time with the clause-by-clause verifiers of
`homomorphism`, which run none of the searches that found them.
"""

from __future__ import annotations

from .canonical import (
    CanonicalStructure,
    FiniteInterpretation,
    InconsistentKB,
    _fresh_names,
    _unfold,
    build_canonical,
    build_vabox,
    closure_abox,
    combined_tbox,
    truncation,
)
from .homomorphism import (
    LiveImages,
    _refine,
    choose_images,
    embeds_finite_into_regular,
    embeds_regular_into_finite,
    live_images,
    verify_embedding_into_regular,
    verify_simulation,
)
from .model import (
    ABox,
    Atomic,
    BasicRole,
    ConceptAssertion,
    ConceptInclusion,
    Constant,
    KnowledgeBase,
    Mapping,
    Null,
    Record,
    RoleAssertion,
)
from .reasoner import Reasoner, tbox_trivial


class PositivityResult(Record, fields=("ok", "clause", "detail")):
    __slots__ = ()

    def __new__(cls, ok: bool, clause: str | None = None, detail: str | None = None):
        return tuple.__new__(cls, (ok, clause, detail))

    def __bool__(self) -> bool:
        return self.ok


class SolutionVerdict(
    Record, fields=("answer", "witness", "certificate", "counterexample", "reason")
):
    __slots__ = ()

    def __new__(
        cls,
        answer: str,  # "yes" | "no" | "unknown"
        witness: ABox | None = None,
        certificate: object = None,
        counterexample: str | None = None,
        reason: str | None = None,  # on "unknown": the cap that was hit
    ):
        return tuple.__new__(cls, (answer, witness, certificate, counterexample, reason))


def _prepare(kb1: KnowledgeBase, mapping: Mapping) -> tuple[Reasoner, CanonicalStructure]:
    """The reasoning context of the source TBox, once the source KB is known
    to be consistent, and the canonical structure of source plus mapping."""
    source = Reasoner(kb1.tbox)
    if not source.consistent(kb1.abox):
        raise InconsistentKB("source knowledge base is inconsistent")
    joined = KnowledgeBase(combined_tbox(kb1.tbox, mapping.t12), kb1.abox)
    return source, build_canonical(joined, check_consistency=False)


def is_sigma2_positive(
    kb1: KnowledgeBase,
    mapping: Mapping,
    prepared: tuple[Reasoner, CanonicalStructure] | None = None,
) -> PositivityResult:
    """Check that no disjointness reaches the target side, on one table of
    the canonical structure's edges: every individual pair and every
    generating edge (state, class), with their roles.  A state is seen when
    it is a constant or has a type over the target signature.

    (a) No two disjoint source concepts are realized at seen states.
    (b) No two disjoint source roles hold on edges with both ends seen.
    (c) No element has two disjoint source roles towards seen elements; the
    anonymous elements of a class are one centre per parent seen or not.
    The check reads a centre only through those roles, down or up, so it
    reads the first centre in order with each set of them.
    (d) No negated mapping inclusion has a realized left-hand side.

    Individual pairs are in the table both ways, a generating edge only from
    parent to child, so clause (b) reads an anonymous edge in that one
    orientation and can tell mirror-image inputs apart.

    ``prepared`` is what ``_prepare`` returns, for a decider that has built it.
    """
    source, u = prepared if prepared is not None else _prepare(kb1, mapping)
    visible, _ = u.over(mapping.sigma2)
    types = {**u.individual_types, **u.class_types}
    seen = {s for s in types if isinstance(s, Constant) or visible[s]}
    generating = [((s, rep), u.class_edges[rep]) for s in u.states() for rep in u.gen[s]]
    towards: dict = {s: set() for s in types}  # roles from a state to seen states
    # Both ends of an individual pair have a type (a role fact types its
    # terms), so a constant end is seen without hashing it into ``seen``.
    for (x, y), roles in [*u.individual_roles.items(), *generating]:
        if isinstance(y, Constant) or y in seen:
            towards[x].update(roles)
    both_seen = set().union(*(towards[s] for s in seen))
    centres: dict = {}  # roles towards seen states -> (state, its parent if anonymous)
    for t in u.individuals:
        centres.setdefault(frozenset(towards[t]), (t, None))
    anonymous: set = set()
    for (s, rep), roles in generating:
        if (rep, s in seen) not in anonymous:
            anonymous.add((rep, s in seen))
            up = {r.inverse() for r in roles} if s in seen else set()
            centres.setdefault(frozenset(towards[rep] | up), (rep, s))
    realized_seen = set().union(*(types[s] for s in seen))
    for (b, c) in sorted(source.concept_clashes, key=str):
        if b in realized_seen and c in realized_seen:
            detail = f"disjoint concepts {b} and {c} are both realized at target-visible elements"
            return PositivityResult(False, "a", detail)
    role_pairs = sorted(source.role_clashes, key=str)
    for (r, q) in role_pairs:
        if r in both_seen and q in both_seen:
            detail = f"disjoint roles {r} and {q} both hold on pairs of target-visible elements"
            return PositivityResult(False, "b", detail)
    for (r, q) in role_pairs:
        for roles, (x, parent) in centres.items():
            if r in roles and q in roles:
                where = str(x) if parent is None else f"w[{x}] under {parent}"
                detail = (f"disjoint roles {r} and {q} leave a common element ({where}) "
                          "towards target-visible elements")
                return PositivityResult(False, "c", detail)
    realized = set().union(*types.values(), *u.individual_roles.values(), *u.class_edges.values())
    for ax in mapping.t12:
        if ax.negated_rhs and ax.lhs in realized:
            kind = "concept" if isinstance(ax, ConceptInclusion) else "role"
            on = ax.lhs if kind == "concept" else f"role {ax.lhs}"
            detail = (f"mapping disjointness on {on} fires: the {kind} is realized in the "
                      "canonical model")
            return PositivityResult(False, "d", detail)
    return PositivityResult(True)


def _positive(
    kb1: KnowledgeBase, mapping: Mapping
) -> tuple[CanonicalStructure, SolutionVerdict | None]:
    """``_prepare``'s canonical structure, with the ``no`` verdict of a source
    and mapping that fail the positivity check, or None when they pass."""
    prepared = _prepare(kb1, mapping)
    pos = is_sigma2_positive(kb1, mapping, prepared)
    refusal = None if pos else SolutionVerdict(
        "no", counterexample=f"positivity clause ({pos.clause}): {pos.detail}"
    )
    return prepared[1], refusal


def _membership(u: CanonicalStructure, abox: ABox, sigma,
                images: LiveImages | None = None) -> SolutionVerdict:
    """Whether the Herbrand structure of ``abox`` and the canonical model ``u``
    map into each other over ``sigma``; a yes has ``abox`` as its witness and
    the (simulation table, embedding) pair as its certificate.  ``images``,
    when given, must be the structure's ``live_images``."""
    v = build_vabox(abox)
    table = embeds_regular_into_finite(u, v, sigma, images)
    if table is None:
        return SolutionVerdict("no", counterexample=(
            "the canonical model of source plus mapping does not map into the "
            "candidate's Herbrand structure over the target signature"
        ))
    h = embeds_finite_into_regular(v, u, sigma)
    if h is None:
        return SolutionVerdict("no", counterexample=(
            "the candidate's Herbrand structure does not map back into the "
            "canonical model over the target signature"
        ))
    return SolutionVerdict("yes", abox, (table, h))


def verify_solution(kb1: KnowledgeBase, mapping: Mapping, witness: ABox,
                    certificate) -> SolutionVerdict:
    """Check a universal-solution yes a second time without deciding again.

    Fresh contexts for source and mapping (``_positive``) and the Herbrand
    structure of ``witness`` are built, and the (simulation table, embedding)
    ``certificate`` goes through ``verify_simulation`` and
    ``verify_embedding_into_regular`` over the target signature.  A ``no``
    names the verifier that rejects it.
    """
    u, refusal = _positive(kb1, mapping)
    if refusal is not None:
        return refusal
    (table, h), v = certificate, build_vabox(witness)
    if not verify_simulation(u, v, table, mapping.sigma2):
        rejection = "verify_simulation rejects the simulation table"
    elif not verify_embedding_into_regular(v, u, h, mapping.sigma2):
        rejection = "verify_embedding_into_regular rejects the embedding"
    else:
        return SolutionVerdict("yes", witness, certificate)
    return SolutionVerdict("no", counterexample=rejection)


def _terms(u: CanonicalStructure, t: FiniteInterpretation, depth: int, sigma) -> dict:
    """The term each element of ``t = truncation(u, depth, sigma)`` is written
    as, the same as in ``materialize``'s truncation written as an ABox: an
    individual stands for itself, and the anonymous paths become the nulls
    ``n1``, ``n2``, ... in the order their facts are read (by name, then by
    path label), skipping the names of null individuals."""
    labels, concept_facts, role_facts = _unfold(u, depth, sigma, lambda i, parent, state: (
        state if parent is None else f"{parent}.w[{state}]"))
    order = [e for _, e in sorted(concept_facts, key=lambda f: (f[0], str(f[1])))]
    order += [e for _, *ends in sorted(role_facts, key=lambda f: (f[0], str(f[1]), str(f[2])))
              for e in ends]
    taken = {s.name for s in u.individuals if isinstance(s, Null)}
    paths = [e for e in dict.fromkeys(order) if type(e) is str]
    nulls = dict(zip(paths, map(Null, _fresh_names("n", taken))))
    return {e: nulls[labels[e]] if type(e) is int else e for e in t.elements}


def _minimize_witness(u: CanonicalStructure, v: FiniteInterpretation, images: LiveImages,
                      choice: dict, sigma, term: dict) -> tuple[ABox, LiveImages]:
    """Greedily drop facts of ``v`` while the canonical model still maps in.

    ``images`` is ``live_images(u, v, sigma)`` and ``choice`` a choice of
    images on it; the three change in place.  The trials go in reverse
    ``str`` order of the facts' assertions, over the terms in ``term``.
    Returns the witness (the assertions kept) and its live images, with
    ``need`` but no index or trail.

    Dropping facts keeps the way back into the canonical model (a restriction
    of a homomorphism is one), so only regular-to-finite needs a check.  That
    direction is monotone in the facts, so a fact kept once stays needed and
    one pass reaches what repeating passes would.  The trials share one
    Herbrand structure and live-image table: each drops its fact in place
    and refines from the index entries of the fact's ends (a pair away from
    the fact keeps its type and neighbour roles).  Unless an individual runs
    out of images, the table is the smaller structure's greatest simulation,
    and the last choice of images stands unless a chosen pair died or the
    fact joined chosen images whose individuals need it; only then does
    ``choose_images`` search, from those individuals.  A failed trial undoes
    its trail and restores its fact.  So each trial answers as a fresh
    ``embeds_regular_into_finite`` would, in the same order: the witness is
    the same.

    The returned table is ``live_images`` of the witness's Herbrand
    structure.  An element (a constant too) that lost its last fact is not
    in that structure, so it is written as the sink ``None``.  It has an
    empty type and no neighbours, as the sink has, so it lives exactly where
    the sink does and its pairs fall onto the sink's.  No other pair changes:
    none reads it as a neighbour, and a class whose edge shows no role keeps
    an image with the sink wherever it had one with the element.
    """
    named = [(ConceptAssertion(Atomic(n), term[e]), (n, e))
             for n, ext in v.concept_ext.items() for e in ext]
    named += [(RoleAssertion(BasicRole(n), term[e1], term[e2]), (n, e1, e2))
              for n, ext in v.role_ext.items() for e1, e2 in ext]
    kept = []
    for a, fact in sorted(named, key=lambda pair: str(pair[0]), reverse=True):
        v.drop(fact)
        mark, ends = len(images.trail), fact[1:]
        if _refine(u, v, sigma, images, [(s, e) for e in ends for s in images.index[e]]) is None:
            chosen = choice.items()
            broken = [s for s, e in images.trail[mark:] if (s, e) in chosen]
            if len(ends) == 2:
                e1, e2 = ends
                broken += [t for t in images.index[e1] if (t, e1) in chosen and any(
                    (t2, e2) in chosen and not roles <= v.rtype(e1, e2)
                    for t2, roles in images.need[t].items())]
            found = choose_images(u, v, images, sorted(broken, key=str)) if broken else choice
            if found is not None:
                choice = found
                continue
        images.undo(mark)
        v.restore(fact)
        kept.append(a)
    written = {e: term[e] for e in v.elements if v.ttype(e)}  # the rest go to the sink
    table = LiveImages((s, {written.get(e) for e in es}) for s, es in images.items())
    table.need = images.need
    return ABox.make(kept), table


def universal_solution_extended(kb1: KnowledgeBase, mapping: Mapping,
                                depth_cap: int = 6) -> SolutionVerdict:
    """Non-emptiness for universal solutions with labeled nulls: the ABox of
    the least depth d <= ``depth_cap`` whose truncation T_d the canonical
    model U maps into, minimised.

    T_d maps into U by inclusion, so a probe checks regular-to-finite only.
    T_d is a substructure of T_{d+1} and homomorphisms compose, so the probe
    is monotone in d.  The loop probes d = 0, 1, 3, 7, ... (2d + 1, clipped
    to the cap), then bisects between the last failing probe and the first
    passing one: an ``unknown`` costs O(log cap) probes, and a yes at depth
    d* probes no deeper than 2d* + 1.  ``truncation`` is isomorphic to the
    Herbrand structure of the ABox read off ``materialize``, and both checks
    are invariant under isomorphism, so that depth's ABox is the first one
    that is a universal solution.  Its probe's structure, live images and
    choice go on to ``_minimize_witness``, with the nulls that ABox would
    name (``_terms``); ``_membership`` checks the minimiser's end table.

    Sound for yes; no only on positivity failure; unknown past the cap (a
    solution may in the worst case be exponentially deep).
    """
    u, refusal = _positive(kb1, mapping)
    if refusal is not None:
        return refusal
    sigma2 = mapping.sigma2
    passing = None  # the last passing probe's truncation, live images and choice

    def maps_in(d: int) -> bool:
        nonlocal passing
        t = truncation(u, d, sigma2)
        images = live_images(u, t, sigma2)
        choice = None if images is None else choose_images(u, t, images)
        if choice is not None:
            passing = t, images, choice
        return choice is not None

    lo, hi = -1, 0  # every depth up to lo fails; hi is the next probe
    while hi <= depth_cap and not maps_in(hi):
        lo, hi = hi, (min(2 * hi + 1, depth_cap) if hi < depth_cap else hi + 1)
    if hi > depth_cap:
        reason = f"depth cap {depth_cap} reached; last depth tried: {lo if lo >= 0 else 'none'}"
        return SolutionVerdict("unknown", reason=reason)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if maps_in(mid) else (mid, hi)
    witness, images = _minimize_witness(u, *passing, sigma2, _terms(u, passing[0], hi, sigma2))
    final = _membership(u, witness, sigma2, images)
    if final.answer != "yes":
        raise RuntimeError("the minimised witness fails its embedding check")
    return final


def is_universal_solution(kb1: KnowledgeBase, mapping: Mapping,
                          kb2: KnowledgeBase) -> SolutionVerdict:
    """Membership: is the candidate target KB a universal solution?

    The candidate must carry no real TBox content (solutions are ABoxes), the
    source and mapping must be positive, and the Herbrand structure of the
    candidate ABox must be target-signature homomorphically equivalent to the
    canonical model of source plus mapping.
    """
    u, refusal = _positive(kb1, mapping)
    if refusal is not None:
        return refusal
    if not tbox_trivial(kb2.tbox):
        return SolutionVerdict(
            "no",
            counterexample="candidate TBox is not equivalent to the empty TBox",
        )
    return _membership(u, kb2.abox, mapping.sigma2)


def universal_solution_plain(kb1: KnowledgeBase, mapping: Mapping) -> SolutionVerdict:
    """Non-emptiness and construction of universal solutions whose witness is
    an ordinary (null-free) target ABox: the membership check of the closure
    ABox.

    Every fact of a null-free universal solution is entailed over the source
    individuals, so it lies in the closure ABox.  Hence the closure ABox is a
    universal solution whenever any null-free one is.  Its ``exists R (a)``
    assertions belong to the ABox language: the parser reads them and
    ``closure_abox`` writes them.
    """
    u, refusal = _positive(kb1, mapping)
    if refusal is not None:
        return refusal
    a2 = closure_abox(kb1, mapping.t12, mapping.sigma2, u.reasoner)
    verdict = _membership(u, a2, mapping.sigma2)
    if verdict.answer == "yes":
        return verdict
    return SolutionVerdict(
        "no",
        counterexample=(
            f"the closure ABox is not a universal solution: {verdict.counterexample}"
        ),
    )
