"""Encodings of classical problems as exchange instances.

Each builder returns plain model objects ready for the deciders; the matching
ground-truth answer comes from the brute-force oracles, so suites can compare
verdicts instance by instance.
"""

import random

from kbx.model import (
    ABox,
    Atomic,
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
)


def qbf_instance(quants, clauses):
    """Exchange instance whose extended-solution existence mirrors QBF truth.

    `quants` is a sequence of "exists"/"forall" for variables 1..n, `clauses`
    a list of clauses, each a list of (variable, positive) literals.  The
    source canonical model grows an infinite chain per clause; it folds into a
    finite target-visible witness exactly when the formula is valid.
    """
    n = len(quants)
    m = len(clauses)
    A = Atomic("A")

    def S(l):
        return BasicRole(f"S{l}")

    def T(l):
        return BasicRole(f"T{l}")

    def Q(i, k):
        return BasicRole(f"Q{i}v{k}")

    def P(i, k):
        return BasicRole(f"P{i}v{k}")

    def R(j):
        return BasicRole(f"R{j}")

    def RL(j, l):
        return BasicRole(f"R{j}l{l}")

    def Y(i, k):
        return Atomic(f"Y{i}v{k}")

    def X(i, k):
        return Atomic(f"X{i}v{k}")

    t1 = [ConceptInclusion(A, Exists(S(0).inverse()))]
    for i, q in enumerate(quants, 1):
        if q == "forall":
            for k in (0, 1):
                t1.append(ConceptInclusion(Exists(S(i - 1).inverse()), Exists(Q(i, k))))
        else:
            t1.append(ConceptInclusion(Exists(S(i - 1).inverse()), Exists(S(i))))
        for k in (0, 1):
            t1.append(ConceptInclusion(Exists(Q(i, k).inverse()), Y(i, k)))
            t1.append(RoleInclusion(Q(i, k), S(i)))
    for j in range(1, m + 1):
        t1.append(ConceptInclusion(Exists(S(n).inverse()), Exists(R(j))))
        t1.append(ConceptInclusion(Exists(R(j).inverse()), Exists(R(j))))
    t1.append(ConceptInclusion(A, Exists(T(0).inverse())))
    for i in range(1, n + 1):
        for k in (0, 1):
            t1.append(ConceptInclusion(Exists(T(i - 1).inverse()), Exists(P(i, k))))
            t1.append(RoleInclusion(P(i, k), T(i)))
            t1.append(ConceptInclusion(Exists(P(i, k).inverse()), X(i, k)))
    for j, clause in enumerate(clauses, 1):
        for (v, positive) in clause:
            t1.append(ConceptInclusion(X(v, 1 if positive else 0), Exists(RL(j, v))))
        for i in range(1, n + 1):
            t1.append(ConceptInclusion(Exists(RL(j, i).inverse()), Exists(RL(j, i - 1))))
    kb1 = KnowledgeBase(tuple(t1), ABox.make([ConceptAssertion(A, Constant("a"))]))

    Ap = Atomic("Ap")
    Sp = BasicRole("Sp")

    def Z(i, k):
        return Atomic(f"Z{i}v{k}")

    def Rp(j):
        return BasicRole(f"Rp{j}")

    t12 = [ConceptInclusion(A, Ap)]
    for l in range(0, n + 1):
        t12.append(RoleInclusion(S(l), Sp))
        t12.append(RoleInclusion(T(l), Sp))
        for j in range(1, m + 1):
            t12.append(RoleInclusion(T(l), Rp(j).inverse()))
    for i in range(1, n + 1):
        for k in (0, 1):
            t12.append(ConceptInclusion(Y(i, k), Z(i, k)))
            t12.append(ConceptInclusion(X(i, k), Z(i, k)))
    for j in range(1, m + 1):
        t12.append(RoleInclusion(R(j), Rp(j)))
        # the level-0 chain role maps both ways, closing a two-cycle that the
        # infinite clause loops can fold onto
        t12.append(RoleInclusion(RL(j, 0), Rp(j).inverse()))
        for i in range(0, n + 1):
            t12.append(RoleInclusion(RL(j, i), Rp(j)))

    src_concepts = ["A"]
    src_roles = []
    for i in range(1, n + 1):
        for k in (0, 1):
            src_concepts += [f"Y{i}v{k}", f"X{i}v{k}"]
            src_roles += [f"Q{i}v{k}", f"P{i}v{k}"]
    for l in range(0, n + 1):
        src_roles += [f"S{l}", f"T{l}"]
    for j in range(1, m + 1):
        src_roles.append(f"R{j}")
        src_roles += [f"R{j}l{l}" for l in range(0, n + 1)]
    tgt_concepts = ["Ap"] + [f"Z{i}v{k}" for i in range(1, n + 1) for k in (0, 1)]
    tgt_roles = ["Sp"] + [f"Rp{j}" for j in range(1, m + 1)]
    mapping = Mapping(
        Signature.make(src_concepts, src_roles),
        Signature.make(tgt_concepts, tgt_roles),
        tuple(t12),
    )
    return kb1, mapping


def qbf_family():
    """The fixed enumerated family: every quantifier pattern over three
    variables crossed with three clause matrices (at most two clauses each)."""
    matrices = [
        [[(1, True)], [(2, True), (3, False)]],
        [[(1, True), (2, True)], [(1, False), (3, True)]],
        [[(2, False)], [(1, True), (3, True)]],
    ]
    family = []
    for bits in range(8):
        quants = tuple(
            "exists" if (bits >> pos) & 1 else "forall" for pos in range(3)
        )
        for matrix in matrices:
            family.append((quants, [list(c) for c in matrix]))
    return family


def reach_membership(n, edges, src, dst):
    """Membership encoding: the fixed target TBox is the primed edge relation,
    and it represents the source TBox (edges plus a src-to-dst shortcut)
    exactly when dst is reachable from src."""

    def V(i):
        return Atomic(f"V{i}")

    def Vp(i):
        return Atomic(f"V{i}p")

    t1 = [ConceptInclusion(V(src), V(dst))]
    t1 += [ConceptInclusion(V(u), V(v)) for (u, v) in edges]
    t12 = [ConceptInclusion(V(i), Vp(i)) for i in range(n)]
    t2 = [ConceptInclusion(Vp(u), Vp(v)) for (u, v) in edges]
    mapping = Mapping(
        Signature.make([f"V{i}" for i in range(n)]),
        Signature.make([f"V{i}p" for i in range(n)]),
        tuple(t12),
    )
    return mapping, tuple(dict.fromkeys(t1)), tuple(t2)


def reach_nonemptiness(n, edges, src, dst):
    """Non-emptiness encoding: a representing target TBox exists exactly when
    dst is reachable from src.

    The start marker maps to both a start concept and a probe concept; the
    probe is forced to entail the goal concept in any representation, which is
    sound on the source side only along an actual path."""

    def V(i):
        return Atomic(f"V{i}")

    def Vp(i):
        return Atomic(f"V{i}p")

    start, goal, probe, mark = Atomic("St"), Atomic("Gl"), Atomic("Xc"), Atomic("Yc")
    t1 = [ConceptInclusion(V(u), V(v)) for (u, v) in edges]
    t1 += [
        ConceptInclusion(start, V(src)),
        ConceptInclusion(V(dst), goal),
        ConceptInclusion(probe, mark),
    ]
    t12 = [ConceptInclusion(V(i), Vp(i)) for i in range(n)]
    t12 += [
        ConceptInclusion(start, Atomic("Stp")),
        ConceptInclusion(start, Atomic("Xcp")),
        ConceptInclusion(goal, Atomic("Ycp")),
        ConceptInclusion(probe, Atomic("Xcp")),
        ConceptInclusion(mark, Atomic("Ycp")),
    ]
    mapping = Mapping(
        Signature.make([f"V{i}" for i in range(n)] + ["St", "Gl", "Xc", "Yc"]),
        Signature.make([f"V{i}p" for i in range(n)] + ["Stp", "Xcp", "Ycp"]),
        tuple(t12),
    )
    return mapping, tuple(dict.fromkeys(t1))


COLORS = (Constant("r"), Constant("g"), Constant("b"))


def coloring_instance(vertices, edges):
    """Candidate-solution encoding of graph 3-colorability.

    The source ABox is a complete triangle on three color constants; the
    candidate adds the graph itself on labeled nulls.  The candidate is a
    universal solution exactly when the nulls fold onto the triangle, i.e.
    when the graph is 3-colorable."""
    E = BasicRole("E")
    Ep = BasicRole("Ep")
    triangle = [
        (c1, c2) for c1 in COLORS for c2 in COLORS if c1 != c2
    ]
    kb1 = KnowledgeBase(
        (), ABox.make([RoleAssertion(E, c1, c2) for (c1, c2) in triangle])
    )
    mapping = Mapping(
        Signature.make((), ["E"]),
        Signature.make((), ["Ep"]),
        (RoleInclusion(E, Ep),),
    )
    a2 = [RoleAssertion(Ep, c1, c2) for (c1, c2) in triangle]
    for (u, v) in edges:
        a2.append(RoleAssertion(Ep, Null(f"v{u}"), Null(f"v{v}")))
        a2.append(RoleAssertion(Ep, Null(f"v{v}"), Null(f"v{u}")))
    kb2 = KnowledgeBase((), ABox.make(a2))
    return kb1, mapping, kb2


# --- random instance generators (all driven by a caller-owned Random) ---

_CONCEPTS = ("A", "B", "C")
_ROLES = ("R", "S", "T")


def _basic_concept(rng, concepts=_CONCEPTS, roles=_ROLES):
    if roles and rng.random() < 0.4:
        return Exists(BasicRole(rng.choice(roles), rng.random() < 0.5))
    return Atomic(rng.choice(concepts))


def _basic_role(rng, roles=_ROLES):
    return BasicRole(rng.choice(roles), rng.random() < 0.5)


def random_tbox(rng, max_axioms=12):
    axioms = []
    for _ in range(rng.randint(1, max_axioms)):
        if rng.random() < 0.7:
            axioms.append(
                ConceptInclusion(
                    _basic_concept(rng), _basic_concept(rng), rng.random() < 0.2
                )
            )
        else:
            axioms.append(
                RoleInclusion(_basic_role(rng), _basic_role(rng), rng.random() < 0.2)
            )
    return tuple(dict.fromkeys(axioms))


def random_kb(rng):
    tbox = random_tbox(rng)
    consts = (Constant("a"), Constant("b"))
    assertions = []
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.6:
            assertions.append(ConceptAssertion(_basic_concept(rng), rng.choice(consts)))
        else:
            assertions.append(
                RoleAssertion(
                    BasicRole(rng.choice(_ROLES)), rng.choice(consts), rng.choice(consts)
                )
            )
    return KnowledgeBase(tbox, ABox.make(assertions))


_POS_ROLES = ("P", "S")
_POS_CONSTANTS, _POS_NULLS = (Constant("a"), Constant("b")), (Null("x"), Null("y"))


def random_positivity_instance(rng):
    """A source KB over A, B, P and S with concept and role disjointness, and
    a mapping into Ap, Bp, Pp and Sp with some negated axioms.

    In three draws of ten a null has role facts towards both constants, and
    in three more the element that an A or B generates along a role R has
    two successors, each made visible by the mapping; half of those draws
    make the two roles disjoint.  Without them positivity clause (c), which
    needs one element with two disjoint roles towards visible ones, is
    reached only a few times per thousand draws.
    """
    def role():
        return _basic_role(rng, _POS_ROLES)

    def concept():
        return Exists(role()) if rng.random() < 0.5 else Atomic(rng.choice("AB"))

    tbox = [
        ConceptInclusion(concept(), concept()) if rng.random() < 0.7
        else RoleInclusion(role(), role())
        for _ in range(rng.randint(0, 3))
    ]
    if rng.random() < 0.4:
        tbox.append(RoleInclusion(role(), role(), True))
    if rng.random() < 0.4:
        tbox.append(ConceptInclusion(concept(), concept(), True))
    terms = _POS_CONSTANTS + _POS_NULLS
    facts = []
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.3:
            facts.append(ConceptAssertion(Atomic(rng.choice("AB")), rng.choice(terms)))
        else:
            first = rng.choice(_POS_NULLS if rng.random() < 0.6 else _POS_CONSTANTS)
            facts.append(RoleAssertion(role(), first, rng.choice(terms)))
    fan, t12 = rng.random(), []
    pair = (role(), role())
    if fan < 0.6 and rng.random() < 0.5:
        tbox.append(RoleInclusion(*pair, True))
    if fan < 0.3:
        x = rng.choice(_POS_NULLS)
        facts += [RoleAssertion(s, x, c) for s, c in zip(pair, _POS_CONSTANTS)]
    elif fan < 0.6:
        r = BasicRole("R", rng.random() < 0.5)
        tbox.append(ConceptInclusion(Atomic(rng.choice("AB")), Exists(r)))
        for s, target in zip(pair, ("Ap", "Bp")):
            tbox.append(ConceptInclusion(Exists(r.inverse()), Exists(s)))
            t12.append(ConceptInclusion(Exists(s.inverse()), Atomic(target)))
    t12 += [
        ConceptInclusion(Atomic(name), Atomic(name + "p"), rng.random() < 0.15)
        for name in "AB" if rng.random() < 0.6
    ]
    for name in _POS_ROLES:
        draw = rng.random()
        if draw < 0.2:
            t12.append(RoleInclusion(BasicRole(name), BasicRole(name + "p"), rng.random() < 0.3))
        elif draw < 0.5:
            t12.append(ConceptInclusion(
                Exists(BasicRole(name, rng.random() < 0.5)), Atomic(rng.choice(("Ap", "Bp"))),
                rng.random() < 0.2,
            ))
    mapping = Mapping(
        Signature.make("AB", ("P", "R", "S")), Signature.make(("Ap", "Bp"), ("Pp", "Sp")),
        tuple(dict.fromkeys(t12)),
    )
    return KnowledgeBase(tuple(dict.fromkeys(tbox)), ABox.make(facts)), mapping


def random_digraph(rng, max_nodes=8):
    n = rng.randint(2, max_nodes)
    edges = tuple(
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < 0.18
    )
    return n, edges, rng.randrange(n), rng.randrange(n)


def random_graph(rng, max_nodes=6):
    # dense enough that non-3-colorable graphs actually show up
    n = rng.randint(1, max_nodes)
    p = rng.uniform(0.35, 0.85)
    edges = tuple(
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    )
    return tuple(range(n)), edges


def small_graphs():
    """200 seeded graphs of at most nine vertices, for the colouring checks."""
    rng = random.Random(19)
    return [random_graph(rng, max_nodes=9) for _ in range(200)]


def random_sparse_graph(rng, n, m):
    """m distinct undirected edges (u < v) over the vertices 0..n-1, drawn
    one pair at a time, as the benchmark's colouring cases draw them."""
    edges = set()
    while len(edges) < m:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return tuple(range(n)), tuple(sorted(edges))


def random_representable_instance(rng):
    """A random mapping plus source TBox; the caller filters on
    representation_exists."""
    sc = ["F", "G", "H"][: rng.randint(1, 3)]
    sr = ["S", "T"][: rng.randint(0, 2)]
    tc = ["Fp", "Gp", "Hp"][: rng.randint(1, 3)]
    tr = ["Sp", "Tp"][: rng.randint(0, 2)]

    def src_concept():
        return _basic_concept(rng, sc, sr)

    def tgt_concept():
        return _basic_concept(rng, tc, tr)

    t12 = []
    for name in sc:
        if rng.random() < 0.8:
            t12.append(
                ConceptInclusion(Atomic(name), tgt_concept(), rng.random() < 0.1)
            )
    for name in sr:
        if rng.random() < 0.5 and tr:
            t12.append(RoleInclusion(BasicRole(name), _basic_role(rng, tr)))
        elif rng.random() < 0.5:
            t12.append(ConceptInclusion(Exists(BasicRole(name, rng.random() < 0.5)), tgt_concept()))
    if not t12:
        t12.append(ConceptInclusion(Atomic(sc[0]), Atomic(tc[0])))
    t1 = []
    for _ in range(rng.randint(0, 4)):
        if sr and rng.random() < 0.25:
            t1.append(RoleInclusion(_basic_role(rng, sr), _basic_role(rng, sr)))
        else:
            t1.append(
                ConceptInclusion(src_concept(), src_concept(), rng.random() < 0.15)
            )
    mapping = Mapping(
        Signature.make(sc, sr), Signature.make(tc, tr), tuple(dict.fromkeys(t12))
    )
    return mapping, tuple(dict.fromkeys(t1))
