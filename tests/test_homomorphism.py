"""Embeddings of canonical models into finite structures and back."""

import random

from oracle import naive_embedding, naive_simulation

from kbx.canonical import FiniteInterpretation, build_canonical, build_vabox, materialize
from kbx.homomorphism import (
    _refine,
    choose_images,
    embeds_finite_into_regular,
    embeds_regular_into_finite,
    live_images,
    verify_embedding_into_regular,
    verify_simulation,
)
from kbx.model import (
    ABox,
    Atomic,
    BasicRole,
    ConceptAssertion,
    Constant,
    Null,
    RoleAssertion,
    Signature,
)
from kbx.syntax import parse_kb


def test_infinite_chain_folds_onto_finite_loop():
    kb = parse_kb(
        "kb { roles { S } tbox { F [= exists S; exists S- [= F; } abox { F(a); } }"
    )
    chain = build_canonical(kb)
    loop = build_vabox(
        ABox.make(
            [
                ConceptAssertion(Atomic("F"), Constant("a")),
                RoleAssertion(BasicRole("S"), Constant("a"), Constant("a")),
            ]
        )
    )
    table = embeds_regular_into_finite(chain, loop)
    assert table is not None
    assert verify_simulation(chain, loop, table)


def test_chain_does_not_fold_without_the_loop_edge():
    kb = parse_kb(
        "kb { roles { S } tbox { F [= exists S; exists S- [= F; } abox { F(a); } }"
    )
    bare = build_vabox(ABox.make([ConceptAssertion(Atomic("F"), Constant("a"))]))
    assert embeds_regular_into_finite(build_canonical(kb), bare) is None


def test_finite_embeds_into_regular_with_verified_witness():
    target = build_canonical(parse_kb("kb { tbox { } abox { Gp(b); } }"))
    anon = build_vabox(ABox.make([ConceptAssertion(Atomic("Gp"), Null("n"))]))
    h = embeds_finite_into_regular(anon, target)
    assert h is not None
    assert verify_embedding_into_regular(anon, target, h)


def test_a_self_loop_lands_only_on_a_self_loop():
    """A null with ``P(x, x)`` has no image on an endless chain of generated
    P-edges, alone or with a P-neighbour, and lands on an individual with a
    P self-loop."""
    x, y = Null("x"), Null("y")
    loop = [("P", x, x)]
    chain = build_canonical(parse_kb(
        "kb { roles { P } tbox { A [= exists P; exists P- [= exists P; } abox { A(a); } }"
    ))
    looped = build_canonical(parse_kb(
        "kb { roles { P } tbox { A [= exists P; } abox { A(a); P(a, a); } }"
    ))
    cases = [
        (chain, FiniteInterpretation([x], [], loop, {}), False),
        (chain, FiniteInterpretation([x, y], [], [*loop, ("P", y, x)], {}), False),
        (looped, FiniteInterpretation([x], [], loop, {}), True),
        (looped, FiniteInterpretation([x, y], [], [*loop, ("P", x, y)], {}), True),
        (looped, FiniteInterpretation([x, y], [], [*loop, ("P", y, x)], {}), True),
    ]
    for c, f, embeds in cases:
        h = embeds_finite_into_regular(f, c)
        assert (h is not None) == embeds == (naive_embedding(f, c) is not None), f.role_ext
        if embeds:
            assert h[x] == (Constant("a"),)
            assert verify_embedding_into_regular(f, c, h)


_AXIOMS = (
    "A [= exists P", "exists P- [= B", "B [= exists S", "exists S- [= A",
    "exists S- [= exists P-", "P [= S", "B [= exists P-", "exists P [= A", "S [= P-",
    "exists P- [= exists S", "exists S- [= exists P", "exists S- [= exists S",
    "exists P- [= exists P",
)
_FACTS = ("A(a)", "B(b)", "P(a, b)", "S(b, a)", "B(_x)", "P(_x, a)", "S(b, _y)")


def _random_pair(rng):
    """A small canonical structure, a finite interpretation over at most
    seven elements (interpreting some of the constants), and a signature."""
    kb = parse_kb(
        "kb { roles { P, S } tbox { "
        + " ".join(f"{ax};" for ax in rng.sample(_AXIOMS, rng.randint(2, 6)))
        + " } abox { "
        + " ".join(f"{a};" for a in rng.sample(_FACTS, rng.randint(1, 3)))
        + " } }"
    )
    consts = [Constant(n) for n in "ab" if rng.random() < 0.8]
    elems = consts + [f"e{i}" for i in range(rng.randint(1, 5))]
    density = rng.choice((0.3, 0.5, 0.7))
    concepts = [(n, e) for n in "AB" for e in elems if rng.random() < density]
    roles = [(n, e1, e2) for n in "PS" for e1 in elems for e2 in elems if rng.random() < density / 2]
    f = FiniteInterpretation(elems, concepts, roles, {t: t for t in consts})
    sigma = rng.choice((
        None,
        Signature.make(["A", "B"], ["P", "S"]),
        Signature.make(["B"], ["P"]),
        Signature.make(["A"], ["S"]),
        Signature.make(["A", "B"], ["P"]),
        Signature.make([], ["P", "S"]),
    ))
    return build_canonical(kb), f, sigma


def _drop_and_refine(c, f, sigma, images, fact):
    """Drop ``fact`` from ``f`` in place and refine ``images`` from the index
    entries of its ends, as a minimisation trial does; ``_refine``'s answer."""
    f.drop(fact)
    return _refine(c, f, sigma, images, [(s, e) for e in fact[1:] for s in images.index[e]])


def _indexed(images) -> bool:
    """Whether the table's index holds, for each element, exactly the states
    that have it as a live image."""
    return images.index == {
        e: {s for s, es in images.items() if e in es} for e in images.index
    }


def _check_shrinking(c, f, sigma) -> tuple:
    """Drop each fact of ``f`` in turn, in place: the live images refined
    around its ends must be the naive fixpoint of the smaller structure and
    the from-scratch images too, or stop at an individual left without an
    image exactly when the from-scratch images are None.  Undoing the trail
    and restoring the fact gives back the table, its index and the
    structure.  Returns the number of trials and of those that still map."""
    images = live_images(c, f, sigma)
    table = {s: set(es) for s, es in images.items()}
    facts = [*f.concept_facts(), *f.role_facts()]
    trials = kept = 0
    for fact in facts:
        mark = len(images.trail)
        starved = _drop_and_refine(c, f, sigma, images, fact)
        fresh = live_images(c, f, sigma)
        if starved is None:
            assert images == fresh and _indexed(images), fact
            choice = choose_images(c, f, images)
        else:
            assert fresh is None and not images[starved], fact
            choice = None
        want = naive_simulation(c, f, sigma)
        assert (choice is None) == (want is None), fact
        trials += 1
        if choice is not None:
            kept += 1
            assert {(rep, e) for rep in c.classes for e in images[rep]} == want, fact
        images.undo(mark)
        f.restore(fact)
        assert images == table and _indexed(images), fact
    assert [*f.concept_facts(), *f.role_facts()] == facts
    return trials, kept


def test_worklist_refinement_matches_the_naive_fixpoint():
    rng = random.Random(4)
    found = 0
    with_classes = 0
    trials = kept = 0
    for _ in range(400):
        c, f, sigma = _random_pair(rng)
        table = embeds_regular_into_finite(c, f, sigma)
        want = naive_simulation(c, f, sigma)
        assert (table is None) == (want is None)
        if table is not None:
            found += 1
            with_classes += bool(c.classes)
            assert {(s, e) for (s, e) in table if isinstance(s, BasicRole)} == want
            assert verify_simulation(c, f, table, sigma)
            t, k = _check_shrinking(c, f, sigma)
            trials, kept = trials + t, kept + k
    assert 40 <= found <= 360 and with_classes >= 20, (found, with_classes)
    assert kept >= 50 and trials - kept >= 50, (trials, kept)


def _fold(tbox: str, elements, concepts, roles, sigma):
    """The canonical structure of ``A(a)`` under ``tbox`` against a finite
    interpretation over ``a`` and the given integer elements."""
    a = Constant("a")
    kb = parse_kb(f"kb {{ roles {{ P, Q, S }} tbox {{ {tbox} }} abox {{ A(a); }} }}")
    f = FiniteInterpretation(
        [a, *elements],
        concepts,
        [(n, a if x == "a" else x, a if y == "a" else y) for (n, x, y) in roles],
        {a: a},
    )
    return build_canonical(kb), f, sigma


def test_dead_pairs_refute_the_pairs_that_relied_on_them():
    # An endless P-chain against a finite P-path, numbered both ways: every
    # path element dies once the one past it has, so nothing maps.
    path_up = [("P", "a", 1)] + [("P", i, i + 1) for i in range(1, 6)]
    path_down = [("P", "a", 6)] + [("P", i + 1, i) for i in range(1, 6)]
    # P needs a C-labelled Q-successor and an S-child whose class shows only
    # D and an outgoing P; with S invisible, S lives wherever some image does.
    # The element x fails the Q test, which kills S's only image, and then
    # y, which had passed, must die too.
    cascade = (
        "A [= exists P; exists P- [= exists S; exists S- [= exists P; exists P- [= B; "
        "exists P- [= exists Q; exists Q- [= C; exists S- [= D;"
    )
    cases = [
        _fold("A [= exists P; exists P- [= exists P;", range(1, 7), [], roles, None)
        for roles in (path_up, path_down)
    ]
    for x, y in ((2, 5), (5, 2)):
        cases.append(_fold(
            cascade,
            [1, x, y, 3, 7],
            [("B", x), ("B", y), ("C", 7), ("D", 1)],
            [("P", "a", y), ("Q", y, 7), ("P", 1, x), ("Q", x, 3)],
            Signature.make(["B", "C", "D"], ["P", "Q"]),
        ))
    for c, f, sigma in cases:
        assert naive_simulation(c, f, sigma) is None
        assert embeds_regular_into_finite(c, f, sigma) is None


def _random_piece(rng, c, sigma) -> FiniteInterpretation:
    """A connected piece of at most four elements of ``materialize(c, 3)``
    with its facts over ``sigma``, some elements renamed to ints, and with
    probability one half each a twin of one element and one random fact
    over ``sigma`` added."""
    m = materialize(c, 3)
    concepts = ["A", "B"] if sigma is None else sorted(sigma.concepts)
    roles = ["P", "S"] if sigma is None else sorted(sigma.roles)
    piece = [rng.choice(m.elements)]
    for _ in range(rng.randint(0, 3)):
        reach = sorted(
            {e2 for e in piece for e2 in m.neighbours(e)
             if e2 not in piece and m.rtype(e, e2, sigma)},
            key=str,
        )
        if reach:
            piece.append(rng.choice(reach))
    name = {e: i if rng.random() < 0.5 else e for i, e in enumerate(piece)}
    cfacts = [(n, name[e]) for n, e in m.concept_facts() if n in concepts and e in name]
    rfacts = [
        (n, name[e1], name[e2]) for n, e1, e2 in m.role_facts()
        if n in roles and e1 in name and e2 in name
    ]
    elems = list(name.values())
    if rng.random() < 0.5:
        # A twin with the same facts may share its original's image, which
        # the search can reach only by placing an element above the one
        # before it.
        e, twin = rng.choice(elems), len(elems)
        elems.append(twin)
        cfacts += [(n, twin) for n, x in cfacts if x == e]
        rfacts += [
            (n, twin if x == e else x, twin if y == e else y)
            for n, x, y in rfacts if e in (x, y)
        ]
    if rng.random() < 0.5:
        if roles and rng.random() < 0.5:
            rfacts.append((rng.choice(roles), rng.choice(elems), rng.choice(elems)))
        elif concepts:
            cfacts.append((rng.choice(concepts), rng.choice(elems)))
    consts = {t: name[(t,)] for t in m.constant_elems if (t,) in name}
    return FiniteInterpretation(elems, cfacts, rfacts, consts)


def test_anchored_search_matches_the_naive_embedding():
    rng = random.Random(8)
    found = 0
    for _ in range(300):
        c, _f, sigma = _random_pair(rng)
        f = _random_piece(rng, c, sigma)
        h = embeds_finite_into_regular(f, c, sigma)
        assert (h is None) == (naive_embedding(f, c, sigma) is None), (f.elements, sigma)
        if h is not None:
            found += 1
            assert verify_embedding_into_regular(f, c, h, sigma)
    assert 100 <= found <= 270, found


def test_refinement_reads_edge_roles_once_per_signature():
    """``live_images`` and every in-place refinement after it on one
    structure share the structure's tables: each class's edge roles are
    read once."""
    rng = random.Random(5)
    checked = 0
    while checked < 30:
        c, f, sigma = _random_pair(rng)
        calls = []
        edge_roles = c.edge_roles
        c.edge_roles = lambda rep, sig=None: calls.append(rep) or edge_roles(rep, sig)
        images = live_images(c, f, sigma)
        if images is None or not c.classes:
            continue
        for fact in [*f.concept_facts(), *f.role_facts()]:
            mark = len(images.trail)
            if _drop_and_refine(c, f, sigma, images, fact) is not None:
                images.undo(mark)
                f.restore(fact)
        assert sorted(calls, key=str) == sorted(c.classes, key=str)
        checked += 1
