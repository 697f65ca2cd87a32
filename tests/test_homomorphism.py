"""Embeddings of canonical models into finite structures and back."""

from kbx.canonical import build_canonical, build_vabox
from kbx.homomorphism import (
    embeds_finite_into_regular,
    embeds_regular_into_finite,
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

