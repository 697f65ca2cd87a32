import copy
import json
import pickle

import pytest
from conftest import CORPUS

from kbx import cli, model
from kbx.automata import FalseFormula, TrueFormula
from kbx.canonical import element_label
from kbx.exchange import SolutionVerdict
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
    Record,
    RoleAssertion,
    RoleInclusion,
    Signature,
    Variable,
)
from kbx.representability import RepresentationVerdict


def test_role_inverse_is_an_involution():
    s = BasicRole("S")
    assert s.inverse() == BasicRole("S", inverted=True)
    assert s.inverse().inverse() == s


def test_role_assertion_normalizes_inverted_roles():
    """S-(a, b) is stored as S(b, a), so equal edges compare equal."""
    direct = RoleAssertion(BasicRole("S"), Constant("b"), Constant("a"))
    flipped = RoleAssertion(BasicRole("S", inverted=True), Constant("a"), Constant("b"))
    assert direct == flipped
    assert flipped.role == BasicRole("S")


def test_abox_make_deduplicates():
    fact = ConceptAssertion(Atomic("F"), Constant("a"))
    assert ABox.make([fact, fact]).assertions == (fact,)


def test_term_and_axiom_display_forms():
    assert str(Null("n1")) == "_n1"
    assert str(Constant("a")) == "a"
    assert str(Exists(BasicRole("S", inverted=True))) == "exists S-"
    assert str(ConceptInclusion(Atomic("F"), Atomic("G"), negated_rhs=True)) == "F [= not G"
    assert str(RoleInclusion(BasicRole("S"), BasicRole("T", inverted=True))) == "S [= T-"


def test_signature_make_and_membership():
    sig = Signature.make(concepts=("F", "G"), roles=("S",))
    assert "F" in sig.concepts and "S" in sig.roles
    assert "H" not in sig.concepts


def test_knowledge_base_is_hashable_and_comparable():
    kb = KnowledgeBase((), ABox.make([ConceptAssertion(Atomic("F"), Constant("a"))]))
    same = KnowledgeBase((), ABox.make([ConceptAssertion(Atomic("F"), Constant("a"))]))
    assert kb == same
    assert hash(kb) == hash(same)

    # Values of different classes are never equal, even with equal fields.
    assert Constant("a") != Null("a")
    assert Atomic("A") != Constant("A")

    # Each value hashes as its field tuple does, so sets iterate in the same
    # order, and no field can be assigned or deleted.
    r = BasicRole("R", inverted=True)
    fact = ConceptAssertion(Atomic("F"), Constant("a"))
    sig = Signature.make(concepts=("F",), roles=("R",))
    cases = [  # (value, its first field's name, its field tuple)
        (sig, "concepts", (sig.concepts, sig.roles)),
        (r, "name", ("R", True)),
        (Atomic("F"), "name", ("F",)),
        (Exists(r), "role", (r,)),
        (ConceptInclusion(Atomic("F"), Exists(r)), "lhs", (Atomic("F"), Exists(r), False)),
        (RoleInclusion(r, r, negated_rhs=True), "lhs", (r, r, True)),
        (Constant("a"), "name", ("a",)),
        (Null("n"), "name", ("n",)),
        (Variable("y"), "name", ("y",)),
        (fact, "concept", (Atomic("F"), Constant("a"))),
        (RoleAssertion(r, Constant("a"), Null("n")), "role",
         (BasicRole("R"), Null("n"), Constant("a"))),
        (kb.abox, "assertions", ((fact,),)),
        (kb, "tbox", ((), kb.abox)),
        (Mapping(sig, Signature(), ()), "sigma1", (sig, Signature(), ())),
    ]
    for value, name, fields in cases:
        assert hash(value) == hash(fields), value
        assert getattr(value, name) == fields[0]
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) == fields[0]

    # The classes that are ordered order by their field tuples.
    assert BasicRole("R") < BasicRole("R", inverted=True) < BasicRole("S")
    assert sorted([Exists(BasicRole("S")), Exists(r)]) == [Exists(r), Exists(BasicRole("S"))]
    for cls in (Atomic, Constant, Null, Variable):
        assert sorted([cls("b"), cls("a"), cls("c")]) == [cls("a"), cls("b"), cls("c")]
        assert cls("a") <= cls("a") and cls("b") > cls("a") and cls("b") >= cls("b")
    with pytest.raises(TypeError):
        Constant("a") < Null("b")

    assert repr(r) == "BasicRole(name='R', inverted=True)"
    assert repr(fact) == "ConceptAssertion(concept=Atomic(name='F'), term=Constant(name='a'))"


def test_records_are_tuples_that_keep_their_class():
    r = BasicRole("R")
    values = [
        Constant("a"), Null("a"), Variable("a"), Atomic("a"), r, Exists(r),
        RoleAssertion(BasicRole("R", inverted=True), Constant("a"), Null("n")),
        ConceptAssertion(Atomic("F"), Constant("a")), Signature.make(["F"], ["R"]),
        KnowledgeBase((), ABox(())), TrueFormula(), FalseFormula(),
        SolutionVerdict("unknown", reason="cap"), RepresentationVerdict("no"),
    ]
    for value in values:
        fields = tuple(value)
        assert value != fields and fields != value, value
        assert not value == fields and not fields == value, value
        assert hash(value) == hash(fields), value
        with pytest.raises(TypeError):
            value < fields
        with pytest.raises(TypeError):
            fields < value
        for other in values:
            same = value is other
            assert (value == other) is same and (value != other) is not same
            if other.__class__ is not value.__class__:
                with pytest.raises(TypeError):
                    value < other
        assert bool(value)
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert twin.__class__ is value.__class__ and twin == value, value
    # The role assertion above was stored the other way round, and stays so.
    assert pickle.loads(pickle.dumps(values[6])).role == BasicRole("R")

    # Fields that are equal across classes: still not equal, != holds both ways.
    assert Constant("a") != Null("a") and Null("a") != Constant("a")
    assert Atomic("a") != Constant("a") and Exists(r) != Exists(r.inverse())
    assert Record.__hash__ is tuple.__hash__
    assert all(cls.__dictoffset__ == 0 for cls in Record.__subclasses__())

    assert element_label(Constant("a")) == "a"
    assert element_label(Null("n")) == "_n"
    path = (Constant("a"), r, r.inverse())  # a path ends in witness-class representatives
    assert element_label(path) == "a.w[R].w[R-]"
    assert element_label(7) == "7"


def test_vocabulary_records_are_interned():
    """Equal concept and role records are one object while their table holds
    them; copying and unpickling return that object."""
    assert Atomic("A") is Atomic("A") and Atomic(name="A") is Atomic("A")
    r = BasicRole("R")
    assert BasicRole("R", inverted=False) is r
    assert r.inverse().inverse() is r
    assert Exists(BasicRole("R", True)) is Exists(r.inverse())
    for value in (Atomic("A"), r, r.inverse(), Exists(r)):
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert twin is value, value


def test_interning_tables_stay_bounded_and_equality_structural():
    """Fresh names overflow each table, which is cleared at the bound; a
    record made before the clear still equals, and hashes like, its twin."""
    before = (Atomic("A"), BasicRole("R", True), Exists(BasicRole("R", True)))
    for i in range(model.INTERN_LIMIT + 1):
        Exists(BasicRole(f"fresh{i}"))
        Atomic(f"fresh{i}")
        for table in (model._atomics, model._roles, model._exists):
            assert len(table) <= model.INTERN_LIMIT
    after = (Atomic("A"), BasicRole("R", True), Exists(BasicRole("R", True)))
    for old, new in zip(before, after):
        assert old is not new  # the table was cleared in between
        assert old == new and not old != new and hash(old) == hash(new)
        assert new in {old} and {old: 1}[new] == 1
        assert repr(old) == repr(new) and pickle.dumps(old) == pickle.dumps(new)
    assert Exists(before[1]) == after[2] and before[2].role == after[1]


@pytest.mark.parametrize("name,answer", [("valid0", "yes"), ("invalid", "unknown")])
def test_usol_exists_ext_set_lookups_rarely_reach_record_eq(monkeypatch, capsys, name, answer):
    """The deciders' set and dict lookups meet one object per concept or role,
    so they succeed on identity and seldom run ``Record.__eq__`` (about 9,000
    and 7,800 calls on these inputs when every module built its own)."""
    calls = []
    eq = Record.__eq__

    def counting(self, other):
        calls.append(None)
        return eq(self, other)

    monkeypatch.setattr(Record, "__eq__", counting)
    cli.run(["usol-exists-ext", "--kb", str(CORPUS / "qbf" / f"{name}_kb.kbx"),
             "--mapping", str(CORPUS / "qbf" / f"{name}_map.kbx"), "--json"])
    monkeypatch.undo()
    assert json.loads(capsys.readouterr().out)["answer"] == answer
    assert len(calls) < 1000
