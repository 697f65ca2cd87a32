"""Parser and serializer tests, including property-based round trips."""

import collections
import gc
import hashlib
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reductions import random_kb, random_representable_instance

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
)
from kbx.syntax import ParseError, parse_kb, parse_mapping, serialize


def test_parse_kb_basic():
    kb = parse_kb("kb { roles { S } tbox { F [= exists S; } abox { F(a); S(a, b); } }")
    assert kb.tbox == (ConceptInclusion(Atomic("F"), Exists(BasicRole("S"))),)
    assert ConceptAssertion(Atomic("F"), Constant("a")) in kb.abox.assertions
    assert RoleAssertion(BasicRole("S"), Constant("a"), Constant("b")) in kb.abox.assertions


def test_parse_kb_nulls_and_inverses():
    kb = parse_kb("kb { roles { S } tbox { exists S- [= not G; } abox { Gp(_n1); } }")
    (axiom,) = kb.tbox
    assert axiom.lhs == Exists(BasicRole("S", inverted=True))
    assert axiom.negated_rhs
    assert kb.abox.assertions == (ConceptAssertion(Atomic("Gp"), Null("n1")),)


def test_declared_roles_drive_axiom_kinds():
    """The same axiom text is a role inclusion only when both names are declared roles."""
    as_concepts = parse_kb("kb { tbox { S [= T; } abox { } }")
    assert as_concepts.tbox == (ConceptInclusion(Atomic("S"), Atomic("T")),)
    as_roles = parse_kb("kb { roles { S, T } tbox { S [= T; } abox { } }")
    assert as_roles.tbox == (RoleInclusion(BasicRole("S"), BasicRole("T")),)


def test_existential_assertions_require_null_free_abox():
    kb = parse_kb("kb { roles { S } tbox { } abox { exists S (a); exists S- (b); } }")
    assert ConceptAssertion(Exists(BasicRole("S")), Constant("a")) in kb.abox.assertions
    with pytest.raises(ParseError, match="without nulls"):
        parse_kb("kb { roles { S } tbox { } abox { exists S (_n1); } }")


def test_parse_mapping_with_negated_axiom():
    m = parse_mapping(
        "mapping { source { F, D, role S } target { Gp, Hp }"
        " tbox { exists S- [= Gp; D [= not Hp; } }"
    )
    assert "F" in m.sigma1.concepts and "S" in m.sigma1.roles
    assert "Gp" in m.sigma2.concepts
    assert ConceptInclusion(Atomic("D"), Atomic("Hp"), negated_rhs=True) in m.t12


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("kb { tbox { F [= ; } }", "concept or role expected"),
        ("kb { abox { F(a); } }", "expected 'tbox'"),
        ("mapping { source { F } target { F } tbox { } }", "signature overlap"),
        ("mapping { source { F } target { Gp } tbox { Gp [= F; } }", "source signature"),
    ],
)
def test_parse_errors_carry_a_message(text, fragment):
    parse = parse_mapping if text.startswith("mapping") else parse_kb
    with pytest.raises(ParseError, match=fragment):
        parse(text)


def test_parse_error_reports_location():
    try:
        parse_kb("kb {\n  tbox {\n    F [= ;\n  }\n}")
    except ParseError as err:
        assert "line 3" in str(err)
    else:
        pytest.fail("expected a ParseError")


# One input per error message, with the exact location each one reports.
ERROR_LOCATIONS = [
    ("kb { tbox { } abox { F(a)! } }", "unexpected character '!'", 1, 26),
    ("kb { tbox { F [ G; } abox { } }", "unexpected character '['", 1, 15),
    ("kb { tbox { F = G; } abox { } }", "unexpected character '='", 1, 15),
    ("kb { tbox { } abox { F(_); } }", "null name expected after '_'", 1, 24),
    ("kb { tbox { } abox { F(_n1) } _", "null name expected after '_'", 1, 31),
    ("kb { tbox { F [= G } abox { } }", "expected ';'", 1, 20),
    ("kb { abox { F(a); } }", "expected 'tbox'", 1, 6),
    ("kb { _tbox { } abox { } }", "expected 'tbox'", 1, 6),
    ("kb { roles { S, ( } tbox { } abox { } }", "role name expected", 1, 17),
    ("kb { tbox { exists ; [= F; } abox { } }", "role name expected", 1, 20),
    ("kb {\n  tbox {\n    F [= ;\n  }\n}", "concept or role expected", 3, 10),
    ("kb { tbox { } abox { F(,); } }", "constant or null expected", 1, 24),
    ("kb { tbox { } abox { exists S (a, b); } }", "expected ')'", 1, 33),
    ("kb { tbox { } abox { (a); } }", "assertion expected", 1, 22),
    ("mapping { source { F, ; } target { } tbox { } }", "name expected", 1, 23),
    # Conflicting kinds: by ABox arity, by axiom shape against a declaration,
    # by the shapes of two axioms, and by an existential fact against a plain one.
    ("kb { tbox { } abox { F(a); F(a, b); } }", "name 'F' used as both concept and role", 1, 28),
    (
        "kb { roles { F } tbox { G [= F; exists S [= F; } abox { } }",
        "name 'F' used as both concept and role", 1, 45,
    ),
    (
        "kb { tbox { F- [= G-; exists S [= F; } abox { } }",
        "name 'F' used as both concept and role", 1, 35,
    ),
    (
        "kb { tbox { } abox { exists S (a); S(a); } }",
        "name 'S' used as both concept and role", 1, 36,
    ),
    (
        "mapping { source { role S } target { Sp } tbox { S [= Sp; exists Sp [= Sp; } }",
        "name 'Sp' used as both concept and role", 1, 66,
    ),
    ("kb { tbox { exists S [= T-; } abox { } }", "inclusion mixes a concept and a role", 1, 20),
    # A bare inclusion from a role into a name the ABox fixed as a concept,
    # directly and after T takes S's kind by propagation.
    (
        "kb { roles { S } tbox { S [= F; } abox { F(a); } }",
        "inclusion mixes a concept and a role", 1, 30,
    ),
    (
        "kb { roles { S } tbox { S [= T; T [= F; } abox { F(a); } }",
        "inclusion mixes a concept and a role", 1, 38,
    ),
    # T becomes a concept by propagation from F, so its inclusion into S is a concept one.
    (
        "kb { roles { S } tbox { F [= T; T [= S; } abox { F(a); } }",
        "role 'S' used where a concept is required", 1, 38,
    ),
    # Reported at the first existential assertion, not at the ABox's first one.
    (
        "kb { tbox { } abox {\n  F(a);\n  G(_n1);\n  exists S (b);\n} }",
        "existential assertions are only allowed in ABoxes without nulls", 4, 3,
    ),
    ("kb { tbox { } abox { } } x", "trailing input after closing '}'", 1, 26),
    (
        "mapping {\n  source { F }\n  target { F }\n  tbox { }\n}",
        "signature overlap between source and target: ['F']", 1, 1,
    ),
    # Edge cases of the lexer: a trailing comment leaves the end-of-input column
    # at its '#', '\r' is counted as a column, and names follow str.isalpha and
    # str.isalnum.
    ("kb { tbox { } abox { } # end", "expected '}'", 1, 24),
    ("kb {\r\n  tbox {\r\n    F [= ;\r\n  }\r\n}", "concept or role expected", 3, 10),
    ("kb { tbox { } abox { ²F(a); } }", "unexpected character '²'", 1, 22),
    ("kb { tbox { } abox { F(_²); } }", "null name expected after '_'", 1, 24),
    ("kb { tbox { } abox { é(a) } }", "expected ';'", 1, 27),
    ("kb { tbox { } abox { F²'(a); } } x", "trailing input after closing '}'", 1, 34),
]


@pytest.mark.parametrize("text, message, line, column", ERROR_LOCATIONS)
def test_parse_error_message_and_location(text, message, line, column):
    parse = parse_mapping if text.startswith("mapping") else parse_kb
    with pytest.raises(ParseError) as info:
        parse(text)
    err = info.value
    assert (err.message, err.line, err.column) == (message, line, column)
    assert str(err) == f"{message} (line {line}, column {column})"


# Tokens of the format, plus characters that are not, or only in some places.
soup_tokens = st.sampled_from(
    [
        "kb", "mapping", "roles", "tbox", "abox", "source", "target", "role", "exists",
        "not", "F", "S", "a", "_n1", "[=", "{", "}", "(", ")", ",", ";", "-", " ", "\n",
        "# c\n", "²", "é", "[", "=", "_", "\r", "'",
    ]
)


# Valid openings, so that the soup also reaches the later blocks.
soup_prefixes = st.sampled_from(
    ["", "kb { ", "kb { tbox { ", "kb { tbox { } abox { ", "mapping { source { "]
)


@given(soup_prefixes, st.lists(soup_tokens, max_size=40).map("".join))
@settings(max_examples=300, deadline=None)
def test_bad_input_is_always_a_parse_error(prefix, soup):
    """Any text either parses or raises ParseError; nothing else escapes."""
    for parse in (parse_kb, parse_mapping):
        try:
            parse(prefix + soup)
        except ParseError:
            pass


def _reparsed(x):
    """``x`` printed and parsed back with the parser of its kind."""
    return (parse_mapping if isinstance(x, Mapping) else parse_kb)(serialize(x))


# Well-formed axioms and facts over names whose kinds only usage decides, so
# that most KBs drawn from them parse and kinds meet across blocks.
axiom_soup = st.lists(
    st.sampled_from(["F [= S", "S [= F", "F [= G", "S- [= T", "exists S [= F", "G [= not T"]),
    max_size=4,
)
fact_soup = st.lists(
    st.sampled_from(["F(a)", "S(a, _n1)", "T(a, b)", "G(_n1)", "exists T (a)"]), max_size=3
)


@given(
    st.one_of(
        st.tuples(soup_prefixes, st.lists(soup_tokens, max_size=40).map("".join)).map("".join),
        st.builds(
            "kb {{ {} tbox {{ {} }} abox {{ {} }} }}".format,
            st.sampled_from(["", "roles { S }", "roles { S, T }"]),
            axiom_soup.map(lambda axioms: "".join(f"{ax}; " for ax in axioms)),
            fact_soup.map(lambda facts: "".join(f"{fact}; " for fact in facts)),
        ),
    )
)
@settings(max_examples=300, deadline=None)
def test_accepted_soup_prints_and_parses_back_equal(text):
    """Whatever parses is well-kinded: it prints, and the print parses back equal."""
    for parse in (parse_kb, parse_mapping):
        try:
            parsed = parse(text)
        except ParseError:
            continue
        assert _reparsed(parsed) == parsed


def test_random_kbs_and_mappings_print_and_parse_back_equal():
    """Structured draws are well-kinded, so each one prints; its parse then
    prints and parses back to itself, with the drawn axioms and facts."""
    rng = random.Random(5)
    for _ in range(300):
        mapping, t1 = random_representable_instance(rng)
        for x in (random_kb(rng), KnowledgeBase(t1, ABox.make([])), mapping):
            parsed = _reparsed(x)
            assert _reparsed(parsed) == parsed, x
            if isinstance(x, Mapping):
                assert (parsed.sigma1, parsed.sigma2) == (x.sigma1, x.sigma2), x
                assert set(parsed.t12) == set(x.t12), x
            else:
                assert set(parsed.tbox) == set(x.tbox), x
                assert parsed.abox == x.abox, x


def test_serialize_round_trip_on_corpus(corpus_dir):
    """Serialization is a fixpoint: pretty-printed text re-parses to the same object."""
    for path in sorted(corpus_dir.glob("*.kbx")):
        text = path.read_text()
        parse = parse_mapping if text.lstrip().startswith("mapping") else parse_kb
        printed = serialize(parse(text))
        assert serialize(parse(printed)) == printed


names = st.sampled_from(["F", "G", "H", "A", "B"])
role_names = st.sampled_from(["S", "T", "R"])
roles = st.builds(BasicRole, role_names, st.booleans())
concepts = st.one_of(st.builds(Atomic, names), st.builds(Exists, roles))
terms = st.one_of(
    st.builds(Constant, st.sampled_from(["a", "b", "c"])),
    st.builds(Null, st.sampled_from(["n1", "n2"])),
)

axioms = st.one_of(
    st.builds(ConceptInclusion, concepts, concepts, st.booleans()),
    st.builds(RoleInclusion, roles, roles, st.booleans()),
)
assertions = st.one_of(
    st.builds(ConceptAssertion, st.builds(Atomic, names), terms),
    st.builds(RoleAssertion, roles, terms, terms),
)


@st.composite
def knowledge_bases(draw):
    tbox = tuple(dict.fromkeys(draw(st.lists(axioms, max_size=6))))
    abox = ABox.make(draw(st.lists(assertions, max_size=6)))
    return KnowledgeBase(tbox, abox)


@given(knowledge_bases())
@settings(max_examples=150, deadline=None)
def test_serialize_parse_round_trip(kb):
    """Printing loses nothing: the re-parsed object has the same axioms and facts,
    and printing it again is byte-identical."""
    text = serialize(kb)
    back = parse_kb(text)
    assert set(back.tbox) == set(kb.tbox)
    assert set(back.abox.assertions) == set(kb.abox.assertions)
    assert serialize(back) == text


# Single edits of the corpus files: a token or character of the format, or
# one that is not or only in some places, inserted; a character deleted; or
# the text truncated.
MUTATION_ALPHABET = [
    "kb", "mapping", "roles", "tbox", "abox", "source", "target", "role", "exists", "not",
    "F", "S", "a", "_n1", "[=", "{", "}", "(", ")", ",", ";", "-", " ", "\n", "#", "²", "é",
    "_", "\r", "'", "[", "=", "!", "x",
]


def _shown(x):
    """``repr`` of a parsed KB, or of a mapping with its signatures sorted."""
    if isinstance(x, Mapping):
        x = (*(tuple(sorted(part)) for sig in (x.sigma1, x.sigma2) for part in sig), x.t12)
    return repr(x)


# Recorded from the one-pass regex parser, over the corpus with ``extdata/``.
# Without that directory, the parser whose lexer made one token object, with
# its line and column, per token gave the same draws.
MUTATION_DIGEST = "fd5c950e18ee75d31a3ed11d2580ed74a7e58bd839945d56867d8eed34c86e35"
MUTATION_MESSAGES = {
    "expected '}'": 501, "concept or role expected": 434, "expected 'tbox'": 415,
    "expected '[='": 355, "expected ';'": 279, "expected '{'": 273, "expected 'abox'": 219,
    "expected 'kb'": 213, "mapping violation": 204, "expected 'target'": 154,
    "expected 'source'": 129, "unexpected character '['": 128, "assertion expected": 124,
    "unexpected character '='": 82, "role name expected": 76, "name expected": 74,
    "unexpected character '!'": 49, "null name expected after '_'": 47, "expected ')'": 37,
    "expected '('": 36, "unexpected character \"'\"": 31, "constant or null expected": 30,
    "trailing input after closing '}'": 23, "unexpected character '²'": 22,
    "unexpected character '1'": 17, "unexpected character '2'": 15, "unexpected character '3'": 6,
    "unexpected character '0'": 6, "inclusion mixes a concept and a role": 3,
    "expected 'mapping'": 2, "name 'Rp' used as both concept and role": 1,
    "existential assertions are only allowed in ABoxes without nulls": 1,
    "name 'S' used as both concept and role": 1, "name 'A' used as both concept and role": 1,
    "name 'Ap' used as both concept and role": 1,
}


def test_mutated_corpus_parses_or_fails_as_recorded(corpus_dir):
    """5,000 single-edit mutations of the corpus files, each parsed by the
    parser of its kind, give the recorded parsed objects, or error messages,
    lines and columns.  Adding a corpus file changes the draws, so the digest
    and histogram must then be recorded again from the previous parser."""
    texts = [path.read_text() for path in sorted(corpus_dir.rglob("*.kbx"))]
    rng = random.Random(21)
    lines, messages = [], collections.Counter()
    for i in range(5000):
        text = texts[i % len(texts)]
        at, edit = rng.randrange(len(text) + 1), rng.randrange(3)
        if edit == 0:
            text = text[:at] + rng.choice(MUTATION_ALPHABET) + text[at:]
        elif edit == 1:
            text = text[:at] + text[at + 1:]
        else:
            text = text[:at]
        parse = parse_mapping if text.lstrip().startswith("mapping") else parse_kb
        try:
            lines.append(_shown(parse(text)))
        except ParseError as err:
            lines.append(f"{err.message}|{err.line}|{err.column}")
            mapping_violation = err.message.startswith(("axiom ", "signature overlap"))
            messages["mapping violation" if mapping_violation else err.message] += 1
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (digest, dict(messages)) == (MUTATION_DIGEST, MUTATION_MESSAGES)


def test_each_parse_makes_one_term_per_name():
    """Every occurrence of a constant or null name in one input is one object,
    and two parses of the same text share none."""
    text = "kb { roles { S } tbox { } abox { F(a); S(a, _n1); S(_n1, b); G(_n1); S(b, a); } }"
    first, second = parse_kb(text), parse_kb(text)
    terms = list(first.abox.terms())
    one_each: dict = {}
    assert all(one_each.setdefault(term, term) is term for term in terms)
    assert len(terms) == 8 and set(one_each) == {Constant("a"), Constant("b"), Null("n1")}
    assert not set(map(id, terms)) & set(map(id, second.abox.terms()))


def _chain_parse_cpu_per_fact(n):
    text = "kb { roles { R } tbox { } abox {\n%s\n} }" % "\n".join(
        f"  R(c{i}, c{i + 1});" for i in range(n)
    )
    best = float("inf")
    for _ in range(3):
        gc.collect()
        gc.disable()
        try:
            start = time.process_time()
            parse_kb(text)
            best = min(best, time.process_time() - start)
        finally:
            gc.enable()
    return best / n


def test_parsing_is_linear_in_the_facts():
    """Per fact, a 40,000-fact chain parses within 1.5 times the CPU of a
    4,000-fact one.  The cyclic collector is off while a parse is timed: its
    passes over the objects that earlier tests left would cost the long chain
    more than the short one."""
    assert _chain_parse_cpu_per_fact(40_000) <= 1.5 * _chain_parse_cpu_per_fact(4_000)
