"""Shared test helpers: loading the checked-in example corpus, one-shot
entailment checks under a fresh reasoning context, and the TBox that
``representation_exists`` builds."""

from pathlib import Path

import pytest

from kbx.model import ConceptAssertion
from kbx.reasoner import Reasoner
from kbx.representability import representation_exists
from kbx.syntax import parse_kb, parse_mapping

CORPUS = Path(__file__).parent / "corpus"


def load_kb(name):
    """Parse ``tests/corpus/<name>.kbx`` as a knowledge base."""
    return parse_kb((CORPUS / f"{name}.kbx").read_text())


def load_mapping(name):
    """Parse ``tests/corpus/<name>.kbx`` as a mapping."""
    return parse_mapping((CORPUS / f"{name}.kbx").read_text())


def derives_concept(tbox, sub, sup) -> bool:
    """Positive concept subsumption under ``tbox`` (one-shot, uncached)."""
    return Reasoner(tbox).derives(sub, sup)


def derives_role(tbox, sub, sup) -> bool:
    """Positive role subsumption under ``tbox`` (one-shot, uncached)."""
    return Reasoner(tbox).derives(sub, sup)


def synthesize_representation(mapping, t1):
    """A target TBox representing ``t1`` under the mapping, or ``None``."""
    return representation_exists(mapping, t1).tbox


def derives_assertion(kb, assertion) -> bool:
    """Whether the KB entails a single membership assertion (one-shot, uncached)."""
    ctx = Reasoner(kb.tbox)
    if isinstance(assertion, ConceptAssertion):
        return assertion.concept in ctx.term_types(kb.abox).get(assertion.term, ())
    pair = (assertion.first, assertion.second)
    return assertion.role in ctx.pair_roles(kb.abox).get(pair, ())


@pytest.fixture
def corpus_dir():
    return CORPUS
