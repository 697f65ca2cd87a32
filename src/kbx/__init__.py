"""Knowledge-base exchange for lightweight ontologies.

Source knowledge bases are translated along inclusion mappings into a target
signature; this package decides whether universal solutions exist (with or
without labeled nulls), checks candidate solutions, decides whether a target
TBox represents the source TBox query-faithfully, synthesizes such TBoxes,
and builds alternating tree automata over a KB's canonical model.
"""

from .canonical import (
    CanonicalStructure,
    FiniteInterpretation,
    InconsistentKB,
    build_canonical,
    build_vabox,
    closure_abox,
    materialize,
)
from .exchange import (
    SolutionVerdict,
    is_sigma2_positive,
    is_universal_solution,
    universal_solution_extended,
    universal_solution_plain,
)
from .model import (
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
    Variable,
)
from .automata import (
    TreeAutomaton,
    build_acan,
    build_afin,
    build_amod,
    dump_automaton,
    pad_kb,
)
from .reasoner import kb_consistent, tbox_trivial
from .representability import (
    RepresentationVerdict,
    is_ucq_representation,
    representation_exists,
)
from .syntax import ParseError, parse_kb, parse_mapping, serialize

__version__ = "0.1.0"

__all__ = [
    "ABox",
    "Atomic",
    "BasicRole",
    "CanonicalStructure",
    "ConceptAssertion",
    "ConceptInclusion",
    "Constant",
    "Exists",
    "FiniteInterpretation",
    "InconsistentKB",
    "KnowledgeBase",
    "Mapping",
    "Null",
    "ParseError",
    "RepresentationVerdict",
    "RoleAssertion",
    "RoleInclusion",
    "Signature",
    "SolutionVerdict",
    "TreeAutomaton",
    "Variable",
    "build_acan",
    "build_afin",
    "build_amod",
    "build_canonical",
    "build_vabox",
    "closure_abox",
    "dump_automaton",
    "is_sigma2_positive",
    "is_ucq_representation",
    "is_universal_solution",
    "kb_consistent",
    "materialize",
    "pad_kb",
    "parse_kb",
    "parse_mapping",
    "representation_exists",
    "serialize",
    "tbox_trivial",
    "universal_solution_extended",
    "universal_solution_plain",
]
