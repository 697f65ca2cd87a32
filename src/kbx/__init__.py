"""Knowledge-base exchange for lightweight ontologies.

Source knowledge bases are translated along inclusion mappings into a target
signature; this package decides whether universal solutions exist (with or
without labeled nulls), checks candidate solutions, decides whether a target
TBox represents the source TBox query-faithfully, synthesizes such TBoxes,
and builds alternating tree automata over a KB's canonical model.

``import kbx`` loads no submodule: each public name is imported from its
submodule the first time it is used, so a command pays only for the modules
it runs.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULE = {
    name: module
    for module, names in {
        "automata": "TreeAutomaton build_acan build_afin build_amod dump_automaton pad_kb",
        "canonical": "CanonicalStructure FiniteInterpretation InconsistentKB "
        "build_canonical build_vabox closure_abox materialize",
        "exchange": "SolutionVerdict is_sigma2_positive is_universal_solution "
        "universal_solution_extended universal_solution_plain verify_solution",
        "model": "ABox Atomic BasicRole ConceptAssertion ConceptInclusion Constant Exists "
        "KnowledgeBase Mapping Null RoleAssertion RoleInclusion Signature Variable",
        "reasoner": "kb_consistent tbox_trivial",
        "representability": "RepresentationVerdict is_ucq_representation "
        "representation_exists",
        "syntax": "ParseError parse_kb parse_mapping serialize",
    }.items()
    for name in names.split()
}

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
