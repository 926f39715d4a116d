"""boltzxml: uniform random XML documents from RELAX NG grammars.

Pipeline: parse_grammar turns a RELAX NG grammar (XML syntax) into a
normalized pattern AST; compile_grammar translates it into a polynomial
system of counting generating functions; solve locates the system's
dominant singularity by Newton iteration inside a bisection and evaluates
the class values just below it; Sampler draws documents whose sizes
(element count plus attribute count) concentrate in a configurable window,
uniformly at random among documents of equal size.
"""

from __future__ import annotations

from . import errors
from .errors import (
    BoltzXmlError,
    CeilingExceededError,
    CompileError,
    DivergedError,
    EnumerationBoundError,
    ExhaustedError,
    GrammarError,
    IllFoundedSystemError,
    MissingDatatypeError,
    NoFiniteSingularityError,
    OracleMismatchError,
    SamplingError,
    SolverError,
    SystemFormatError,
)
from .ast import (
    Attribute,
    Choice,
    Data,
    Element,
    Empty,
    Grammar,
    Group,
    NotAllowed,
    OneOrMore,
    Pattern,
    Ref,
    Text,
    Value,
    check_normal_form,
    from_canonical,
    to_canonical,
)
from .bundled import bundled_grammar_path, list_bundled_grammars, load_bundled_grammar
from .counting import CountingTable, count_coefficients, enumerate_documents
from .datatypes import (
    canonical_value,
    default_datatype_samplers,
    load_value_table,
    merge_registries,
)
from .newton import (
    AUTO_BACKOFF,
    BRACKET_WIDTH,
    FALL_TOLERANCE,
    ITERATION_CAP,
    TOLERANCE,
    VALUE_CEILING,
    NewtonResult,
    OracleTable,
    SingularityEstimate,
    estimate_singularity,
    load_oracle,
    newton_evaluate,
    save_oracle,
    solve,
    verify_oracle,
)
from .relaxng import parse_grammar, parse_grammar_file
from .sampler import (
    Sampler,
    SamplerConfig,
    SizeWindow,
    StreamStats,
    WindowSample,
)
from .serialize import (
    DocNode,
    EndElement,
    StartElement,
    TextContent,
    doc_to_xml,
    events_from_doc,
    events_to_bytes,
    serialize_stream,
    skeleton_key,
)
from .system import GfSystem, Monomial, compile_grammar, load_system, save_system
from .validate import matches

__version__ = "0.1.0"

__all__ = [
    "errors",
    "BoltzXmlError",
    "GrammarError",
    "CompileError",
    "SystemFormatError",
    "IllFoundedSystemError",
    "SolverError",
    "DivergedError",
    "NoFiniteSingularityError",
    "OracleMismatchError",
    "SamplingError",
    "CeilingExceededError",
    "ExhaustedError",
    "MissingDatatypeError",
    "EnumerationBoundError",
    "Pattern",
    "Choice",
    "Group",
    "OneOrMore",
    "Ref",
    "Element",
    "Attribute",
    "Text",
    "Data",
    "Value",
    "Empty",
    "NotAllowed",
    "Grammar",
    "check_normal_form",
    "to_canonical",
    "from_canonical",
    "parse_grammar",
    "parse_grammar_file",
    "GfSystem",
    "Monomial",
    "compile_grammar",
    "load_system",
    "save_system",
    "CountingTable",
    "count_coefficients",
    "enumerate_documents",
    "NewtonResult",
    "SingularityEstimate",
    "OracleTable",
    "newton_evaluate",
    "estimate_singularity",
    "solve",
    "save_oracle",
    "load_oracle",
    "verify_oracle",
    "TOLERANCE",
    "VALUE_CEILING",
    "ITERATION_CAP",
    "FALL_TOLERANCE",
    "BRACKET_WIDTH",
    "AUTO_BACKOFF",
    "Sampler",
    "SamplerConfig",
    "SizeWindow",
    "WindowSample",
    "StreamStats",
    "StartElement",
    "EndElement",
    "TextContent",
    "DocNode",
    "serialize_stream",
    "events_to_bytes",
    "events_from_doc",
    "doc_to_xml",
    "skeleton_key",
    "matches",
    "default_datatype_samplers",
    "merge_registries",
    "canonical_value",
    "load_value_table",
    "bundled_grammar_path",
    "list_bundled_grammars",
    "load_bundled_grammar",
    "__version__",
]
