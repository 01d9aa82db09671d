"""Tripartite semantic vectors with matrix-vector tree composition.

A word is a triple (v, M, alpha): a semantic vector v split into domain,
stable-value, and inverted-value segments, a function matrix M describing
how the word transforms its neighbors, and a propagation weight alpha.
The package provides the diminutive negation operator J_mu over such
vectors, one composition step ``compose_pair``, ``compose_tree``, which
evaluates a binary parse tree by running the same step in one pass over
the tree's flat post-order arrays, lexicon I/O with seeded deterministic
initialization, and least-squares fits of the negation constraint system
that show the baseline model cannot satisfy it while the alpha-weighted
model can. ``tripsem.composition`` defines the two composition models.
"""

from .analysis import (
    FitResult,
    SampleSet,
    ScopeInvarianceReport,
    check_double_negation,
    default_demo_samples,
    domain_similarity,
    fit_negation_baseline,
    fit_negation_improved,
    scope_invariance_report,
    value_similarity,
)
from .composition import CompositionConfig, compose_pair, compose_tree
from .core import (
    FunctionMatrix,
    LexicalEntry,
    NegationOperator,
    SegmentLayout,
    SemanticVector,
    invert_vector,
    make_negation_matrix,
    negate_vector,
    split_segments,
)
from .errors import (
    DegenerateNegationError,
    DegenerateWeightsError,
    DimensionError,
    LexiconFormatError,
    TreeArityError,
    TreeParseError,
    TripsemError,
    UndefinedSimilarityError,
    UnknownTokenError,
)
from .lexicon import Lexicon, init_random, set_function_word
from .numerics import cosine
from .treeio import ParseTree, binarize, format_tree, parse_bracketed, parse_forest

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "SegmentLayout",
    "SemanticVector",
    "FunctionMatrix",
    "NegationOperator",
    "LexicalEntry",
    "make_negation_matrix",
    "negate_vector",
    "invert_vector",
    "split_segments",
    "CompositionConfig",
    "compose_pair",
    "compose_tree",
    "FitResult",
    "SampleSet",
    "fit_negation_baseline",
    "fit_negation_improved",
    "check_double_negation",
    "ScopeInvarianceReport",
    "scope_invariance_report",
    "domain_similarity",
    "value_similarity",
    "default_demo_samples",
    "Lexicon",
    "init_random",
    "set_function_word",
    "ParseTree",
    "parse_bracketed",
    "parse_forest",
    "format_tree",
    "binarize",
    "cosine",
    "TripsemError",
    "DimensionError",
    "DegenerateNegationError",
    "DegenerateWeightsError",
    "UndefinedSimilarityError",
    "UnknownTokenError",
    "TreeArityError",
    "TreeParseError",
    "LexiconFormatError",
]
