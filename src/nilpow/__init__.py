"""Exact computation of Lie derived powers of finitely presented
nil-generated algebras, with machine-checked finite-generation
certificates."""

from .algebra import (
    DerivedTower,
    bracket,
    eval_f,
    ideal_closure,
    jordan,
    lie_ideal_closure,
    lie_subalgebra_closure,
    mul,
    mul_table,
)
from .certify import (
    Certificate,
    CheckReport,
    NilpotencyReport,
    certify_generation,
    degree_split_check,
    fk_identity_check,
    generating_set,
    identity_check,
    lemma1_check,
    nilpotency_index,
)
from .fields import Field, parse_field
from .linalg import GradedVector, Subspace, span
from .words import AlgebraSpec, concat, dim_component, format_word, normal_words, word_index

__all__ = [
    "AlgebraSpec",
    "Certificate",
    "CheckReport",
    "DerivedTower",
    "Field",
    "GradedVector",
    "NilpotencyReport",
    "Subspace",
    "bracket",
    "certify_generation",
    "concat",
    "degree_split_check",
    "dim_component",
    "eval_f",
    "fk_identity_check",
    "format_word",
    "generating_set",
    "ideal_closure",
    "identity_check",
    "jordan",
    "lemma1_check",
    "lie_ideal_closure",
    "lie_subalgebra_closure",
    "mul",
    "mul_table",
    "nilpotency_index",
    "normal_words",
    "parse_field",
    "span",
    "word_index",
]

__version__ = "0.1.0"
