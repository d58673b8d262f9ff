"""Combs with holes over pluggable symmetric monoidal theories.

The package keeps two pictures of a process with a gap in the middle: a
concrete pair of morphisms around the hole, and the behaviour of that
pair under every way of filling the hole.  Decision procedures compare
representatives under several equivalence relations of increasing
context sensitivity, report certified verdicts with replayable
witnesses, and degrade to explicit partial coverage when a search is
genuinely unbounded.

The backends and the channel constructions are imported on first access,
through ``_LAZY`` and the module ``__getattr__``.  A CLI run imports the
backend module of its theory's kind and no other, numpy only for matrix and
unitary theories, and never ``dataclasses``: records are plain classes
(``core.Record``).
"""
import importlib

from .core import (
    Backend,
    BadSplit,
    BoundaryMismatch,
    Budget,
    CategoryError,
    Compose,
    Decision,
    DimensionMismatch,
    ExhaustionWitness,
    FactorWitness,
    Generator,
    HoleMismatch,
    Identity,
    IllTypedFunctor,
    IncompatibleStrategy,
    MorTerm,
    NonComposableMove,
    NotCartesian,
    NotCompactClosed,
    NotDaggerBackend,
    NotEnumerable,
    ObjectWord,
    ProbeWitness,
    SlidePathWitness,
    SlideStep,
    Symmetry,
    Tensor,
    TypeMismatch,
    UnknownGenerator,
    UnsupportedShape,
    Verdict,
    block_permutation,
    eval_term,
    permutation_term,
)
from .comb import (
    BackendFunctor,
    CombRep,
    braid_eval,
    comb,
    comb_compose,
    comb_tensor,
    equiv_comb,
    equiv_sigma,
    equiv_tau,
    extended_eval,
    identity_comb,
    lens_pair,
    lift_functor,
    sigma_congruence_search,
)
from .optic import check_probe_witness, equiv_optic, slide_related
from .polycomb import (
    poly,
    poly_compose_at,
    poly_equiv,
    poly_extended_eval,
    poly_name,
    star_counit,
    star_unit,
)
from .sampling import (
    enumerate_combs,
    env_words_for,
    random_isometry,
    random_unitary,
)

__version__ = "0.1.0"

#: public name -> the submodule that defines it, for the backends and channels
_LAZY = {
    name: module
    for module, names in (
        ("backends.finfun", "FinFunBackend FinMap functions_as_boolean_matrices"),
        ("backends.free", "AbsorbingPointedBackend IdempotentFreeBackend PointedFreeBackend "
                          "StrandMor WiringMor"),
        ("backends.matrix", "Mat MatrixBackend"),
        ("backends.unitary", "UnitaryBackend tensor_separate"),
        ("cpm", "CpmMorphism choi_matrix cpinf_equiv cpm_equiv dagger_comb "
                "is_completely_positive is_dagger_comb kraus_slices "
                "positive_probe_frame to_cpm"),
    )
    for name in names.split()
}


def __getattr__(name: str):
    """A name of ``_LAZY``, read from its module at each access (PEP 562)."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
