"""Partial density operators, quantum events, and interval expectations.

The library models possibly nonterminating quantum computation: states
are Hermitian PSD operators with trace at most one, ordered by the
Loewner order; their measure view assigns sub-probabilities to closed
subspaces; expected values of bounded observables are compact intervals
that collapse to points exactly when all probability mass has arrived.
A small quantum while-language drives the whole stack: loops denote
increasing chains of partial states converging to a supremum.
"""

from .density import (
    FixpointConfig,
    PartialDensityOperator,
    chain_supremum,
    dyadic_diagonal_state,
    loewner_leq,
    nontermination_probability,
    scale,
)
from .intervals import (
    CompactInterval,
    add_intervals,
    directed_intersection,
    reverse_inclusion_leq,
    scale_interval,
    translate,
)
from .logic import (
    ClosedSubspace,
    gleason_measure,
    join,
    meet,
    orthocomplement,
    state_leq,
    subspace_from_vectors,
)
from .observables import (
    BorelInterval,
    BorelSet,
    BoundedObservable,
    distribution,
    e0,
    expected_interval,
    expected_interval_op,
    observable_square_interval,
    pvm_map,
    spectrum_bounds,
)
from .qlang import Denotation, RunReport, denote, interpret, parse

__version__ = "0.1.0"

__all__ = [
    "BorelInterval",
    "BorelSet",
    "BoundedObservable",
    "ClosedSubspace",
    "CompactInterval",
    "Denotation",
    "FixpointConfig",
    "PartialDensityOperator",
    "RunReport",
    "add_intervals",
    "chain_supremum",
    "denote",
    "directed_intersection",
    "distribution",
    "dyadic_diagonal_state",
    "e0",
    "expected_interval",
    "expected_interval_op",
    "gleason_measure",
    "interpret",
    "join",
    "loewner_leq",
    "meet",
    "nontermination_probability",
    "observable_square_interval",
    "orthocomplement",
    "parse",
    "pvm_map",
    "reverse_inclusion_leq",
    "scale",
    "scale_interval",
    "spectrum_bounds",
    "state_leq",
    "subspace_from_vectors",
    "translate",
]
