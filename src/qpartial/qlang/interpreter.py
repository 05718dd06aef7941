"""Denotational interpreter over partial density operators.

Statements denote positive linear trace-nonincreasing maps. Measurement
branching projects without renormalizing, which is exactly what makes
intermediate states sub-normalized: lost trace is mass parked on paths
that have not terminated. Every guard is used through orthonormal bases
B (r columns) of its range and E (d - r columns) of its complement's: an
``if`` sends ``B B+ rho B B+`` to its then-arm and ``E E+ rho E E+`` to
its else-arm. A while loop is evaluated as the supremum of its Kleene
approximants. The looping mass lies in the guard's range and the exited
mass in its complement's, so the chain runs on the two blocks

    a_0 = E+ rho E,   s_0 = B+ rho B
    (s_{n+1}, e_n) = step(s_n),   a_{n+1} = a_n + e_n

an increasing chain of exit blocks that ``_approximants`` yields and
``density.chain_supremum``, the one Kleene loop, consumes under its
stopping rule. The traces of the a_n are those of their lifts, and the
loop returns ``E a E+``.

A program is denoted once, before any run: ``denote`` compiles the AST
into a ``Denotation``, one function on raw matrices, which ``apply`` runs
on any input under any ``FixpointConfig``. Every gate run is certified and
every guard's maps are built by ``denote``, so a program is accepted or
rejected whatever path a run takes and however long its loops run.

Sequences are denoted in one normal form, ``_sequence``: nested ``Seq``
flattened and ``skip``, the identity, dropped. Gates are fused: each
maximal run ``U_1; ...; U_k`` of consecutive gates in it denotes the
single map ``rho -> U rho U+`` with ``U = U_k ... U_1``, formed once per
``denote`` and applied as one conjugation; a lone gate is applied as it
is. The product is certified like a gate, ``max_norm(U+U - I)``, within
``k * UNITARY_TOL``: to first order, the sum of the k factors' certified
defects. ``skip`` is dropped first; runs never cross ``if`` or
``while``. Fusion changes results only by rounding.

A loop step has two kernels. A body whose normal form is all gates runs
``_block_step``: ``denote`` compresses the run's product U into ``M = B+
U B`` (r x r) and ``C = E+ U B`` ((d - r) x r) once, and a step is ``s
-> M s M+`` with exit increment ``C s C+``. A body of only ``skip`` has
U = I. A body that holds ``if`` or ``while`` runs ``_body_step``: ``sigma
= [[body]](B s B+)``, then the looping block ``B+ sigma B`` and the exit
increment ``E+ sigma E``. For a ``|0>``/``|1>`` guard B and E are index
sets, so compressing and lifting are an exact gather and scatter, and
both kernels only leave out terms that are exact zeros in the
full-matrix chain; for other guards B and E come from an eigensolve and
the result differs from that chain by rounding.

Validation happens at the boundary. The input is a validated
``PartialDensityOperator``, unitaries are certified by ``denote_unitary``
(gate runs as above) and guards by ``ClosedSubspace``, all before the
input is touched; every statement maps partial density operators to
partial density operators by construction, so statements act on raw
arrays and the output is certified once, by ``apply``. A ``_block_step``
loop is certified once too: ``denote`` checks its pair (M, C) as a Kraus
split of the identity, ``max_norm(M+M + C+C - I_r)`` within ``max(k, 1) *
UNITARY_TOL`` for a run of k gates, so each exit increment ``C s C+`` is
PSD by construction and no step of it is checked. A ``_body_step`` loop
is not certified at ``denote``, since its body may hold an ``if`` or a
nested loop: ``cfg.monotonicity_check`` tests each of its exit increments
e_n for positivity, at every iteration. e_n is the exit block of the full
increment, which holds all of that increment's nonzero eigenvalues.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .. import linalg
from ..density import FixpointConfig, PartialDensityOperator, chain_supremum, nontermination_probability
from ..errors import ChainMonotonicityError
from ..logic import ClosedSubspace
from .ast import ApplyUnitary, Branch, Program, Seq, Skip, Statement, While
from .gates import _require_unitary, denote_unitary

Map = Callable[[np.ndarray, FixpointConfig, list], np.ndarray]


@dataclass
class RunReport:
    """Result of one program run.

    ``iterations_per_loop`` lists the fixpoint iteration counts of every
    loop evaluation in completion order. ``chain_trace_log`` holds the
    nondecreasing accumulator traces of the last of them, which is an
    outermost loop, as a loop completes after the loops in its body; for
    loop-free programs it degenerates to the output trace alone.
    """

    output: PartialDensityOperator
    iterations_per_loop: list[int]
    residual: float
    converged: bool
    chain_trace_log: list[float]

    def to_json(self) -> dict:
        return {
            "output": self.output.to_json(),
            "iterations_per_loop": list(self.iterations_per_loop),
            "residual": self.residual,
            "converged": self.converged,
            "chain_trace_log": list(self.chain_trace_log),
        }


class _GuardMaps:
    """A guard P as orthonormal bases B of its range (r columns) and E of
    its orthocomplement's (d - r columns), used through two maps:
    ``compress(L, R, a) = L+ a R`` and ``lift(L, a) = L a L+``.

    For a diagonal 0/1 projection (every ``|0>``/``|1>`` guard) B and E are
    index arrays, so compressing is an exact gather and lifting an exact
    scatter into zeros. For any other guard they are the eigenvectors of
    one ``eigh(P)`` with eigenvalue above and below one half, taken from P
    alone so that they do not depend on which bases of the guard or its
    complement were read before.
    """

    def __init__(self, guard: ClosedSubspace):
        p = guard.projection
        diag = np.diag(p)
        self.dim = guard.dim
        self.masked = bool(np.array_equal(p, np.diag(diag)) and np.all((diag == 0) | (diag == 1)))
        if self.masked:
            self.b, self.e = np.flatnonzero(diag == 1), np.flatnonzero(diag == 0)
        else:
            vals, vecs = np.linalg.eigh(p)
            self.b, self.e = vecs[:, vals > 0.5], vecs[:, vals <= 0.5]

    def compress(self, left: np.ndarray, right: np.ndarray, a: np.ndarray) -> np.ndarray:
        """``L+ a R`` for bases L and R of this guard."""
        if self.masked:
            return a[left[:, None], right]
        return left.conj().T @ a @ right

    def lift(self, left: np.ndarray, a: np.ndarray) -> np.ndarray:
        """The full-dimension matrix ``L a L+``, or vector ``L a``."""
        if not self.masked:
            return left @ a @ left.conj().T if a.ndim == 2 else left @ a
        x = np.zeros((self.dim,) * a.ndim, dtype=complex)
        x[(left[:, None], left) if a.ndim == 2 else left] = a
        return x


def _product(run: list[ApplyUnitary], total_qubits: int) -> np.ndarray:
    """``U_k ... U_1``; a lone gate's unitary is returned as it is, and an
    empty run is the identity."""
    factors = [denote_unitary(g.gate, g.targets, total_qubits) for g in run]
    u = factors[0] if factors else np.eye(2**total_qubits, dtype=complex)
    for factor in factors[1:]:
        u = factor @ u
    if len(factors) > 1:
        _require_unitary(u, len(factors) * linalg.UNITARY_TOL, f"run of {len(factors)} gates")
    return u


def denote(prog: Program) -> Denotation:
    """Denote ``prog`` once: certify every gate run and every gate-run loop's
    Kraus pair, build every guard's maps."""
    return Denotation(prog.dim, _denote(prog.body, prog.total_qubits))


@dataclass(frozen=True)
class Denotation:
    """A program's map, built once by ``denote`` and applied by ``apply``."""

    dim: int
    _map: Map = field(repr=False)

    def apply(self, input_state: PartialDensityOperator, cfg: FixpointConfig | None = None) -> RunReport:
        """Run the program on an input partial density operator.

        Nonconvergence of a loop within ``cfg.max_iterations`` is reported
        through ``converged=False``, not raised; a decreasing approximant
        chain (an interpreter bug, impossible for well-formed semantics)
        raises ``ChainMonotonicityError``.
        """
        cfg = cfg or FixpointConfig()
        linalg.require_same_dim(input_state.dim, self.dim)
        loops: list[tuple[int, bool, list[float]]] = []
        output = PartialDensityOperator(self._map(input_state.matrix, cfg, loops))
        return RunReport(
            output=output,
            iterations_per_loop=[count for count, _, _ in loops],
            residual=nontermination_probability(output),
            converged=all(converged for _, converged, _ in loops),
            chain_trace_log=loops[-1][2] if loops else [output.trace],
        )


def interpret(
    prog: Program, input_state: PartialDensityOperator, cfg: FixpointConfig | None = None
) -> RunReport:
    """Run a program once: ``denote(prog).apply(input_state, cfg)``."""
    return denote(prog).apply(input_state, cfg)


def _denote(stmt: Statement, total_qubits: int) -> Map:
    """The map ``(rho, cfg, loops) -> rho`` that ``stmt`` denotes, with its gate
    runs certified and its guards' maps built. Each loop evaluation under
    ``cfg`` appends ``(iterations, converged, traces)`` to ``loops``."""
    if isinstance(stmt, Branch):
        guard = _GuardMaps(stmt.guard)
        taken = _denote(stmt.then_body, total_qubits)
        other = _denote(stmt.else_body, total_qubits)

        def branch(rho: np.ndarray, cfg: FixpointConfig, loops: list) -> np.ndarray:
            kept = guard.lift(guard.b, guard.compress(guard.b, guard.b, rho))
            exited = guard.lift(guard.e, guard.compress(guard.e, guard.e, rho))
            return taken(kept, cfg, loops) + other(exited, cfg, loops)

        return branch
    if isinstance(stmt, While):
        guard = _GuardMaps(stmt.guard)
        body = _sequence(stmt.body)
        certified = all(isinstance(s, ApplyUnitary) for s in body)
        if certified:
            u = _product(body, total_qubits)
            m, c = guard.compress(guard.b, guard.b, u), guard.compress(guard.e, guard.b, u)
            _require_unitary(
                np.vstack((m, c)),
                max(len(body), 1) * linalg.UNITARY_TOL,
                f"Kraus pair [M; C] of the loop on a rank-{m.shape[0]} guard ({len(body)}-gate body)",
            )
            step = functools.partial(_block_step, m, c)
        else:
            step = functools.partial(_body_step, guard, _denote(stmt.body, total_qubits))

        def loop(rho: np.ndarray, cfg: FixpointConfig, loops: list) -> np.ndarray:
            chain = _approximants(guard, step, rho, cfg, loops, check=cfg.monotonicity_check and not certified)
            acc, count, converged, traces = chain_supremum(chain, cfg)
            loops.append((count, converged, traces))
            return guard.lift(guard.e, acc)

        return loop
    maps = []
    for is_gate, group in itertools.groupby(_sequence(stmt), lambda s: isinstance(s, ApplyUnitary)):
        if is_gate:
            maps.append(functools.partial(_conjugate, _product(list(group), total_qubits)))
        else:
            maps.extend(_denote(s, total_qubits) for s in group)
    return functools.partial(_compose, maps)


def _sequence(stmt: Statement) -> list[Statement]:
    """``stmt`` in normal form: the statements it runs in order, with nested
    ``Seq`` flattened and ``Skip``, the identity, dropped."""
    if isinstance(stmt, Seq):
        return [s for inner in stmt.statements for s in _sequence(inner)]
    if not isinstance(stmt, (Skip, ApplyUnitary, Branch, While)):
        raise TypeError(f"unknown statement node {stmt!r}")
    return [] if isinstance(stmt, Skip) else [stmt]


def _compose(maps: list[Map], rho: np.ndarray, cfg: FixpointConfig, loops: list) -> np.ndarray:
    for m in maps:
        rho = m(rho, cfg, loops)
    return rho


def _conjugate(u: np.ndarray, rho: np.ndarray, cfg: FixpointConfig, loops: list) -> np.ndarray:
    """``u rho u+``, the one place a gate or fused gate run is applied."""
    return u @ rho @ u.conj().T


def _block_step(m: np.ndarray, c: np.ndarray, s: np.ndarray, cfg: FixpointConfig, loops: list):
    """One Kleene step of a gate-run body: the looping block ``M s M+`` and
    the exit increment ``C s C+``."""
    return m @ s @ m.conj().T, c @ s @ c.conj().T


def _body_step(maps: _GuardMaps, body: Map, s: np.ndarray, cfg: FixpointConfig, loops: list):
    """One Kleene step of any other body: ``sigma = [[body]](B s B+)``, then
    the looping block ``B+ sigma B`` and the exit increment ``E+ sigma E``."""
    sigma = body(maps.lift(maps.b, s), cfg, loops)
    return maps.compress(maps.b, maps.b, sigma), maps.compress(maps.e, maps.e, sigma)


def _approximants(maps: _GuardMaps, step, rho: np.ndarray, cfg: FixpointConfig, loops: list, check: bool):
    """The loop's Kleene chain as exit blocks a_0, a_1, ... (see the module
    docstring), each step one call of ``step`` on the looping block, and its
    exit increment checked for positivity if ``check``."""
    acc, s = maps.compress(maps.e, maps.e, rho), maps.compress(maps.b, maps.b, rho)
    yield acc
    for n in itertools.count(1):
        s, increment = step(s, cfg, loops)
        if check:
            _require_positive_step(maps, increment, n)
        acc = acc + increment
        yield acc


def _require_positive_step(maps: _GuardMaps, block: np.ndarray, index: int) -> None:
    """Raise unless ``acc_{index+1} - acc_index``, whose exit block is
    ``block``, is PSD."""
    if not block.size:
        return
    ok, witness = linalg.is_positive_semidefinite(block)
    if not ok:
        raise ChainMonotonicityError(
            f"chain decreases between elements {index} and {index + 1}",
            index=index,
            witness=maps.lift(maps.e, witness),
        )
