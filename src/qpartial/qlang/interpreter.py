"""Denotational interpreter over partial density operators.

Statements denote positive linear trace-nonincreasing maps. Measurement
branching projects without renormalizing, which is exactly what makes
intermediate states sub-normalized: lost trace is mass parked on paths
that have not terminated. A while loop is evaluated as the supremum of
its Kleene approximants

    acc_0 = P_exit rho P_exit,   sigma_0 = rho
    sigma_{n+1} = [[body]](P_guard sigma_n P_guard)
    acc_{n+1} = acc_n + P_exit sigma_{n+1} P_exit

an increasing chain that ``_approximants`` yields and
``density.chain_supremum``, the one Kleene loop, consumes under its
stopping rule.

Validation happens at the boundary. The input is a validated
``PartialDensityOperator``, unitaries are certified by
``denote_unitary`` and guards by ``ClosedSubspace``; every statement maps
partial density operators to partial density operators by construction,
so statements act on raw arrays and the output is certified once, in
``interpret``. Inside loops, ``cfg.monotonicity_check`` tests each step's
increment ``P_exit sigma_n P_exit`` for positivity on the r x r block of
the exit subspace (the increment's nonzero eigenvalues all live there).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .. import linalg
from ..density import FixpointConfig, PartialDensityOperator, chain_supremum, nontermination_probability
from ..errors import ChainMonotonicityError, DimensionMismatchError
from ..logic import ClosedSubspace, orthocomplement
from .ast import ApplyUnitary, Branch, Program, Seq, Skip, Statement, While
from .gates import denote_unitary


@dataclass
class RunReport:
    """Result of one program run.

    ``iterations_per_loop`` lists the fixpoint iteration counts of every
    loop evaluation in completion order. ``chain_trace_log`` holds the
    nondecreasing accumulator traces of the final outermost loop (the
    chain whose supremum becomes the output); for loop-free programs it
    degenerates to the output trace alone.
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
    """``P rho P`` and ``Q rho Q`` for a guard P and its orthocomplement Q.

    A diagonal 0/1 projection (every ``|0>``/``|1>`` guard) acts as an
    elementwise mask, which never writes ``-0.0``; any other guard as the
    dense product. ``exit_block`` and ``lift`` move between the full space
    and the range of Q, for the per-step monotonicity check.
    """

    def __init__(self, guard: ClosedSubspace):
        p = guard.projection
        diag = np.diag(p)
        self.guard = guard
        self.masked = bool(np.array_equal(p, np.diag(diag)) and np.all((diag == 0) | (diag == 1)))
        if self.masked:
            inside = diag == 1
            self._keep = np.outer(inside, inside)
            self._exit = np.outer(~inside, ~inside)
            self._exit_index = np.flatnonzero(~inside)
        else:
            self._complement = orthocomplement(guard)
            self._keep = p
            self._exit = self._complement.projection

    def keep(self, rho: np.ndarray) -> np.ndarray:
        return self._apply(self._keep, rho)

    def exit(self, rho: np.ndarray) -> np.ndarray:
        return self._apply(self._exit, rho)

    def _apply(self, op: np.ndarray, rho: np.ndarray) -> np.ndarray:
        return np.where(op, rho, 0) if self.masked else op @ rho @ op

    def exit_block(self, rho: np.ndarray) -> np.ndarray:
        """Compression ``B+ rho B`` onto an orthonormal basis B of Q's range."""
        if self.masked:
            return rho[np.ix_(self._exit_index, self._exit_index)]
        b = self._complement.basis
        return b.conj().T @ rho @ b

    def lift(self, w: np.ndarray) -> np.ndarray:
        """The full-dimension vector ``B w``."""
        if not self.masked:
            return self._complement.basis @ w
        x = np.zeros(self.guard.dim, dtype=complex)
        x[self._exit_index] = w
        return x


@dataclass
class _RunState:
    cfg: FixpointConfig
    iterations: list[int] = field(default_factory=list)
    converged: bool = True
    chain_trace_log: list[float] = field(default_factory=list)
    unitary_cache: dict[int, np.ndarray] = field(default_factory=dict)
    guard_cache: dict[int, _GuardMaps] = field(default_factory=dict)
    total_qubits: int = 0

    def guard_maps(self, stmt: Branch | While) -> _GuardMaps:
        maps = self.guard_cache.get(id(stmt))
        if maps is None:
            maps = _GuardMaps(stmt.guard)
            self.guard_cache[id(stmt)] = maps
        return maps


def interpret(
    prog: Program, input_state: PartialDensityOperator, cfg: FixpointConfig | None = None
) -> RunReport:
    """Run a program on an input partial density operator.

    Nonconvergence of a loop within ``cfg.max_iterations`` is reported
    through ``converged=False``, not raised; a decreasing approximant
    chain (an interpreter bug, impossible for well-formed semantics)
    raises ``ChainMonotonicityError``.
    """
    cfg = cfg or FixpointConfig()
    if input_state.dim != prog.dim:
        raise DimensionMismatchError(
            f"input has dimension {input_state.dim}, program needs {prog.dim}"
        )
    state = _RunState(cfg=cfg, total_qubits=prog.total_qubits)
    out = _eval(prog.body, input_state.matrix, state, loop_depth=0)
    output = PartialDensityOperator(out)
    if not state.chain_trace_log:
        state.chain_trace_log = [output.trace]
    return RunReport(
        output=output,
        iterations_per_loop=state.iterations,
        residual=nontermination_probability(output),
        converged=state.converged,
        chain_trace_log=state.chain_trace_log,
    )


def _eval(stmt: Statement, rho: np.ndarray, state: _RunState, loop_depth: int) -> np.ndarray:
    if isinstance(stmt, Skip):
        return rho
    if isinstance(stmt, Seq):
        for inner in stmt.statements:
            rho = _eval(inner, rho, state, loop_depth)
        return rho
    if isinstance(stmt, ApplyUnitary):
        u = state.unitary_cache.get(id(stmt))
        if u is None:
            u = denote_unitary(stmt.gate, stmt.targets, state.total_qubits)
            state.unitary_cache[id(stmt)] = u
        return u @ rho @ u.conj().T
    if isinstance(stmt, Branch):
        maps = state.guard_maps(stmt)
        taken = _eval(stmt.then_body, maps.keep(rho), state, loop_depth)
        other = _eval(stmt.else_body, maps.exit(rho), state, loop_depth)
        return taken + other
    if isinstance(stmt, While):
        return _eval_while(stmt, rho, state, loop_depth)
    raise TypeError(f"unknown statement node {stmt!r}")


def _eval_while(stmt: While, rho: np.ndarray, state: _RunState, loop_depth: int) -> np.ndarray:
    chain = _approximants(stmt, rho, state, loop_depth)
    acc, count, converged, traces = chain_supremum(chain, state.cfg)
    state.iterations.append(count)
    state.converged = state.converged and converged
    if loop_depth == 0:
        state.chain_trace_log = traces
    return acc


def _approximants(stmt: While, rho: np.ndarray, state: _RunState, loop_depth: int):
    """The loop's Kleene chain acc_0, acc_1, ... (see the module docstring)."""
    maps = state.guard_maps(stmt)
    acc = maps.exit(rho)
    yield acc
    sigma = rho
    for n in itertools.count(1):
        sigma = _eval(stmt.body, maps.keep(sigma), state, loop_depth + 1)
        step = maps.exit(sigma)
        if state.cfg.monotonicity_check:
            _require_positive_step(maps, step, n)
        acc = acc + step
        yield acc


def _require_positive_step(maps: _GuardMaps, step: np.ndarray, index: int) -> None:
    """Raise unless ``acc_{index+1} - acc_index = step`` is PSD."""
    block = maps.exit_block(step)
    if not block.size:
        return
    ok, witness = linalg.is_positive_semidefinite(block)
    if not ok:
        raise ChainMonotonicityError(
            f"chain decreases between elements {index} and {index + 1}",
            index=index,
            witness=maps.lift(witness),
        )
