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

A program is denoted once, before the run: ``_denote`` compiles the AST
into one function on raw matrices, and ``interpret`` applies it to the
input. Every gate run is certified and every guard's maps are built while
the function is compiled, so a program is accepted or rejected whatever
path a run takes and however long its loops run.

Gates are fused: each maximal run ``U_1; ...; U_k`` of consecutive gates
in a ``Seq`` denotes the single map ``rho -> U rho U+`` with ``U = U_k ...
U_1``, so the product is formed once per ``interpret`` call and every run
is applied as one conjugation. A lone gate (k = 1) is applied as it is,
with no product. The product is certified like a gate, ``max_norm(U+U -
I)``, within ``k * UNITARY_TOL``: to first order, the sum of the k
factors' certified defects. Runs never extend across ``skip``, ``if`` or
``while``. Fusion changes results only by rounding.

Validation happens at the boundary. The input is a validated
``PartialDensityOperator``, unitaries are certified by ``denote_unitary``
(gate runs as above) and guards by ``ClosedSubspace``, all before the
input is touched; every statement maps partial density operators to
partial density operators by construction, so statements act on raw
arrays and the output is certified once, in ``interpret``. Inside loops,
``cfg.monotonicity_check`` tests each step's increment ``P_exit sigma_n
P_exit`` for positivity on the r x r block of the exit subspace (the
increment's nonzero eigenvalues all live there).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .. import linalg
from ..density import FixpointConfig, PartialDensityOperator, chain_supremum, nontermination_probability
from ..errors import ChainMonotonicityError, DimensionMismatchError
from ..logic import ClosedSubspace, orthocomplement
from .ast import ApplyUnitary, Branch, Program, Seq, Skip, Statement, While
from .gates import _require_unitary, denote_unitary

Map = Callable[[np.ndarray], np.ndarray]


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


def _product(run: list[ApplyUnitary], total_qubits: int) -> np.ndarray:
    """``U_k ... U_1``; a lone gate's unitary is returned as it is."""
    factors = [denote_unitary(g.gate, g.targets, total_qubits) for g in run]
    u = factors[0]
    for factor in factors[1:]:
        u = factor @ u
    if len(factors) > 1:
        _require_unitary(u, len(factors) * linalg.UNITARY_TOL, f"run of {len(factors)} gates")
    return u


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
    loops: list[tuple[int, bool, list[float] | None]] = []
    run = _denote(prog.body, prog.total_qubits, cfg, loops, outermost=True)
    output = PartialDensityOperator(run(input_state.matrix))
    outer_logs = [traces for _, _, traces in loops if traces is not None]
    return RunReport(
        output=output,
        iterations_per_loop=[count for count, _, _ in loops],
        residual=nontermination_probability(output),
        converged=all(converged for _, converged, _ in loops),
        chain_trace_log=outer_logs[-1] if outer_logs else [output.trace],
    )


def _denote(stmt: Statement, total_qubits: int, cfg: FixpointConfig, loops: list, outermost: bool) -> Map:
    """The map ``stmt`` denotes on raw matrices, with its gate runs certified
    and its guards' maps built. Each loop evaluation appends ``(iterations,
    converged, traces)`` to ``loops``, with traces ``None`` inside a loop body."""
    if isinstance(stmt, Skip):
        return lambda rho: rho
    if isinstance(stmt, (Seq, ApplyUnitary)):
        statements = stmt.statements if isinstance(stmt, Seq) else (stmt,)
        maps = []
        for is_gate, group in itertools.groupby(statements, lambda s: isinstance(s, ApplyUnitary)):
            if is_gate:
                maps.append(functools.partial(_conjugate, _product(list(group), total_qubits)))
            else:
                maps.extend(_denote(s, total_qubits, cfg, loops, outermost) for s in group)
        return functools.partial(_compose, maps)
    if isinstance(stmt, Branch):
        guard = _GuardMaps(stmt.guard)
        taken = _denote(stmt.then_body, total_qubits, cfg, loops, outermost)
        other = _denote(stmt.else_body, total_qubits, cfg, loops, outermost)
        return lambda rho: taken(guard.keep(rho)) + other(guard.exit(rho))
    if isinstance(stmt, While):
        guard = _GuardMaps(stmt.guard)
        body = _denote(stmt.body, total_qubits, cfg, loops, outermost=False)

        def loop(rho: np.ndarray) -> np.ndarray:
            chain = _approximants(guard, body, rho, cfg.monotonicity_check)
            acc, count, converged, traces = chain_supremum(chain, cfg)
            loops.append((count, converged, traces if outermost else None))
            return acc

        return loop
    raise TypeError(f"unknown statement node {stmt!r}")


def _compose(maps: list[Map], rho: np.ndarray) -> np.ndarray:
    for m in maps:
        rho = m(rho)
    return rho


def _conjugate(u: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """``u rho u+``, the one place a gate or fused gate run is applied."""
    return u @ rho @ u.conj().T


def _approximants(maps: _GuardMaps, body: Map, rho: np.ndarray, check: bool):
    """The loop's Kleene chain acc_0, acc_1, ... (see the module docstring)."""
    acc = maps.exit(rho)
    yield acc
    sigma = rho
    for n in itertools.count(1):
        sigma = body(maps.keep(sigma))
        step = maps.exit(sigma)
        if check:
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
