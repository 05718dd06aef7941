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

an increasing chain of exit blocks that ``density.chain_supremum``, the
one Kleene loop, consumes under its stopping rule. The traces of the a_n
are those of their lifts, and the loop returns ``E a E+``.

A program is denoted once, before any run: ``denote`` compiles the AST
into a ``Denotation`` that ``apply`` runs on any input under any
``FixpointConfig``. A block denotes the tuple of its nodes, run in order.
Each node is a map ``(rho, cfg, loops) -> rho`` on raw matrices:
``_Gates(u)`` conjugates by u, ``_If(guard, then, other)`` sends the
guard's block to the block ``then`` and its complement's to ``other``,
and ``_Loop(guard, body, m, c, ...)`` runs the chain above, appending
``(iterations, converged, traces)`` to ``loops`` when it completes.
Every gate run is certified and every guard's maps are built by
``denote``, so a program is accepted or rejected whatever path a run
takes and however long its loops run.

A block comes from the parser in normal form, the tuple of statements it
runs with ``skip``, the identity, already dropped; anything in it that is
not a statement raises ``TypeError``. Gates are fused: each maximal run
``U_1; ...; U_k`` of consecutive gates in a block is one ``_Gates`` node
with ``U = U_k ... U_1``, composed once per ``denote`` on qubit legs
(``_product``); a lone gate is applied as it is. Each gate is certified
at its own size, and the product like a gate, ``max_norm(U+U - I)``,
within ``k * UNITARY_TOL``: to first order, the sum of the k factors'
certified defects. Runs never cross ``if`` or ``while``. Fusion changes
results only by rounding.

Validation happens at the boundary. The input is a validated
``PartialDensityOperator``, gates are certified in the gates module
(gate runs as above) and guards by ``ClosedSubspace``, all before the
input is touched. Every node maps partial density operators to partial
density operators by construction, so nodes act on raw arrays, no loop
step is checked, and the output is certified once, by ``apply``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .. import linalg
from ..density import FixpointConfig, PartialDensityOperator, chain_supremum, nontermination_probability
from ..logic import ClosedSubspace
from .ast import ApplyUnitary, Block, Branch, Program, Statement, While
from .gates import _require_unitary, apply_unitary, denote_unitary


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
        """The full-dimension matrix ``L a L+``."""
        if not self.masked:
            return left @ a @ left.conj().T
        x = np.zeros((self.dim, self.dim), dtype=complex)
        x[left[:, None], left] = a
        return x


def _product(run: Block, total_qubits: int) -> np.ndarray:
    """``U_k ... U_1``: U_1 embedded, then each later gate applied on its
    qubit legs (``apply_unitary``), with no d x d factor; a lone gate's
    unitary is returned as it is, and an empty run is the identity."""
    if not run:
        return np.eye(2**total_qubits, dtype=complex)
    u = denote_unitary(run[0].gate, run[0].targets, total_qubits)
    for g in run[1:]:
        u = apply_unitary(g.gate, g.targets, total_qubits, u)
    if len(run) > 1:
        _require_unitary(u, len(run) * linalg.UNITARY_TOL, f"run of {len(run)} gates")
    return u


def denote(prog: Program) -> Denotation:
    """Denote ``prog`` once: certify every gate run and every gate-run loop's
    Kraus pair, build every guard's maps."""
    return Denotation(prog.dim, _denote(prog.body, prog.total_qubits))


@dataclass(frozen=True)
class Denotation:
    """A program's block of nodes, built once by ``denote`` and applied by ``apply``."""

    dim: int
    _root: tuple[_Node, ...] = field(repr=False)

    def apply(self, input_state: PartialDensityOperator, cfg: FixpointConfig | None = None) -> RunReport:
        """Run the program on an input partial density operator.

        Nonconvergence of a loop within ``cfg.max_iterations`` is reported
        through ``converged=False``, not raised. The output is certified
        once, as a ``PartialDensityOperator``: a run that leaves it not
        positive (an interpreter bug, impossible for well-formed semantics)
        raises ``NotPositiveError``.
        """
        cfg = cfg or FixpointConfig()
        linalg.require_same_dim(input_state.dim, self.dim)
        loops: list[tuple[int, bool, list[float]]] = []
        rho = input_state.matrix
        for node in self._root:
            rho = node(rho, cfg, loops)
        output = PartialDensityOperator(rho)
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


@dataclass(frozen=True, eq=False, slots=True)
class _Gates:
    """``rho -> u rho u+``, the one place a gate or fused gate run is applied."""

    u: np.ndarray

    def __call__(self, rho: np.ndarray, cfg: FixpointConfig, loops: list) -> np.ndarray:
        return self.u @ rho @ self.u.conj().T


@dataclass(frozen=True, eq=False, slots=True)
class _If:
    """The guard's block ``B B+ rho B B+`` through ``then``, its complement's
    ``E E+ rho E E+`` through ``other``, and the sum of the two results."""

    guard: _GuardMaps
    then: tuple[_Node, ...]
    other: tuple[_Node, ...]

    def __call__(self, rho: np.ndarray, cfg: FixpointConfig, loops: list) -> np.ndarray:
        g = self.guard
        kept = g.lift(g.b, g.compress(g.b, g.b, rho))
        exited = g.lift(g.e, g.compress(g.e, g.e, rho))
        for node in self.then:
            kept = node(kept, cfg, loops)
        for node in self.other:
            exited = node(exited, cfg, loops)
        return kept + exited


@dataclass(frozen=True, eq=False, slots=True)
class _Loop:
    """``while guard { body }``, the supremum of its chain of exit blocks
    (see the module docstring). A step has two kernels.

    If the body is a gate run with product U (U = I for an empty body,
    such as ``{ skip; }``), ``body`` is ``(_Gates(U),)`` and ``denote``
    compresses U once into ``m = B+ U B`` (r x r) and ``c = E+ U B`` ((d -
    r) x r), with their adjoints ``m_adj`` and ``c_adj`` formed there too:
    a step is ``s -> M s M+`` with exit increment ``C s C+``. ``denote``
    certifies (M, C) as a Kraus split of the identity,
    ``max_norm(M+M + C+C - I_r)`` within ``max(k, 1) * UNITARY_TOL`` for a
    run of k gates, so each ``C s C+`` is PSD by construction and no step
    is checked.

    A body that holds an ``if`` or a ``while`` leaves ``m`` and ``c`` None:
    a step is ``sigma = [[body]](B s B+)``, then the looping block ``B+
    sigma B`` and the exit increment ``E+ sigma E``. The body's own gate
    runs and loops are certified at ``denote``, and it is a sum of
    congruences, so each increment is PSD by construction and no step is
    checked; a faulty step that leaves the output not positive is caught
    by the output certificate of ``apply``.

    For a ``|0>``/``|1>`` guard B and E are index sets, an exact gather
    and scatter, and both kernels leave out only exact zeros of the
    full-matrix chain; other guards' B and E come from an eigensolve, and
    the result differs from that chain by rounding.
    """

    guard: _GuardMaps
    body: tuple[_Node, ...]
    m: np.ndarray | None = None
    c: np.ndarray | None = None
    m_adj: np.ndarray | None = None
    c_adj: np.ndarray | None = None

    def __call__(self, rho: np.ndarray, cfg: FixpointConfig, loops: list) -> np.ndarray:
        acc, count, converged, traces = chain_supremum(self.approximants(rho, cfg, loops), cfg)
        loops.append((count, converged, traces))
        return self.guard.lift(self.guard.e, acc)

    def step(self, s: np.ndarray, cfg: FixpointConfig, loops: list) -> tuple[np.ndarray, np.ndarray]:
        """One Kleene step on the looping block s: (next looping block, exit increment)."""
        if self.m is not None:
            return self.m @ s @ self.m_adj, self.c @ s @ self.c_adj
        g = self.guard
        sigma = g.lift(g.b, s)
        for node in self.body:
            sigma = node(sigma, cfg, loops)
        return g.compress(g.b, g.b, sigma), g.compress(g.e, g.e, sigma)

    def approximants(self, rho: np.ndarray, cfg: FixpointConfig, loops: list):
        """The chain's exit blocks a_0, a_1, ... on input ``rho``."""
        g = self.guard
        acc, s = g.compress(g.e, g.e, rho), g.compress(g.b, g.b, rho)
        yield acc
        while True:
            s, increment = self.step(s, cfg, loops)
            acc = acc + increment
            yield acc


_Node = _Gates | _If | _Loop


def _denote(block: Block, total_qubits: int) -> tuple[_Node, ...]:
    """The nodes ``block`` denotes, in order, with its gate runs and
    gate-run loops' Kraus pairs (M, C) certified and its guards' maps built."""
    nodes = []
    for is_gate, group in itertools.groupby(block, lambda s: isinstance(s, ApplyUnitary)):
        if is_gate:
            nodes.append(_Gates(_product(tuple(group), total_qubits)))
        else:
            for stmt in group:
                nodes.append(_control(stmt, total_qubits))
    return tuple(nodes)


def _control(stmt: Statement, total_qubits: int) -> _If | _Loop:
    """The node of an ``if`` or a ``while``; anything else in a block is
    not a statement."""
    if isinstance(stmt, Branch):
        then, other = stmt.then_body, stmt.else_body
        return _If(_GuardMaps(stmt.guard), _denote(then, total_qubits), _denote(other, total_qubits))
    if not isinstance(stmt, While):
        raise TypeError(f"unknown statement node {stmt!r}")
    guard, body = _GuardMaps(stmt.guard), stmt.body
    if not all(isinstance(s, ApplyUnitary) for s in body):
        return _Loop(guard, _denote(body, total_qubits))
    u = _product(body, total_qubits)
    m, c = guard.compress(guard.b, guard.b, u), guard.compress(guard.e, guard.b, u)
    _require_unitary(
        np.vstack((m, c)),
        max(len(body), 1) * linalg.UNITARY_TOL,
        f"Kraus pair [M; C] of the loop on a rank-{m.shape[0]} guard ({len(body)}-gate body)",
    )
    return _Loop(guard, (_Gates(u),), m, c, m.conj().T, c.conj().T)
