"""Denotational interpreter over partial density operators.

Statements denote positive linear trace-nonincreasing maps. Measurement
branching projects without renormalizing, which is exactly what makes
intermediate states sub-normalized: lost trace is mass parked on paths
that have not terminated. A ``|+>``/``|->`` guard is denoted as the
``|0>``/``|1>`` guard under H on its qubit (``_in_z_basis``), so every
guard is used through index arrays, B of the basis states in its range
and E of those in its complement's: an ``if`` sends ``B B+ rho B B+`` to
its then-arm and ``E E+ rho E E+`` to its else-arm. A while loop is the
supremum of its Kleene approximants. The looping mass lies in the
guard's range and the exited mass in its complement's, so the chain runs
on the two blocks

    a_0 = E+ rho E,   s_0 = B+ rho B
    body step:   (s_{n+1}, e_n) = step(s_n),   a_{n+1} = a_n + e_n
    Kraus pair:  s_{n+1} = M s_n M+,   a_n = a_0 + C (s_0 + ... + s_{n-1}) C+

an increasing chain of exit blocks that ``density.chain_supremum``, the
one Kleene loop, reads through its traces under its stopping rule. A
Kraus-pair loop's trace gap ``tr a_{n+1} - tr a_n`` is ``Re <C+C, s_n>``,
and its exit block is formed once, where the rule stops. The loop returns
``E a E+`` and appends ``(iterations, converged, traces)`` to ``loops``.

``denote`` compiles a program once into a ``Denotation`` that ``apply``
runs on any input under any ``FixpointConfig``. A block, in the parser's
normal form with ``skip`` dropped, denotes the tuple of its nodes, maps
``(rho, cfg, loops) -> rho`` on raw matrices run in order; anything in a
block that is not a statement raises ``TypeError``. Each maximal run
``U_1; ...; U_k`` of consecutive gates is one ``_Gates`` node with ``U =
U_k ... U_1``, each gate applied on its qubit legs to the identity's
columns (``_product``), and certified like a gate, ``max_norm(U+U - I)``
within ``k * UNITARY_TOL``. Runs never cross ``if`` or ``while``, and
fusion changes results only by rounding.

Validation happens at the boundary: ``denote`` certifies every gate run
and guard before any input is touched, whatever path a run then takes.
Every node maps partial density operators to partial density operators
by construction, so no step is checked; ``apply`` certifies the output.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .. import linalg
from ..density import FixpointConfig, PartialDensityOperator, chain_supremum, nontermination_probability
from .ast import ApplyUnitary, Block, Branch, Guard, Program, Statement, While
from .gates import _leg_index, _require_unitary, apply_unitary


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
    """A ``|0>``/``|1>`` guard on one qubit as index arrays, B of the basis
    states in its range and E of those in its complement's: the columns of
    ``gates._leg_index`` for that qubit, column j where it reads j. They are
    used through ``compress(L, a) = L+ a L``, an exact gather, and
    ``lift(L, a) = L a L+``, an exact scatter into zeros."""

    def __init__(self, guard: Guard, total_qubits: int):
        legs = _leg_index(np.eye(2), (guard.qubit,), total_qubits)
        self.dim = 2**total_qubits
        self.b, self.e = legs[:, int(guard.ket)], legs[:, 1 - int(guard.ket)]

    def compress(self, idx: np.ndarray, a: np.ndarray) -> np.ndarray:
        """``L+ a L`` for an index array L of this guard."""
        return a[idx[:, None], idx]

    def lift(self, idx: np.ndarray, a: np.ndarray) -> np.ndarray:
        """The full-dimension matrix ``L a L+``."""
        x = np.zeros((self.dim, self.dim), dtype=complex)
        x[idx[:, None], idx] = a
        return x


def _product(run: Block, total_qubits: int, columns: np.ndarray) -> np.ndarray:
    """``U_k ... U_1`` on ``columns`` of the identity, each gate applied on
    its qubit legs (``apply_unitary``); a run of k > 1 gates is certified
    there, within ``k * UNITARY_TOL``. Fewer gates leave exact entries."""
    for g in run:
        columns = apply_unitary(g.gate, g.targets, total_qubits, columns)
    if len(run) > 1:
        _require_unitary(columns, len(run) * linalg.UNITARY_TOL, f"run of {len(run)} gates")
    return columns


def denote(prog: Program) -> Denotation:
    """Denote ``prog`` once: certify every gate run, a gate-run loop's on its
    guard's columns, and build every guard's maps."""
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
        kept = g.lift(g.b, g.compress(g.b, rho))
        exited = g.lift(g.e, g.compress(g.e, rho))
        for node in self.then:
            kept = node(kept, cfg, loops)
        for node in self.other:
            exited = node(exited, cfg, loops)
        return kept + exited


@dataclass(frozen=True, eq=False, slots=True)
class _Loop:
    """``while guard { body }``, the supremum of its chain of exit blocks
    (see the module docstring), read by ``chain_supremum`` through the
    chain's traces. A step runs one of two kernels on the guard's index
    blocks, exact gathers and scatters, and is not checked.

    If the body is a gate run with product U (U = I for an empty body),
    ``body`` is ``()`` and the loop is its Kraus pair: ``denote`` forms U B
    on the guard's columns, certified there as a run (``_product``), splits
    its rows into ``m = B+ U B`` and ``c = E+ U B``, with adjoints, and
    forms ``gram = C+C``. The chain carries the looping block and its
    running sum ``S``: a step is the congruence ``s -> M s M+`` and
    ``S -> S + s``, its trace gap is ``Re <C+C, s> = tr(C s C+)``, and the
    exit block ``a_0 + C S C+`` is formed once, where the chain stops. Each
    term is PSD by construction; ``(U B)+ U B = M+M + C+C``, so the run's
    certificate is the Kraus certificate.

    Any other body leaves ``m``, ``c`` and ``gram`` None: a step is
    ``sigma = [[body]](B s B+)``, then the looping block ``B+ sigma B`` and
    the exit increment ``E+ sigma E``, added to the exit block, PSD as a sum
    of congruences. A faulty step of either kernel is caught by ``apply``'s
    output certificate.
    """

    guard: _GuardMaps
    body: tuple[_Node, ...]
    m: np.ndarray | None = None
    c: np.ndarray | None = None
    m_adj: np.ndarray | None = None
    c_adj: np.ndarray | None = None
    gram: np.ndarray | None = None

    def __call__(self, rho: np.ndarray, cfg: FixpointConfig, loops: list) -> np.ndarray:
        g = self.guard
        a, s = g.compress(g.e, rho), g.compress(g.b, rho)
        total = None  # the block kernel's S_n = s_0 + ... + s_{n-1}, for n >= 1

        def traces():
            """``tr a_0, tr a_1, ...``, each step run only when its trace is read."""
            nonlocal a, s, total
            t = float(a.trace().real)
            yield t
            if self.m is None:
                while True:
                    s, increment = self.step(s, cfg, loops)
                    a = a + increment
                    yield float(a.trace().real)
            while True:
                total = s if total is None else total + s
                t += float(np.vdot(self.gram, s).real)
                yield t
                s = self.m @ s @ self.m_adj

        count, converged, log = chain_supremum(traces(), cfg)
        loops.append((count, converged, log))
        if total is not None:
            a = a + self.c @ total @ self.c_adj
        return g.lift(g.e, a)

    def step(self, s: np.ndarray, cfg: FixpointConfig, loops: list) -> tuple[np.ndarray, np.ndarray]:
        """One body step on the looping block s: (next looping block, exit increment)."""
        g = self.guard
        sigma = g.lift(g.b, s)
        for node in self.body:
            sigma = node(sigma, cfg, loops)
        return g.compress(g.b, sigma), g.compress(g.e, sigma)


_Node = _Gates | _If | _Loop


def _denote(block: Block, total_qubits: int) -> tuple[_Node, ...]:
    """The nodes ``block`` denotes, in order, with its gate runs certified,
    gate-run loops as their Kraus pairs (M, C), and its guards' maps built."""
    nodes = []
    statements = _in_z_basis(block, total_qubits)
    for is_gate, group in itertools.groupby(statements, lambda s: isinstance(s, ApplyUnitary)):
        if is_gate:
            nodes.append(_Gates(_product(tuple(group), total_qubits, np.eye(2**total_qubits, dtype=complex))))
        else:
            for stmt in group:
                nodes.append(_control(stmt, total_qubits))
    return tuple(nodes)


def _in_z_basis(block: Block, total_qubits: int):
    """``block`` with each statement guarded by ``|+>``/``|->`` on a qubit q
    in its ``|0>``/``|1>`` form under H on q, as ``P+- = H P0/1 H``:

        if q in |+-> { A } else { B }  ->  h q; if q in |0/1> { h q; A } else { h q; B }
        while q in |+-> { S }          ->  h q; while q in |0/1> { h q; S; h q; } h q;

    The H's fuse into neighbouring gate runs; bodies are rewritten when
    denoted. A guard's qubit is checked first, so an error names the guard."""
    for stmt in block:
        guard = stmt.guard if isinstance(stmt, (Branch, While)) else None
        if guard is not None and not 0 <= guard.qubit < total_qubits:
            raise ValueError(f"guard qubit {guard.qubit} out of range for {total_qubits} qubit(s)")
        ket = {"+": "0", "-": "1"}.get(guard.ket) if guard is not None else None
        if ket is None:
            yield stmt
            continue
        h, z_guard = ApplyUnitary("H", (guard.qubit,)), Guard(guard.qubit, ket)
        if isinstance(stmt, Branch):
            yield from (h, Branch(z_guard, (h, *stmt.then_body), (h, *stmt.else_body)))
        else:
            yield from (h, While(z_guard, (h, *stmt.body, h)), h)


def _control(stmt: Statement, total_qubits: int) -> _If | _Loop:
    """The node of an ``if`` or a ``while`` on a ``|0>``/``|1>`` guard;
    anything else in a block is not a statement."""
    if isinstance(stmt, Branch):
        guard = _GuardMaps(stmt.guard, total_qubits)
        return _If(guard, _denote(stmt.then_body, total_qubits), _denote(stmt.else_body, total_qubits))
    if not isinstance(stmt, While):
        raise TypeError(f"unknown statement node {stmt!r}")
    guard, body = _GuardMaps(stmt.guard, total_qubits), stmt.body
    if not all(isinstance(s, ApplyUnitary) for s in body):
        return _Loop(guard, _denote(body, total_qubits))
    x = _product(body, total_qubits, np.eye(guard.dim, dtype=complex)[:, guard.b])
    m, c = x[guard.b], x[guard.e]
    c_adj = c.conj().T
    return _Loop(guard, (), m, c, m.conj().T, c_adj, c_adj @ c)
