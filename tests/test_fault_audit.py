"""Fault audit of the verify suites: each row injects one known fault and
pins the exact set of checks that catch it.

A row is a list of monkeypatches plus, for each suite it runs, the set of
failing checks expected from ``run_suite(suite, [2, 3, 4], 30, 42)``. A
fault that no check catches is a survivor; its row says why that is
harmless. A new check joins the table by changing the expected sets of the
rows it catches.
"""

import dataclasses

import numpy as np
import pytest

from qpartial import linalg, logic, verify
from qpartial.errors import CrossCheckError
from qpartial.intervals import CompactInterval, directed_intersection
from qpartial.logic import ClosedSubspace
from qpartial.observables import BoundedObservable, missing_mass_interval
from qpartial.qlang import interpreter

DIMS, TRIALS, SEED = [2, 3, 4], 30, 42


def one_step_supremum(traces, cfg=None):
    """``chain_supremum`` that stops after one step and claims convergence."""
    it = iter(traces)
    return 1, True, [next(it), next(it)]


_scale = verify.scale


def scale_to_f_above_half(f, r):
    """``scale`` that returns f itself for r > 1/2."""
    return f if r > 0.5 else _scale(f, r)


def square_interval_from_extremes(a, f):
    """``observable_square_interval`` with its spectrum range taken from the
    extreme eigenvalues, not the extreme eigenvalue magnitudes."""
    r = BoundedObservable(a)
    k, big_k = r.eigenvalues[0], r.eigenvalues[-1]
    center = float(np.trace(r.operator @ r.operator @ f.matrix).real)
    return missing_mass_interval(center, f, k * k, big_k * big_k)


_loop_step = interpreter._Loop.step


def negated_body_step_exit(loop, s, cfg, loops):
    """``_Loop.step``, the body-step kernel, with its exit increment negated."""
    s, increment = _loop_step(loop, s, cfg, loops)
    return s, -increment


_control = interpreter._control


def negated_block_exit(stmt, total_qubits):
    """``_control`` whose gate-run loops, the block (Kraus-pair) kernel,
    carry -C+ for C+, so their exit block is a_0 - C S C+."""
    node = _control(stmt, total_qubits)
    if isinstance(node, interpreter._Loop) and node.m is not None:
        node = dataclasses.replace(node, c_adj=-node.c_adj)
    return node


def narrowed_intersection(chain):
    """``directed_intersection`` with its limit narrowed by 1e-3 at each end."""
    limit = directed_intersection(chain)
    return CompactInterval(limit.lo + 1e-3, limit.hi - 1e-3)


def vdot_gleason_measure(f, k):
    """``gleason_measure`` with its kernel read as ``np.vdot(P, f)``."""
    linalg.require_same_dim(f.dim, k.dim)
    return logic._measure_value(complex(np.vdot(k.projection, f.matrix)))


def unclamped_measure_value(trace: complex) -> float:
    """``logic._measure_value`` without its clamp to [0, 1]."""
    if abs(trace.imag) > linalg.IMAG_TOL:
        raise CrossCheckError(f"measure has imaginary part {trace.imag:.3e}")
    return trace.real


# (row id, [(module, name, replacement)], {suite: failing checks})
FAULTS = [
    (
        "chain_supremum_stops_after_one_step",
        [(verify, "chain_supremum", one_step_supremum), (interpreter, "chain_supremum", one_step_supremum)],
        {
            "dcpo": {"geometric_chain_supremum", "gleason_scott_continuity"},
            "interval": {"expected_interval_scott_continuity"},
            # the diverging loop exits no mass at any step, so stopping it
            # after one step is still its exact limit
            "qlang": {"fair_coin_residuals"},
        },
    ),
    (
        "join_returns_its_first_argument",
        [(verify, "join", lambda a, b: a)],
        {"gleason": {"lattice_laws", "orthogonal_additivity", "subprobability_axioms"}},
    ),
    (
        "meet_returns_the_zero_event",
        [(verify, "meet", lambda a, b: ClosedSubspace.zero(a.dim))],
        {"gleason": {"lattice_laws"}},
    ),
    (
        "state_leq_always_holds",
        [(verify, "state_leq", lambda f, g: (True, None))],
        {"gleason": {"loewner_implies_measure_leq"}},
    ),
    (
        "scale_returns_f_above_one_half",
        [(verify, "scale", scale_to_f_above_half)],
        {
            "gleason": {"measure_linearity"},
            # dcpo scales only to read off the geometric chain's supremum,
            # (1 - 2^-N) f with N large, and f is that chain's true
            # supremum: the fault makes the answer exact, not wrong
            "dcpo": set(),
        },
    ),
    (
        "nontermination_probability_is_zero",
        [(interpreter, "nontermination_probability", lambda f: 0.0)],
        {"qlang": {"diverging_loop", "fair_coin_residuals"}},
    ),
    (
        # no loop step is checked: the output certificate of the trial's
        # first run rejects the output that the decreasing chain leaves
        "body_step_exit_increment_negated",
        [(interpreter._Loop, "step", negated_body_step_exit)],
        {"qlang": {"approximant_chain_increasing"}},
    ),
    (
        # the output certificate of apply rejects the exit block that is not
        # PSD, in the fair coin's loop and in the random programs' gate-run
        # loops; the diverging loop's body is empty, so its C is zero and
        # negating C+ changes nothing
        "block_exit_adjoint_negated",
        [(interpreter, "_control", negated_block_exit)],
        {"qlang": {"approximant_chain_increasing", "fair_coin_residuals"}},
    ),
    (
        # a narrower limit stays inside every element of the nested chain,
        # so only its equality with the chain's last element catches it
        "directed_intersection_narrowed",
        [(verify, "directed_intersection", narrowed_intersection)],
        {"interval": {"directed_intersection_contained", "expected_interval_scott_continuity"}},
    ),
    (
        "square_law_from_extreme_eigenvalues",
        [(verify, "observable_square_interval", square_interval_from_extremes)],
        {"interval": {"square_law"}},
    ),
    (
        # a survivor, and a harmless one: the clamp moves only values already
        # within PSD_TOL of [0, 1], so without it a measure differs by at most
        # PSD_TOL, far inside every tolerance the checks allow (at these
        # seeds it moves no value at all)
        "measure_value_without_clamp",
        [(logic, "_measure_value", unclamped_measure_value), (verify, "_measure_value", unclamped_measure_value)],
        {"gleason": set(), "dcpo": set()},
    ),
    (
        # a survivor: every state a suite builds is PSD by construction up to
        # rounding far below 1e-9, so no check meets an eigenvalue between the
        # two floors, and `order_laws` scales its perturbation by PSD_TOL
        # itself, so the bound it tests grows with the floor. The floor is
        # pinned by tests/test_linalg.py::TestPositiveSemidefinite::
        # test_the_floor_is_one_billionth, which rejects an eigenvalue of -2e-9
        "psd_floor_raised_to_one_millionth",
        [(linalg, "PSD_TOL", 1e-6)],
        {"gleason": set(), "dcpo": set(), "interval": set(), "qlang": set()},
    ),
    (
        # a survivor, and a harmless one: vdot(P, f) is tr(P+ f), which for
        # a Hermitian f is the complex conjugate of tr(P f); only the sign of
        # the imaginary part changes, so the value and the IMAG_TOL check
        # come out the same
        "gleason_measure_kernel_as_vdot",
        [(logic, "gleason_measure", vdot_gleason_measure), (verify, "gleason_measure", vdot_gleason_measure)],
        {"gleason": set(), "dcpo": set()},
    ),
]

CASES = [
    pytest.param(patches, suite, expected, id=f"{row}-{suite}")
    for row, patches, failing in FAULTS
    for suite, expected in failing.items()
]


def failing_checks(suite: str) -> set[str]:
    report = verify.run_suite(suite, DIMS, TRIALS, SEED)
    return {check.name for check in report.checks if not check.passed}


@pytest.mark.parametrize("suite", verify.SUITES)
def test_every_suite_passes_without_a_fault(suite):
    assert failing_checks(suite) == set()


@pytest.mark.parametrize("patches, suite, expected", CASES)
def test_fault_is_caught_by_exactly_these_checks(monkeypatch, patches, suite, expected):
    for module, name, replacement in patches:
        monkeypatch.setattr(module, name, replacement)
    assert failing_checks(suite) == expected
