"""The workloads: seeded inputs, the timed call, and the output check.

Every workload has one caller that waits for each reply (a closed loop)
and drives the user entry point ``qpartial.cli.main`` with its output
captured. Inputs come from the benchmark's own seeded numpy code, never
from ``qpartial.sampling``, so a library change cannot change the work.
An op's input is generated and written just before the op and its output
is checked just after it; only the call itself is timed.
"""

from __future__ import annotations

import io
import json
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

import reference

MATCH_TOL = 1e-8
VERIFY_SUITES = ("gleason", "dcpo", "interval", "qlang")
# CLI defaults of `qpartial verify`; the workload is defined as these.
VERIFY_DEFAULTS = {"seed": 42, "dims": [2, 3, 4], "trials": 100}


@dataclass
class Outcome:
    """Result of checking one op against its reference.

    ``attempted``/``failed`` count ops, or check-trials for verify.
    ``consistent`` is False when an output disagrees with the benchmark's
    own reference or is malformed. ``steps`` counts Kleene steps.
    """

    attempted: int
    failed: int
    consistent: bool
    steps: int = 0


def cli_call(argv: list[str]):
    """``qpartial.cli.main(argv)`` with stdout and stderr captured.

    The module attribute is looked up on every call, so the traced run's
    wrapper is used when it is installed.
    """
    import qpartial.cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = qpartial.cli.main(argv)
    except Exception:  # an escaped error is a failed op, not a crashed run
        return -1, out.getvalue(), traceback.format_exc()
    return code, out.getvalue(), err.getvalue()


def _report_failure(workload: str, index: int, why: str) -> None:
    print(f"{workload} op {index}: {why}", file=sys.stderr)


def _write_operator(path: Path, m: np.ndarray) -> None:
    text = json.dumps({"dim": m.shape[0], "re": m.real.tolist(), "im": m.imag.tolist()})
    path.write_text(text, encoding="utf-8")


class RunD64:
    """``qpartial run`` on the 6-qubit loop program, from the ground state.

    The loop is the roadmap's ``while a in |1> { h a; cnot a b; t c; h e;
    cnot e f; }``. Its exit mass halves every step whatever the other
    qubits hold, so every op takes the same number of Kleene steps. The
    prefix is ``h a`` and three seeded gates on qubits b..f (the roadmap
    prefix also has four gates), so no program repeats within a run.
    """

    name = "run-d64"
    layers = ("cli", "qlang.parser", "qlang.gates", "qlang.interpreter", "density", "numpy.linalg")
    LOOP_BODY = (("h", "a"), ("cnot", "a", "b"), ("t", "c"), ("h", "e"), ("cnot", "e", "f"))
    ROADMAP_PREFIX = (("h", "a"), ("h", "b"), ("cnot", "a", "c"), ("h", "d"))
    PREFIX_GATES = [(g, q) for g in "xyzhst" for q in "bcdef"] + [
        ("cnot", c, t) for c in "bcdef" for t in "bcdef" if c != t
    ]

    def __init__(self, seed: int, work_dir: Path):
        self.rng = np.random.default_rng([seed, 1])
        self.work_dir = work_dir
        self.used: set[tuple] = set()

    @classmethod
    def program_text(cls, prefix) -> str:
        decls = " ".join(f"qubit {q};" for q in reference.QUBITS)
        pre = " ".join(" ".join(s) + ";" for s in prefix)
        body = " ".join(" ".join(s) + ";" for s in cls.LOOP_BODY)
        return f"{decls}\n{pre}\nwhile a in |1> {{ {body} }}\n"

    def _write(self, prefix, index) -> tuple[Path, tuple]:
        path = self.work_dir / f"run-{index}.qp"
        path.write_text(self.program_text(prefix), encoding="utf-8")
        return path, prefix

    def warm_up(self) -> None:
        path, _ = self._write(self.ROADMAP_PREFIX, "warm")
        cli_call(["run", str(path)])

    def prepare(self, index: int):
        while True:
            picks = self.rng.integers(0, len(self.PREFIX_GATES), size=3)
            prefix = (("h", "a"),) + tuple(self.PREFIX_GATES[int(i)] for i in picks)
            if prefix not in self.used:
                self.used.add(prefix)
                return self._write(prefix, index)

    def call(self, inp):
        return cli_call(["run", str(inp[0])])

    def check(self, index: int, inp, out) -> Outcome:
        path, prefix = inp
        path.unlink()
        code, stdout, stderr = out
        if code != 0:
            _report_failure(self.name, index, f"exit code {code}: {stderr.strip()}")
            return Outcome(1, 1, False)
        limit = reference.loop_limit(prefix, self.LOOP_BODY, "a")
        try:
            report = json.loads(stdout)
            output = np.asarray(report["output"]["re"]) + 1j * np.asarray(report["output"]["im"])
            err = float(np.max(np.abs(output - limit)))
            residual_err = abs(report["residual"] - (1.0 - float(np.trace(limit).real)))
            steps = int(sum(report["iterations_per_loop"]))
        except (ValueError, KeyError, TypeError) as exc:
            _report_failure(self.name, index, f"malformed report: {exc!r}")
            return Outcome(1, 1, False)
        if report["converged"] is not True or err > MATCH_TOL or residual_err > MATCH_TOL:
            _report_failure(
                self.name, index, f"output off the numpy reference by {err:.3e}, residual by {residual_err:.3e}"
            )
            return Outcome(1, 1, False, steps)
        return Outcome(1, 0, True, steps)


class ExpectD64:
    """``qpartial expect`` on a fresh d = 64 observable and state, plus one
    ``state_leq(f, g)``. Ops 0 and 1 pair f with a g above it in the
    Loewner order, ops 2 and 3 with a g incomparable to it, and so on, so
    that the traced run's alternate ops also see both kinds.

    f has eigenvalues at least 0.3 * 0.5 / 96 > 1.5e-3 and g - f has
    eigenvalues of magnitude in [1e-4, 1e-3], so g is a partial density
    operator and the verdict is far from the 1e-9 tolerance.
    """

    name = "expect-d64"
    layers = ("cli", "density", "logic", "observables", "numpy.linalg")
    DIM = 64

    def __init__(self, seed: int, work_dir: Path):
        self.rng = np.random.default_rng([seed, 2])
        self.work_dir = work_dir

    def _unitary(self, rng) -> np.ndarray:
        g = rng.standard_normal((self.DIM, self.DIM)) + 1j * rng.standard_normal((self.DIM, self.DIM))
        q, r = np.linalg.qr(g)
        return q * (np.diag(r) / np.abs(np.diag(r)))

    def _inputs(self, rng, comparable: bool, tag) -> dict:
        d = self.DIM
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        a = 0.5 * (g + g.conj().T)
        weights = 0.5 + rng.uniform(size=d)
        p = rng.uniform(0.3, 0.9) * weights / weights.sum()
        v = self._unitary(rng)
        f = (v * p) @ v.conj().T
        f = 0.5 * (f + f.conj().T)
        s = rng.uniform(1e-4, 1e-3, size=d)
        if not comparable:
            s *= rng.permutation(np.repeat([1.0, -1.0], d // 2))
        w = self._unitary(rng)
        delta = (w * s) @ w.conj().T
        upper = f + 0.5 * (delta + delta.conj().T)
        obs_path = self.work_dir / f"obs-{tag}.json"
        state_path = self.work_dir / f"state-{tag}.json"
        _write_operator(obs_path, a)
        _write_operator(state_path, f)
        return {"obs": obs_path, "state": state_path, "a": a, "f": f, "g": upper, "comparable": comparable}

    def warm_up(self) -> None:
        inp = self._inputs(np.random.default_rng([0, 2, 0]), True, "warm")
        self.call(inp)

    def prepare(self, index: int) -> dict:
        return self._inputs(self.rng, index // 2 % 2 == 0, index)

    def call(self, inp):
        import qpartial

        out = cli_call(["expect", str(inp["obs"]), str(inp["state"])])
        f = qpartial.PartialDensityOperator(inp["f"])
        g = qpartial.PartialDensityOperator(inp["g"])
        verdict, _ = qpartial.state_leq(f, g)
        return out, verdict

    def check(self, index: int, inp, out) -> Outcome:
        inp["obs"].unlink()
        inp["state"].unlink()
        (code, stdout, stderr), verdict = out
        if code != 0:
            _report_failure(self.name, index, f"exit code {code}: {stderr.strip()}")
            return Outcome(1, 1, False)
        lo, hi = reference.expectation_interval(inp["a"], inp["f"])
        try:
            report = json.loads(stdout)
            err = max(abs(report["lo"] - lo), abs(report["hi"] - hi))
        except (ValueError, KeyError, TypeError) as exc:
            _report_failure(self.name, index, f"malformed report: {exc!r}")
            return Outcome(1, 1, False)
        if err > MATCH_TOL or verdict != inp["comparable"]:
            _report_failure(
                self.name, index, f"interval off by {err:.3e}; state_leq {verdict}, built {inp['comparable']}"
            )
            return Outcome(1, 1, False)
        return Outcome(1, 0, True)


class VerifySuite:
    """``qpartial verify <suite>`` at the CLI defaults; one op is one call.

    Each suite is its own workload so that a change to the layers one
    suite stresses is not diluted by the others. Every check is a
    theorem, so each failing check-trial counts as a failure. The
    defaults include seed 42, so the work does not depend on the
    benchmark seed.
    """

    # Modules each suite is predicted to call into, besides cli and verify.
    LAYERS = {
        "gleason": ("sampling", "density", "logic", "numpy.linalg"),
        "dcpo": ("sampling", "density", "logic", "numpy.linalg"),
        "interval": ("sampling", "density", "logic", "observables", "intervals", "numpy.linalg"),
        "qlang": ("sampling", "density", "qlang.parser", "qlang.gates", "qlang.interpreter", "numpy.linalg"),
    }

    def __init__(self, suite: str, seed: int, work_dir: Path):
        del seed, work_dir
        self.suite = suite
        self.name = f"verify-{suite}"
        self.layers = ("cli", "verify") + self.LAYERS[suite]

    def warm_up(self) -> None:
        cli_call(["verify", self.suite, "--trials", "2"])

    def prepare(self, index: int) -> None:
        return None

    def call(self, inp):
        return cli_call(["verify", self.suite])

    def check(self, index: int, inp, out) -> Outcome:
        code, stdout, stderr = out
        if code not in (0, 2):
            _report_failure(self.name, index, f"exit code {code}: {stderr.strip()}")
            return Outcome(1, 1, False)
        try:
            report = json.loads(stdout)
            checks = report["checks"]
            well_formed = (
                report["suite"] == self.suite
                and all(report[k] == v for k, v in VERIFY_DEFAULTS.items())
                and all(c["failures"] == len(c["failure_seeds"]) for c in checks)
                and all(c["passed"] == (c["failures"] == 0) for c in checks)
                and report["all_passed"] == all(c["passed"] for c in checks)
                and code == (0 if report["all_passed"] else 2)
            )
            attempted = sum(c["passes"] + c["failures"] for c in checks)
            failed = sum(c["failures"] for c in checks)
        except (ValueError, KeyError, TypeError) as exc:
            _report_failure(self.name, index, f"malformed report: {exc!r}")
            return Outcome(1, 1, False)
        if not well_formed:
            _report_failure(self.name, index, "inconsistent report")
        if index == 0:
            for c in checks:
                if c["failures"]:
                    _report_failure(self.name, index, f"{c['name']} failed at {c['failure_seeds']}")
        return Outcome(attempted, failed, well_formed)


WORKLOADS = {
    "run-d64": RunD64,
    "expect-d64": ExpectD64,
    **{f"verify-{s}": partial(VerifySuite, s) for s in VERIFY_SUITES},
}
