"""CLI reports compared with stored reference outputs.

The references in ``data/cli_outputs.json`` were recorded from the CLI
before its internals were consolidated. Structure is compared exactly
(keys, list lengths, iteration counts, flags, pass/fail counts, failure
seeds, exit codes); floats within 1e-12, so that other BLAS builds do
not make the comparison flaky. The layout is compared byte for byte with
``json.dumps(report, indent=2, sort_keys=True)`` plus a newline.

To record the references again from the current code, run
``PYTHONPATH=src python tests/test_cli_outputs.py``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from qpartial import linalg, observables
from qpartial.cli import main
from qpartial.logic import ClosedSubspace

REFERENCE = Path(__file__).with_name("data") / "cli_outputs.json"
FLOAT_TOL = 1e-12

PROGRAMS = {
    "coin.qp": "qubit q; h q; while q in |1> { h q; }\n",
    "six_qubit.qp": (
        "qubit a; qubit b; qubit c; qubit d; qubit e; qubit f; h a; h b; cnot a c; h d; "
        "while a in |1> { h a; cnot a b; t c; h e; cnot e f; }\n"
    ),
    "nested.qp": "qubit a; qubit b; h b; while a in |+> { t a; h a; while b in |-> { t b; h b; } s b; }\n",
}


def expect_d64_pair(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A d = 64 observable (g + g+)/2, built like the benchmark's expect-d64
    observables, and a state h h+ scaled to trace 0.7, from Gaussian g and
    h. The observable has 64 distinct eigenvalues, so every eigenprojection
    is its own group."""
    rng = np.random.default_rng(seed)
    g, h = (rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64)) for _ in range(2))
    state = h @ h.conj().T
    state = 0.5 * (state + state.conj().T)
    return 0.5 * (g + g.conj().T), 0.7 * state / np.trace(state).real


OBS64, STATE64 = expect_d64_pair(64)

OPERATORS = {
    "pauli_z.json": np.diag([1.0, -1.0]),
    "readme_state.json": np.diag([0.5, 0.25]),
    "obs4.json": np.array(
        [
            [1.0, 0.5 - 0.25j, 0.0, 0.2],
            [0.5 + 0.25j, -0.5, 0.1j, 0.0],
            [0.0, -0.1j, 2.0, 0.3],
            [0.2, 0.0, 0.3, -1.0],
        ]
    ),
    # diagonally dominant, hence PSD; trace 0.7
    "state4.json": np.array(
        [
            [0.3, 0.05 + 0.02j, 0.0, 0.0],
            [0.05 - 0.02j, 0.2, 0.03, 0.0],
            [0.0, 0.03, 0.1, -0.01j],
            [0.0, 0.0, 0.01j, 0.1],
        ]
    ),
    "obs64.json": OBS64,
    "state64.json": STATE64,
}

CASES = {
    "run-fair-coin": ["run", "coin.qp"],
    "run-six-qubit": ["run", "six_qubit.qp"],
    "run-nested": ["run", "nested.qp"],
    "expect-d4": ["expect", "obs4.json", "state4.json"],
    "expect-d64": ["expect", "obs64.json", "state64.json"],
    "expect-pauli-z": ["expect", "pauli_z.json", "readme_state.json"],
    "verify-gleason": ["verify", "gleason", "--dims", "2,3", "--trials", "5"],
    "verify-dcpo": ["verify", "dcpo", "--dims", "2,3", "--trials", "5"],
    "verify-dcpo-d16": ["verify", "dcpo", "--dims", "16", "--trials", "10"],
    "verify-interval": ["verify", "interval", "--dims", "2,3", "--trials", "5"],
    "verify-interval-d16": ["verify", "interval", "--dims", "16", "--trials", "10"],
    "verify-qlang": ["verify", "qlang", "--trials", "20"],
}


def write_inputs(directory: Path) -> None:
    for name, text in PROGRAMS.items():
        (directory / name).write_text(text)
    for name, m in OPERATORS.items():
        m = np.asarray(m, dtype=complex)
        payload = {"dim": m.shape[0], "re": m.real.tolist(), "im": m.imag.tolist()}
        (directory / name).write_text(json.dumps(payload))


def argv_for(name: str, directory: Path) -> list[str]:
    return [str(directory / a) if a in PROGRAMS or a in OPERATORS else a for a in CASES[name]]


def assert_matches(actual, expected, path="$"):
    if isinstance(expected, dict):
        assert isinstance(actual, dict) and sorted(actual) == sorted(expected), path
        for key in expected:
            assert_matches(actual[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), path
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_matches(a, e, f"{path}[{i}]")
    elif isinstance(expected, float):
        assert type(actual) is float, path
        assert abs(actual - expected) <= FLOAT_TOL, f"{path}: {actual!r} vs {expected!r}"
    else:
        assert type(actual) is type(expected) and actual == expected, f"{path}: {actual!r} vs {expected!r}"


@pytest.fixture(scope="module")
def references():
    return json.loads(REFERENCE.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_reference(name, references, tmp_path, capsys):
    write_inputs(tmp_path)
    code = main(argv_for(name, tmp_path))
    expected = references[name]
    assert code == expected["exit"]
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    assert_matches(json.loads(out), expected["output"])


def test_run_out_file_holds_the_printed_bytes(tmp_path, capsys):
    write_inputs(tmp_path)
    target = tmp_path / "report.json"
    assert main(["run", str(tmp_path / "six_qubit.qp"), "--out", str(target)]) == 0
    out = capsys.readouterr().out
    assert target.read_text(encoding="utf-8") == out and len(json.loads(out)["output"]["re"]) == 64


def test_expect_builds_no_eigenprojection(tmp_path, capsys, count_calls, count_inits):
    # the weights of the 64 eigenvalues are read off the eigenvector columns,
    # whose Gram product is formed once, when the eigensolve is certified
    write_inputs(tmp_path)
    with (
        count_calls(linalg, "gram_defect") as defects,
        count_calls(observables, "_certified") as certified,
        count_inits(ClosedSubspace) as inits,
    ):
        assert main(argv_for("expect-d64", tmp_path)) == 0
    assert len(json.loads(capsys.readouterr().out)) == 6
    assert (len(defects), len(certified), len(inits)) == (1, 0, 0)


def test_every_case_has_a_reference(references):
    assert sorted(references) == sorted(CASES)


def record_references() -> None:
    import contextlib
    import io
    import tempfile

    records = {}
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        for name in sorted(CASES):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv_for(name, Path(tmp)))
            records[name] = {"exit": code, "output": json.loads(out.getvalue())}
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(json.dumps(records, sort_keys=True, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    record_references()
