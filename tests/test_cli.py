import json

import numpy as np
import pytest

from qpartial import cli, sampling
from qpartial.cli import _json_text, main
from qpartial.density import PartialDensityOperator
from qpartial.qlang import denote, parse

FAIR_COIN = "qubit q;\nh q;\nwhile q in |1> { h q; }\n"


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "coin.qp").write_text(FAIR_COIN)
    (tmp_path / "bad.qp").write_text("qubit q; y r;")
    (tmp_path / "diverge.qp").write_text("qubit q; while q in |0> { skip; }")
    (tmp_path / "pauli_z.json").write_text(
        json.dumps({"dim": 2, "re": [[1.0, 0.0], [0.0, -1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]})
    )
    (tmp_path / "state.json").write_text(
        json.dumps({"dim": 2, "re": [[0.5, 0.0], [0.0, 0.25]], "im": [[0.0, 0.0], [0.0, 0.0]]})
    )
    (tmp_path / "zero.json").write_text(
        json.dumps({"dim": 2, "re": [[0.0, 0.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]})
    )
    (tmp_path / "mixed.json").write_text(
        json.dumps({"dim": 2, "re": [[0.5, 0.0], [0.0, 0.5]], "im": [[0.0, 0.0], [0.0, 0.0]]})
    )
    return tmp_path


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_converged_run(self, workdir, capsys):
        code, out, _ = run_cli(capsys, "run", workdir / "coin.qp")
        assert code == 0
        report = json.loads(out)
        assert report["converged"] is True
        assert report["residual"] <= 1e-9
        assert report["output"]["dim"] == 2
        log = report["chain_trace_log"]
        assert log == sorted(log)

    def test_nonconverged_exit_code(self, workdir, capsys):
        code, out, _ = run_cli(capsys, "run", workdir / "coin.qp", "--max-iter", "3")
        assert code == 2
        report = json.loads(out)
        assert report["converged"] is False
        assert report["residual"] == pytest.approx(0.125, abs=1e-9)

    def test_diverging_program(self, workdir, capsys):
        code, out, _ = run_cli(capsys, "run", workdir / "diverge.qp")
        assert code == 0
        assert json.loads(out)["residual"] == 1.0

    def test_explicit_input_state(self, workdir, capsys):
        code, out, _ = run_cli(
            capsys, "run", workdir / "diverge.qp", "--input", workdir / "mixed.json"
        )
        assert code == 0
        assert json.loads(out)["residual"] == pytest.approx(0.5, abs=1e-12)

    def test_parse_error_exit_one(self, workdir, capsys):
        code, out, err = run_cli(capsys, "run", workdir / "bad.qp")
        assert code == 1
        assert out == ""
        assert "unknown register" in err

    def test_missing_file(self, workdir, capsys):
        code, _, err = run_cli(capsys, "run", workdir / "nope.qp")
        assert code == 1 and err

    def test_bad_tolerance_rejected(self, workdir, capsys):
        for tol in ["0", "inf", "2"]:
            code, _, err = run_cli(capsys, "run", workdir / "coin.qp", "--trace-tol", tol)
            assert code == 1 and "trace_tol" in err

    @pytest.mark.parametrize("max_iter", ["1", "2"])
    def test_non_unitary_gate_rejected_before_the_run(self, tmp_path, capsys, max_iter):
        # the non-unitary gate sits in a loop body that --max-iter 1 never runs
        (tmp_path / "big.qp").write_text("qubit q; while q in |1> { [[2, 0], [0, 2]] q; }")
        code, out, err = run_cli(capsys, "run", tmp_path / "big.qp", "--max-iter", max_iter)
        assert code == 1 and out == "" and "unitary" in err

    def test_overflowing_inline_gate_is_a_one_line_error(self, tmp_path, capsys):
        # its Gram defect is NaN: rejected at denote, before the run, with no
        # numpy warning on stderr
        (tmp_path / "huge.qp").write_text(
            "qubit q; [[1e200+1e200i, 1e200-1e200i], [1e200-1e200i, 1e200+1e200i]] q;"
        )
        code, out, err = run_cli(capsys, "run", tmp_path / "huge.qp")
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: gate deviates from unitary by nan")

    @staticmethod
    def nested_loops(depth: int, head: str = "", ket: str = "1") -> str:
        """``depth`` nested loops on ``|ket>``, each body ``head`` and then the next loop."""
        return "qubit q; " + f"while q in |{ket}> {{ {head}" * depth + "x q;" + " }" * depth

    @pytest.mark.parametrize("ket", ["1", "+"])
    @pytest.mark.parametrize("head", ["", "x q; "])
    def test_180_nested_loops_run(self, tmp_path, capsys, head, ket):
        # a block denotes the tuple of its nodes, so a loop body of two
        # statements nests as deep as a body of one; `z_basis` rewrites
        # each `|+>` loop into one `|0>` loop, recursing once per level as
        # the parser and `denote` do, so it does not lower that depth
        source = self.nested_loops(180, head, ket)
        report = denote(parse(source)).apply(PartialDensityOperator.ground_state(2))
        assert report.converged and len(report.iterations_per_loop) == 180
        (tmp_path / "deep.qp").write_text(source)
        code, out, err = run_cli(capsys, "run", tmp_path / "deep.qp")
        assert (code, err) == (0, "") and json.loads(out)["converged"] is True

    def test_nesting_depths_overflow_where_stated(self):
        # 300 nested loops parse and denote, and overflow Python's stack
        # only when applied; 1,000 overflow it in the parser
        denotation = denote(parse(self.nested_loops(300)))
        with pytest.raises(RecursionError):
            denotation.apply(PartialDensityOperator.ground_state(2))
        with pytest.raises(RecursionError):
            parse(self.nested_loops(1000))

    @pytest.mark.parametrize("depth", [300, 1000])
    def test_too_deep_a_program_is_a_one_line_error(self, tmp_path, capsys, depth):
        (tmp_path / "deep.qp").write_text(self.nested_loops(depth))
        code, out, err = run_cli(capsys, "run", tmp_path / "deep.qp")
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err

    def test_unwritable_out_prints_nothing(self, workdir, capsys):
        target = workdir / "missing" / "report.json"
        code, out, err = run_cli(capsys, "run", workdir / "coin.qp", "--out", target)
        assert code == 1 and out == "" and err
        assert not target.exists()


class TestExpect:
    def test_pauli_z_example(self, workdir, capsys):
        code, out, _ = run_cli(capsys, "expect", workdir / "pauli_z.json", workdir / "state.json")
        assert code == 0
        data = json.loads(out)
        assert data == {
            "lo": 0.0,
            "hi": 0.5,
            "e0": 0.25,
            "missing": 0.25,
            "m": -1.0,
            "M": 1.0,
        }

    def test_zero_state_gives_spectrum_range(self, workdir, capsys):
        code, out, _ = run_cli(capsys, "expect", workdir / "pauli_z.json", workdir / "zero.json")
        data = json.loads(out)
        assert code == 0
        assert (data["lo"], data["hi"]) == (-1.0, 1.0)

    def test_total_state_degenerates(self, workdir, capsys):
        code, out, _ = run_cli(capsys, "expect", workdir / "pauli_z.json", workdir / "mixed.json")
        data = json.loads(out)
        assert code == 0
        assert data["lo"] == data["hi"]

    def test_near_degenerate_observable_accepted(self, capsys, tmp_path):
        for name, m in (("obs.json", np.diag([0.0, 5e-9, 1.0])), ("quarter.json", np.eye(3) / 4)):
            (tmp_path / name).write_text(json.dumps({"dim": 3, "re": m.tolist(), "im": np.zeros((3, 3)).tolist()}))
        code, out, err = run_cli(capsys, "expect", tmp_path / "obs.json", tmp_path / "quarter.json")
        assert code == 0, err
        # 0 and 5e-9 share one eigenprojection with eigenvalue 2.5e-9
        assert json.loads(out)["e0"] == pytest.approx(0.25000000125, abs=1e-15)

    def test_rank_two_group_at_the_psd_floor_accepted(self, capsys, tmp_path):
        # the state passes the PSD test; its weight on the rank-2
        # eigenvalue-1 group of A is -1.8e-9, below -PSD_TOL, and is kept
        for name, diag in (("a.json", [2.0, 3.0, 1.0, 1.0]), ("f.json", [0.999, 0.0, -9e-10, -9e-10])):
            payload = {"dim": 4, "re": np.diag(diag).tolist(), "im": np.zeros((4, 4)).tolist()}
            (tmp_path / name).write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "expect", tmp_path / "a.json", tmp_path / "f.json")
        assert code == 0, err
        assert json.loads(out)["e0"] == pytest.approx(1.9979999982, abs=1e-15)

    @pytest.mark.parametrize("dim", [4, 16, 64])
    def test_large_norm_product_observable_accepted(self, capsys, tmp_path, dim):
        # U D U+ multiplied out at norm 1e9: Hermitian within the bound
        # HERMITIAN_TOL * max(1, |A|), not within HERMITIAN_TOL itself
        u = sampling.random_unitary(dim, np.random.default_rng([7, dim]))
        a = (u * (1e9 * np.linspace(-1.0, 1.0, dim))) @ u.conj().T
        for name, m in (("a.json", a), ("f.json", np.diag(np.linspace(0.0, 2.0 / dim, dim)))):
            payload = {"dim": dim, "re": m.real.tolist(), "im": m.imag.tolist()}
            (tmp_path / name).write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "expect", tmp_path / "a.json", tmp_path / "f.json")
        assert code == 0, err
        data = json.loads(out)
        lowest, highest = np.linalg.eigvalsh(a)[[0, -1]]
        assert (data["m"], data["M"]) == pytest.approx((lowest, highest), rel=1e-12)

    def test_dimension_mismatch(self, workdir, capsys, tmp_path):
        (tmp_path / "w.json").write_text(
            json.dumps({"dim": 3, "re": np.eye(3).tolist(), "im": np.zeros((3, 3)).tolist()})
        )
        code, _, err = run_cli(capsys, "expect", tmp_path / "w.json", workdir / "state.json")
        assert code == 1 and "mismatch" in err

    def test_invalid_operator_rejected(self, workdir, capsys, tmp_path):
        (tmp_path / "heavy.json").write_text(
            json.dumps({"dim": 2, "re": [[0.9, 0.0], [0.0, 0.9]], "im": [[0.0, 0.0], [0.0, 0.0]]})
        )
        code, _, err = run_cli(capsys, "expect", workdir / "pauli_z.json", tmp_path / "heavy.json")
        assert code == 1 and "trace" in err

    def test_string_entries_rejected(self, workdir, capsys, tmp_path):
        (tmp_path / "strings.json").write_text(
            json.dumps({"dim": 2, "re": [["0.5", "0"], ["0", "0.25"]], "im": [[0, 0], [0, 0]]})
        )
        code, out, err = run_cli(capsys, "expect", workdir / "pauli_z.json", tmp_path / "strings.json")
        assert code == 1 and out == "" and "numbers" in err

    def test_overflowed_observable_is_a_one_line_error(self, workdir, capsys, tmp_path):
        # finite entries whose eigenvalue 2e308 overflows: rejected when the
        # observable is built, with no numpy warning on stderr
        (tmp_path / "huge.json").write_text(
            json.dumps({"dim": 2, "re": [[1e308, 1e308], [1e308, 1e308]], "im": [[0, 0], [0, 0]]})
        )
        code, out, err = run_cli(capsys, "expect", tmp_path / "huge.json", workdir / "state.json")
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: eigensolver overflowed")

    def test_boolean_among_numbers_rejected(self, workdir, capsys, tmp_path):
        (tmp_path / "bools.json").write_text(
            json.dumps({"dim": 2, "re": [[True, 0.0], [0.0, 0.25]], "im": [[0, 0], [0, 0]]})
        )
        code, out, err = run_cli(capsys, "expect", workdir / "pauli_z.json", tmp_path / "bools.json")
        assert code == 1 and out == "" and "boolean" in err


class TestVerify:
    def test_all_suites_pass(self, capsys):
        for suite in ("gleason", "dcpo", "interval"):
            code, out, _ = run_cli(capsys, "verify", suite, "--dims", "2,3", "--trials", "5")
            assert code == 0, suite
            assert json.loads(out)["all_passed"] is True

    def test_qlang_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "qlang", "--trials", "3")
        assert code == 0
        report = json.loads(out)
        names = {c["name"] for c in report["checks"]}
        assert "fair_coin_residuals" in names and "diverging_loop" in names

    def test_byte_identical_reports(self, capsys):
        _, out1, _ = run_cli(capsys, "verify", "gleason", "--dims", "2", "--trials", "4", "--seed", "7")
        _, out2, _ = run_cli(capsys, "verify", "gleason", "--dims", "2", "--trials", "4", "--seed", "7")
        assert out1 == out2

    def test_seed_changes_report(self, capsys):
        _, out1, _ = run_cli(capsys, "verify", "gleason", "--dims", "2", "--trials", "4", "--seed", "7")
        _, out2, _ = run_cli(capsys, "verify", "gleason", "--dims", "2", "--trials", "4", "--seed", "8")
        assert json.loads(out1)["seed"] != json.loads(out2)["seed"]

    def test_out_file_written(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "verify", "dcpo", "--dims", "2", "--trials", "2", "--out", target
        )
        assert code == 0
        assert target.read_text() == out

    def test_bad_dims_rejected(self, capsys):
        code, _, err = run_cli(capsys, "verify", "gleason", "--dims", "1,40", "--trials", "2")
        assert code == 1 and "dims" in err
        for suite in ("gleason", "dcpo"):
            code, out, err = run_cli(capsys, "verify", suite, "--dims", ",", "--trials", "2")
            assert code == 1 and out == "" and "dims" in err

    def test_negative_seed_rejected_before_any_trial(self, capsys):
        # default_rng rejects a negative seed; each trial would record that
        # as a failed check, so the seed is checked up front
        for suite in cli.SUITES:
            code, out, err = run_cli(capsys, "verify", suite, "--seed", "-1", "--trials", "2")
            assert (code, out) == (1, ""), suite
            assert "seed" in err, suite


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "coin.qp", "--seed", "7"),
        ("run", "coin.qp", "--psd-tol", "1e-3"),
        ("expect", "pauli_z.json", "state.json", "--seed", "7"),
        ("expect", "pauli_z.json", "state.json", "--max-iter", "5"),
        ("expect", "pauli_z.json", "state.json", "--trace-tol", "1e-3"),
        ("expect", "pauli_z.json", "state.json", "--psd-tol", "1e-3"),
        ("verify", "gleason", "--max-iter", "5"),
        ("verify", "gleason", "--trace-tol", "1e-3"),
        ("verify", "gleason", "--psd-tol", "1e-3"),
    ],
    ids=lambda argv: f"{argv[0]} {argv[-2]}",
)
def test_flags_a_command_does_not_read_are_refused(workdir, argv):
    with pytest.raises(SystemExit) as exc:
        main([str(workdir / a) if (workdir / a).is_file() else a for a in argv])
    assert exc.value.code == 2


def test_parser_is_built_once_at_import(workdir, capsys, count_calls):
    with count_calls(cli, "build_parser") as calls:
        assert run_cli(capsys, "run", workdir / "coin.qp")[0] == 0
        assert run_cli(capsys, "expect", workdir / "pauli_z.json", workdir / "state.json")[0] == 0
    assert calls == []


@pytest.mark.parametrize(
    "payload",
    [
        {},
        [],
        [[]],
        {"empty": []},
        ["a, b", "], [", "[[1, 2], [3]]"],
        [[1.5], ["s"]],
        [[1.5], []],
        [[], [1, 2]],
        [float("nan"), float("inf"), -float("inf"), -0.0, 1e-300],
        [[np.float64(0.1), np.float64(-2.5)], [3, True]],
        {"mixed": [1, False, None, 2.0, "x"], "nested": {"m": [[0.25, 1], [2, 3]], "z": {}}},
        {"é": "ü ∞", "k": [[1, 2], (3, 4)]},
        {2: "int key", 1.5: "float key"},
    ],
)
def test_json_text_matches_stdlib_indent(payload):
    assert _json_text(payload) == json.dumps(payload, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "payload",
    [
        ["], [", "a"],
        [["], [", 1.0], [2.0, 3.0]],
        [[1.0, [2.0]], [3.0, 4.0]],
        [[[1.0]], 2.0, [3.0]],
        [[1.0, 2.0], [], [3.0]],
        [[True, None], [float("nan"), -1e-300]],
        [(1.0, -2.5e-17), (3.0, 4.0)],
        ((0.5, 0.25),),
        [[42, 0, 27], [42, 3, 1], [7, 16, 99]],
        [[1.0], {"a": [2.0]}],
        [[1.0], 2.0],
        [None, True, float("inf")],
    ],
)
def test_json_text_lays_out_adversarial_rows_as_stdlib(payload):
    # each list here breaks one condition of the flat or row layout, or
    # meets all of them with entries an operator's rows never hold
    assert _json_text(payload) == json.dumps(payload, indent=2, sort_keys=True)
    assert _json_text({"k": payload}, 0) == json.dumps({"k": payload}, indent=2, sort_keys=True)


def test_run_performs_one_eigensolve(tmp_path, capsys, count_eigensolves):
    # the ground state is built exactly and every gate and guard is
    # certified without one: the output certificate is the run's only
    # eigensolve
    prog = tmp_path / "six.qp"
    prog.write_text(
        "qubit a; qubit b; qubit c; qubit d; qubit e; qubit f; h a; h b; cnot a c; h d;\n"
        "while a in |1> { h a; cnot a b; t c; h e; cnot e f; }\n"
    )
    with count_eigensolves() as sizes:
        code, out, _ = run_cli(capsys, "run", prog)
    assert code == 0 and json.loads(out)["iterations_per_loop"] == [29]
    assert sizes == [64]


def test_json_text_rejects_what_json_cannot_hold():
    for payload in ({"a": {1, 2}}, [[1.0], [object()]], {(1,): 2}):
        with pytest.raises(TypeError):
            _json_text(payload)
