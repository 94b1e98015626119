import json

import numpy as np
import pytest

from qmix.cli import main
from qmix.operator_core import matrix_to_json, random_density_matrix

from conftest import PAULI_X, PAULI_Y


def write_spec(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def test_analyze_depolarizing(tmp_path, capsys):
    spec = write_spec(tmp_path / "g.json", {"family": "depolarizing", "dim": 3, "gamma": 1.0})
    out = tmp_path / "report.json"
    code = main(["analyze", spec, "--out", str(out), "--seed", "0",
                 "--budget", "300", "--probes", "4"])
    assert code == 0
    rep = json.loads(out.read_text())
    assert abs(rep["gap"]["lambda"] - 1.0) < 1e-9
    assert abs(rep["ls"]["alpha2"]["alpha_estimate"] - 2.0 / 3.0 / np.log(2.0)) < 1e-3
    assert rep["verdicts"]["ok_alpha2_le_2alpha1"] is True
    assert rep["regularity"]["verdicts"]["convex"] is True
    assert rep["provenance"]["seed"] == 0


def test_analyze_logs_random_seed_when_omitted(tmp_path, capsys):
    spec = write_spec(tmp_path / "g.json", {"family": "depolarizing", "dim": 2, "gamma": 1.0})
    out = tmp_path / "report.json"
    assert main(["analyze", spec, "--out", str(out), "--budget", "150",
                 "--probes", "2"]) == 0
    err = capsys.readouterr().err
    logged = json.loads(err.strip().splitlines()[0])
    rep = json.loads(out.read_text())
    assert rep["provenance"]["seed"] == logged["seed"]


def test_analyze_deterministic_payload(tmp_path):
    spec = write_spec(tmp_path / "g.json", {"family": "depolarizing", "dim": 2, "gamma": 1.0})
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(["analyze", spec, "--out", str(out), "--seed", "7",
                     "--budget", "200", "--probes", "3"]) == 0
        rep = json.loads(out.read_text())
        rep.pop("provenance")  # wall_time varies; numeric payload must not
        outs.append(json.dumps(rep, sort_keys=True))
    assert outs[0] == outs[1]


def test_analyze_not_primitive_exit_2(tmp_path, capsys):
    z = np.diag([1.0, -1.0]).astype(complex)
    spec = write_spec(tmp_path / "g.json",
                      {"family": "generic", "hamiltonian": matrix_to_json(z),
                       "lindblad_ops": []})
    assert main(["analyze", spec]) == 2
    err = capsys.readouterr().err
    assert json.loads(err.strip().splitlines()[-1])["kind"] == "not_primitive"


def test_mixing_not_primitive_exit_2(tmp_path, capsys):
    z = np.diag([1.0, -1.0]).astype(complex)
    spec = write_spec(tmp_path / "g.json",
                      {"family": "generic", "hamiltonian": matrix_to_json(z),
                       "lindblad_ops": []})
    assert main(["mixing", spec, "--seed", "0"]) == 2
    err = [json.loads(line) for line in capsys.readouterr().err.strip().splitlines()]
    assert err == [{"error": "null space of L* has dimension 2", "kind": "not_primitive"}]


def test_analyze_malformed_spec_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["analyze", str(bad)]) == 1
    spec = write_spec(tmp_path / "g.json", {"family": "unheard_of"})
    assert main(["analyze", spec]) == 1
    spec = write_spec(tmp_path / "g2.json", {"family": "depolarizing", "dim": 3})
    assert main(["analyze", spec]) == 1


@pytest.mark.parametrize("command", ["analyze", "mixing"])
def test_d1_spec_is_one_bad_spec_line(tmp_path, capsys, command):
    one = np.ones((1, 1), dtype=complex)
    path = write_spec(tmp_path / "g.json",
                      {"family": "generic", "lindblad_ops": [matrix_to_json(one)]})
    assert main([command, path, "--seed", "0"]) == 1
    err = [json.loads(line) for line in capsys.readouterr().err.strip().splitlines()]
    assert err == [{"error": "a generator needs d >= 2, got d = 1", "kind": "bad_spec",
                    "path": path}]


SIGMA3 = matrix_to_json(np.diag([0.5, 0.3, 0.2]).astype(complex))
DIAG011 = matrix_to_json(np.diag([0.0, 1.0, 1.0]).astype(complex))
ONES3_M = np.ones((3, 3), dtype=complex)
ONES3 = matrix_to_json(ONES3_M)


@pytest.mark.parametrize("spec, error", [
    ({"family": "depolarizing", "dim": 3, "gamma": float("nan")},
     "gamma must be positive and finite"),
    ({"family": "depolarizing", "dim": 3, "gamma": float("inf")},
     "gamma must be positive and finite"),
    ({"family": "projection", "sigma": SIGMA3, "gamma": float("nan")},
     "gamma must be positive and finite"),
    ({"family": "projection", "sigma": SIGMA3, "gamma": float("inf")},
     "gamma must be positive and finite"),
    ({"family": "channel", "kraus": []}, "a channel needs at least one Kraus operator"),
    ({"family": "random_unitary", "dim": 4, "D": 0, "seed": 1},
     "a random-unitary channel needs D >= 1, got D = 0"),
    ({"family": "davies", "hamiltonian": DIAG011, "couplings": [ONES3], "beta": 1.0,
      "bohr_tol": -1}, "bohr_tol must be finite and >= 0, got -1.0"),
    ({"family": "davies", "hamiltonian": DIAG011, "couplings": [ONES3],
      "beta": float("nan")}, "beta must be finite and >= 0, got nan"),
])
def test_a_bad_builder_input_is_one_bad_spec_line(tmp_path, capsys, spec, error):
    path = write_spec(tmp_path / "g.json", spec)
    assert main(["analyze", path, "--seed", "0"]) == 1
    err = [json.loads(line) for line in capsys.readouterr().err.strip().splitlines()]
    assert err == [{"error": error, "kind": "bad_spec", "path": path}]


@pytest.mark.parametrize("spec, error", [
    ({"family": "depolarizing", "dim": None, "gamma": 1.0},
     "field 'dim' must be a JSON integer, got null"),
    ({"family": "generic", "lindblad_ops": 5}, "field 'lindblad_ops' must be a JSON array, got integer"),
    ({"family": "depolarizing", "dim": "3", "gamma": "1"},
     "field 'dim' must be a JSON integer, got string"),
    ({"family": "davies", "hamiltonian": DIAG011, "couplings": [ONES3], "beta": 1.0,
      "bohr_tol": None}, "field 'bohr_tol' must be a JSON number, got null"),
])
def test_a_wrong_json_type_is_one_bad_spec_line(tmp_path, capsys, spec, error):
    path = write_spec(tmp_path / "g.json", spec)
    assert main(["analyze", path, "--skip", "ls,regularity", "--seed", "0"]) == 1
    err = [json.loads(line) for line in capsys.readouterr().err.strip().splitlines()]
    assert err == [{"error": error, "kind": "bad_spec", "path": path}]


# one valid spec per family (d <= 3), and for each field the JSON values of a wrong type
_VALID_SPECS = [
    {"family": "depolarizing", "dim": 3, "gamma": 1.0},
    {"family": "projection", "sigma": SIGMA3, "gamma": 0.5},
    {"family": "generic", "hamiltonian": DIAG011,
     "lindblad_ops": [matrix_to_json(np.triu(ONES3_M, 1)), matrix_to_json(np.tril(ONES3_M, -1))]},
    {"family": "davies", "hamiltonian": matrix_to_json(np.diag([0.0, 1.0, 2.5])),
     "couplings": [ONES3], "beta": 1.0, "bohr_tol": 1e-9},
    {"family": "channel", "kraus": [matrix_to_json(k) for k in (
        np.sqrt(0.5) * np.eye(2), 0.5 * PAULI_X, 0.5 * PAULI_Y)], "lazy": True},
    {"family": "random_unitary", "dim": 3, "D": 2, "seed": 11},
]
_WRONG = {
    "integer": [None, "3", True, 3.0, [3], {"v": 3}],
    "number": [None, "1", False, [1.0], {"v": 1.0}, 10 ** 400],
    "array": [None, "x", True, 5, {"v": 1}, [5], [[1]], [None]],
    "boolean": [None, "false", 0, 1.0, [True], {"v": True}],
    "matrix": [None, "x", True, 5, {"v": 1}, [[1]], [[["1", "0"]]], [[[True, 0]]],
               [[[0, 1], [1]]]],
}
_KINDS = {"dim": "integer", "D": "integer", "seed": "integer", "gamma": "number",
          "beta": "number", "bohr_tol": "number", "lindblad_ops": "array",
          "couplings": "array", "kraus": "array", "sigma": "matrix", "hamiltonian": "matrix",
          "lazy": "boolean"}


def test_every_wrong_json_type_in_a_spec_is_one_bad_spec_line(tmp_path, capsys):
    for valid in _VALID_SPECS:
        path = write_spec(tmp_path / "g.json", valid)
        assert main(["analyze", path, "--skip", "ls,regularity", "--seed", "0"]) == 0, valid
        capsys.readouterr()
        for field in set(valid) & set(_KINDS):
            for value in _WRONG[_KINDS[field]]:
                if valid["family"] == "generic" and field == "hamiltonian" and value is None:
                    continue  # the schema allows a null Hamiltonian
                path = write_spec(tmp_path / "g.json", {**valid, field: value})
                code = main(["analyze", path, "--skip", "ls,regularity", "--seed", "0"])
                lines = capsys.readouterr().err.strip().splitlines()
                err = [json.loads(line) for line in lines]
                assert code == 1 and len(err) == 1 and err[0]["kind"] == "bad_spec", (
                    field, value, code, lines)


def test_davies_degenerate_pair_is_not_primitive_at_the_default_bohr_tol(tmp_path, capsys):
    path = write_spec(tmp_path / "g.json", {"family": "davies", "hamiltonian": DIAG011,
                                            "couplings": [ONES3], "beta": 1.0})
    assert main(["analyze", path, "--seed", "0"]) == 2
    err = [json.loads(line) for line in capsys.readouterr().err.strip().splitlines()]
    assert err[-1]["kind"] == "not_primitive"


@pytest.mark.parametrize("command", ["analyze", "mixing"])
def test_missing_spec_file_exit_1(tmp_path, capsys, command):
    path = str(tmp_path / "missing.json")
    assert main([command, path, "--seed", "0"]) == 1
    err = [json.loads(line) for line in capsys.readouterr().err.strip().splitlines()]
    assert len(err) == 1
    assert err[0]["kind"] == "bad_spec" and err[0]["path"] == path


@pytest.mark.parametrize("section, target", [("ls", "partial_order_verdict"),
                                             ("regularity", "regularity_profile")])
def test_analyze_section_nulls_numerical_failure_and_raises_on_bug(tmp_path, monkeypatch,
                                                                   section, target):
    import qmix.cli as cli
    spec = write_spec(tmp_path / "g.json", {"family": "depolarizing", "dim": 2, "gamma": 1.0})
    out = tmp_path / "report.json"
    other = "regularity" if section == "ls" else "ls"
    argv = ["analyze", spec, "--out", str(out), "--seed", "0", "--skip", other]

    def breakdown(*args, **kwargs):
        raise ArithmeticError("planted breakdown")

    def bug(*args, **kwargs):
        raise ValueError("planted bug")

    monkeypatch.setattr(cli, target, breakdown)
    assert main(argv) == 0
    rep = json.loads(out.read_text())
    assert rep[section] is None and rep[f"{section}_error"] == "planted breakdown"
    monkeypatch.setattr(cli, target, bug)
    with pytest.raises(ValueError, match="planted bug"):
        main(argv)


def test_mixing_command(tmp_path, capsys):
    rng = np.random.default_rng(0)
    spec = write_spec(tmp_path / "g.json",
                      {"family": "projection", "gamma": 1.0,
                       "sigma": matrix_to_json(random_density_matrix(3, rng))})
    csv = tmp_path / "curve.csv"
    code = main(["mixing", spec, "--epsilon", "0.1", "--t-max", "6",
                 "--grid-n", "7", "--n-haar", "6", "--budget", "200",
                 "--out-csv", str(csv)])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["tau_mix"] > 0
    assert out["domination_margin"] >= -1e-7
    header = csv.read_text().splitlines()[0]
    assert header.startswith("t,trace_dist,chi2,rel_ent,chi2_bound,ls_bound_a1")


def test_reproduce_davies_qubit(capsys):
    code = main(["reproduce", "davies_qubit", "--budget", "300"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS]" in out and "[FAIL]" not in out


@pytest.mark.parametrize("target", [
    "tensor_qubit",
    pytest.param("depolarizing_table", marks=pytest.mark.slow),
])
def test_reproduce_target_passes(capsys, target):
    assert main(["reproduce", target, "--seed", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(line.startswith("[PASS]") for line in lines)


def test_reproduce_unknown_target(capsys):
    assert main(["reproduce", "no_such_thing"]) == 1
    out, err = capsys.readouterr()
    err = [json.loads(line) for line in err.splitlines()]
    assert out == "" and len(err) == 1 and err[0]["kind"] == "bad_args"


def test_scan_command(tmp_path, capsys):
    out = tmp_path / "scan.jsonl"
    code = main(["scan", "--n", "4", "--probes", "3", "--out", str(out), "--seed", "3"])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 4
    rec = json.loads(lines[0])
    assert {"dim", "kind", "weak_violation"} <= set(rec)


def test_reproduce_exit_3_on_failed_check(monkeypatch, capsys):
    import qmix.cli as cli
    monkeypatch.setattr(cli, "_repr_davies_qubit",
                        lambda args: [("synthetic failing check", False)])
    assert main(["reproduce", "davies_qubit", "--seed", "0"]) == 3
    assert "[FAIL]" in capsys.readouterr().out


def test_lazy_channel_spec(tmp_path, capsys):
    lazy = [np.sqrt(0.5) * np.eye(2), 0.5 * PAULI_X, 0.5 * PAULI_Y]
    spec = write_spec(tmp_path / "lazy.json",
                      {"family": "channel", "lazy": True,
                       "kraus": [matrix_to_json(k) for k in lazy]})
    assert main(["analyze", spec, "--seed", "0", "--skip", "ls,regularity"]) == 0
    capsys.readouterr()
    # (X.X + Y.Y)/2 is primitive and reversible but has eigenvalue -1 on Z
    not_lazy = [PAULI_X / np.sqrt(2.0), PAULI_Y / np.sqrt(2.0)]
    spec = write_spec(tmp_path / "not_lazy.json",
                      {"family": "channel", "lazy": True,
                       "kraus": [matrix_to_json(k) for k in not_lazy]})
    assert main(["analyze", spec, "--seed", "0", "--skip", "ls,regularity"]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["kind"] == "bad_spec" and "lazy" in err["error"]


def test_scan_resume_after_truncated_line(tmp_path, capsys):
    argv = ["scan", "--dims", "2", "--n", "4", "--probes", "3", "--seed", "3"]
    full = tmp_path / "full.jsonl"
    assert main(argv + ["--out", str(full)]) == 0
    data = full.read_bytes()
    lines = data.splitlines(keepends=True)
    cut = tmp_path / "cut.jsonl"
    cut.write_bytes(b"".join(lines[:2]) + lines[2][:20])  # interrupted mid-record
    assert main(argv + ["--out", str(cut), "--resume"]) == 0
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["start_index"] == 2
    assert cut.read_bytes() == data


@pytest.mark.parametrize("other", [["--seed", "7", "--dims", "2,3"],
                                   ["--seed", "1", "--dims", "4"]])
def test_scan_resume_refuses_a_file_of_another_scan(tmp_path, capsys, other):
    out = tmp_path / "scan.jsonl"
    assert main(["scan", "--n", "2", "--probes", "3", "--seed", "1", "--dims", "2,3",
                 "--out", str(out)]) == 0
    written = out.read_bytes() + b'{"index": 2, "di'  # and an interrupted record
    out.write_bytes(written)
    capsys.readouterr()
    assert main(["scan", "--n", "4", "--probes", "3", "--out", str(out), "--resume"]
                + other) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert json.loads(line)["kind"] == "bad_resume" and "record 1" in line
    assert out.read_bytes() == written  # not truncated, nothing appended


def test_parallel_scan_streams_the_serial_file(tmp_path, capsys):
    argv = ["scan", "--dims", "2,3", "--n", "6", "--probes", "3", "--seed", "5"]
    serial, parallel = tmp_path / "serial.jsonl", tmp_path / "parallel.jsonl"
    assert main(argv + ["--out", str(serial), "--jobs", "1"]) == 0
    assert main(argv + ["--out", str(parallel), "--jobs", "2"]) == 0
    assert parallel.read_bytes() == serial.read_bytes()


def test_interrupted_parallel_scan_keeps_its_prefix_and_resumes(tmp_path, capsys,
                                                                monkeypatch):
    import qmix.regularity as regularity
    argv = ["scan", "--dims", "2,3", "--n", "6", "--probes", "3", "--seed", "5",
            "--jobs", "2"]
    full = tmp_path / "full.jsonl"
    assert main(argv + ["--out", str(full)]) == 0
    record = regularity.scan_instance_record

    def fail_at_3(index, *args):
        if index == 3:
            raise RuntimeError("interrupted")
        return record(index, *args)

    cut = tmp_path / "cut.jsonl"
    monkeypatch.setattr(regularity, "scan_instance_record", fail_at_3)
    with pytest.raises(RuntimeError, match="interrupted"):
        main(argv + ["--out", str(cut)])
    assert cut.read_bytes() == b"".join(full.read_bytes().splitlines(keepends=True)[:3])
    monkeypatch.setattr(regularity, "scan_instance_record", record)
    assert main(argv + ["--out", str(cut), "--resume"]) == 0
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["start_index"] == 3
    assert cut.read_bytes() == full.read_bytes()


def test_parser_is_built_once():
    import qmix.cli as cli
    assert cli._parser() is cli._parser()


def test_main_calls_carry_no_state_between_them(tmp_path, capsys):
    argv = ["scan", "--dims", "2", "--n", "2", "--probes", "3", "--seed", "3"]
    full = tmp_path / "full.jsonl"
    assert main(argv + ["--out", str(full)]) == 0
    out = tmp_path / "scan.jsonl"
    out.write_bytes(full.read_bytes().splitlines(keepends=True)[0])
    capsys.readouterr()
    assert main(argv + ["--out", str(out), "--resume"]) == 0
    assert json.loads(capsys.readouterr().out)["start_index"] == 1
    out.write_bytes(b"stale\n")
    assert main(argv + ["--out", str(out)]) == 0  # no --resume: rewritten from index 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["start_index"] == 0 and summary["instances"] == 2
    assert out.read_bytes() == full.read_bytes()


@pytest.mark.parametrize("argv", [
    ["mixing", "SPEC", "--epsilon", "0"],
    ["mixing", "SPEC", "--epsilon", "nan"],
    ["mixing", "SPEC", "--t-max", "-1"],
    ["mixing", "SPEC", "--t-max", "inf"],
    ["mixing", "SPEC", "--grid-n", "0"],
    ["mixing", "SPEC", "--n-haar", "-1"],
    ["scan", "--dims", "x"],
    ["scan", "--dims", "2,0"],
    ["scan", "--dims", "1"],
    ["scan", "--dims", "3,1"],
    ["mixing", "SPEC", "--budget", "0"],
    ["analyze", "SPEC", "--budget", "0"],
    ["analyze", "SPEC", "--probes", "0"],
    ["reproduce", "depolarizing_table", "--budget", "-5"],
    ["scan", "--probes", "0"],
    ["scan", "--n", "-1"],
    ["scan", "--jobs", "0"],
    ["scan", "--n", "x"],
    ["analyze", "SPEC", "--seed", "-1"],
    ["analyze", "SPEC", "--skip", "lss"],
])
def test_malformed_flag_is_one_json_error_before_any_computation(tmp_path, capsys,
                                                                 monkeypatch, argv):
    import qmix.cli as cli

    def computed(*args, **kwargs):
        raise AssertionError("computation started before the flags were checked")

    for name in ("_load_primitive", "conjecture_scan", "estimate_alpha", "spectral_gap"):
        monkeypatch.setattr(cli, name, computed)
    spec = write_spec(tmp_path / "g.json", {"family": "depolarizing", "dim": 2, "gamma": 1.0})
    assert main([spec if a == "SPEC" else a for a in argv]) == 1
    out, err = capsys.readouterr()
    err = [json.loads(line) for line in err.splitlines()]
    assert out == "" and len(err) == 1
    assert err[0]["kind"] == "bad_args" and argv[-2] in err[0]["error"]


@pytest.mark.parametrize("argv", [
    ["mixing", "SPEC", "--bogus"],
    ["analyze"],
    ["no_such_command"],
    [],
])
def test_usage_error_is_one_json_error_and_exit_1(tmp_path, capsys, argv):
    spec = write_spec(tmp_path / "g.json", {"family": "depolarizing", "dim": 2, "gamma": 1.0})
    assert main([spec if a == "SPEC" else a for a in argv]) == 1
    out, err = capsys.readouterr()
    err = [json.loads(line) for line in err.splitlines()]
    assert out == "" and len(err) == 1 and err[0]["kind"] == "bad_args"


@pytest.mark.parametrize("argv", [["--help"], ["mixing", "--help"]])
def test_help_still_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0 and "usage: qmix" in capsys.readouterr().out


def test_json_hook_takes_numpy_scalars_and_refuses_arrays():
    import qmix.cli as cli
    payload = {"b": np.bool_(True), "i": np.int64(3), "x": np.float64(0.1)}
    assert json.dumps(payload, default=cli._json_default) == '{"b": true, "i": 3, "x": 0.1}'
    with pytest.raises(TypeError, match="ndarray"):
        json.dumps({"m": np.eye(2)}, default=cli._json_default)
