"""CLI behavior: subcommands, reports, and the exit-code contract."""

import json
import re
import subprocess
import sys

import pytest

from ucrsynth import basis_state, dump_circuit, dump_state, load_circuit, make_state, random_state
from ucrsynth.circuit import Rot
from ucrsynth import cli
from ucrsynth.cli import main


def write_states(tmp_path, n=3, seeds=(11, 22)):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(dump_state(random_state(n, seeds[0])))
    b.write_text(dump_state(random_state(n, seeds[1])))
    return a, b


def test_synth_report_and_outputs(tmp_path, capsys):
    a, b = write_states(tmp_path)
    out_json = tmp_path / "c.json"
    out_qasm = tmp_path / "c.qasm"
    code = main(["synth", str(a), str(b), "--json", str(out_json), "--qasm", str(out_qasm)])
    captured = capsys.readouterr().out
    assert code == 0
    assert "CNOT 16/16 (upper), ROT 27/27 (upper)" in captured
    assert "fidelity" in captured
    circuit, meta = load_circuit(out_json.read_text())
    assert meta["counts"] == {"cnot": 16, "rot": 27}
    assert meta["bounds"]["upper_cnot"] == 16
    assert "residual_phase" in meta
    assert out_qasm.read_text().startswith("//")


def test_synth_identity_prints_unit_fidelity(tmp_path, capsys):
    doc = dump_state(basis_state(2))
    (tmp_path / "e.json").write_text(doc)
    code = main(["synth", str(tmp_path / "e.json"), str(tmp_path / "e.json")])
    assert code == 0
    assert "fidelity 1.0" in capsys.readouterr().out


def test_synth_parse_failure_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 1, "amplitudes": [[1, 0], [0,]]}')
    good = tmp_path / "g.json"
    good.write_text(dump_state(basis_state(1)))
    code = main(["synth", str(bad), str(good)])
    assert code == 2
    err = capsys.readouterr().err
    assert "bad.json:1:" in err
    # missing file is also a parse failure
    assert main(["synth", str(tmp_path / "nope.json"), str(good)]) == 2


def test_non_finite_input_exit_2(tmp_path, capsys):
    a, b = write_states(tmp_path, n=1)
    nan_state = tmp_path / "nan.json"
    nan_state.write_text('{"n": 1, "amplitudes": [[NaN, 0], [1, 0]]}')
    assert main(["synth", str(nan_state), str(b)]) == 2
    circuit = tmp_path / "c.json"
    circuit.write_text('{"n": 1, "gates": [{"type": "rot", "axis": "z", "target": 1, "angle": Infinity}]}')
    assert main(["verify", str(circuit), str(a), str(b)]) == 2
    assert "gates[0].angle" in capsys.readouterr().err


def test_out_of_range_integers_exit_2(tmp_path, capsys):
    a, b = write_states(tmp_path, n=1)
    big = 10**400
    state = tmp_path / "big.json"
    state.write_text(f'{{"n": 1, "amplitudes": [[1, 0], [{big}, 0]]}}')
    assert main(["synth", str(state), str(b)]) == 2
    gates = [
        f'{{"type": "rot", "axis": "y", "target": 1, "angle": {big}}}',
        f'{{"type": "rot", "axis": [0, {big}, 0], "target": 1, "angle": 0.5}}',
        '{"type": "cnot", "control": 1, "target": 4294967297}',
    ]
    for gate in gates:
        circuit = tmp_path / "c.json"
        circuit.write_text(f'{{"n": 1, "gates": [{gate}]}}')
        assert main(["verify", str(circuit), str(a), str(b)]) == 2
        assert main(["export-qasm", str(circuit)]) == 2
    assert "c.json" in capsys.readouterr().err


def test_circuit_without_qubits_exit_2(tmp_path, capsys):
    a, b = write_states(tmp_path, n=1)
    circuit = tmp_path / "c.json"
    circuit.write_text('{"n": -3, "gates": []}')
    assert main(["export-qasm", str(circuit)]) == 2
    assert main(["verify", str(circuit), str(a), str(b)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "qubit count must be >= 1, got -3" in captured.err


def test_synth_dimension_mismatch_exit_3(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(dump_state(basis_state(2)))
    b.write_text(dump_state(basis_state(3)))
    assert main(["synth", str(a), str(b)]) == 3


def test_synth_normalize_flag(tmp_path):
    raw = tmp_path / "raw.json"
    raw.write_text(json.dumps({"n": 1, "amplitudes": [[2.0, 0.0], [0.0, 0.0]]}))
    target = tmp_path / "t.json"
    target.write_text(dump_state(random_state(1, 5)))
    assert main(["synth", str(raw), str(target)]) == 2
    assert main(["synth", str(raw), str(target), "--normalize"]) == 0


def test_synth_normalizes_huge_and_tiny_states(tmp_path, capsys):
    target = tmp_path / "t.json"
    target.write_text(dump_state(random_state(1, 5)))
    for name, amplitudes in (("huge", [[1e200, 0], [1e200, 0]]), ("tiny", [[1e-200, 0], [0, 0]])):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"n": 1, "amplitudes": amplitudes}))
        for argv in ([str(target), str(path)], [str(path), str(target)]):
            assert main(["synth", *argv, "--normalize"]) == 0, (name, argv)
            fidelity = float(re.search(r"^fidelity (\S+)$", capsys.readouterr().out, re.M)[1])
            assert fidelity >= 1 - 1e-9


def test_main_looks_the_command_up_on_every_call(tmp_path, monkeypatch, capsys):
    a, b = write_states(tmp_path)
    circuit = tmp_path / "c.json"
    assert main(["synth", str(a), str(b), "--json", str(circuit)]) == 0
    assert main(["verify", str(circuit), str(a), str(b)]) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_verify", lambda args: seen.append(args.circuit) or 7)
    assert main(["verify", str(circuit), str(a), str(b)]) == 7
    assert seen == [str(circuit)]
    assert cli.build_parser() is cli.build_parser()


def test_verify_pass_and_fail(tmp_path, capsys):
    a, b = write_states(tmp_path)
    out_json = tmp_path / "c.json"
    assert main(["synth", str(a), str(b), "--json", str(out_json)]) == 0
    assert main(["verify", str(out_json), str(a), str(b)]) == 0
    assert "PASS" in capsys.readouterr().out

    circuit, meta = load_circuit(out_json.read_text())
    gates = list(circuit.gates)
    for i, g in enumerate(gates):
        if isinstance(g, Rot):
            gates[i] = Rot(g.axis, g.target, g.angle + 0.1)
            break
    broken = tmp_path / "broken.json"
    broken.write_text(dump_circuit(type(circuit)(circuit.n, tuple(gates)), meta))
    assert main(["verify", str(broken), str(a), str(b)]) == 1
    assert "FAIL" in capsys.readouterr().out


def amplitude_error(out):
    return float(re.search(r"^max amplitude error (\S+)$", out, re.M)[1])


def reported_gap(out):
    """The gap on verify's reported-phase line, or None without that line."""
    match = re.search(r"^reported residual phase \S+ \(gap (\S+)\)$", out, re.M)
    return float(match[1]) if match else None


def test_verify_reports_amplitude_error_and_phase_gap(tmp_path, capsys):
    a, b = write_states(tmp_path)
    out_json = tmp_path / "c.json"
    assert main(["synth", str(a), str(b), "--json", str(out_json)]) == 0
    capsys.readouterr()
    assert main(["verify", str(out_json), str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert amplitude_error(out) <= 1e-12
    assert abs(reported_gap(out)) <= 1e-12

    # a tampered reported phase shows as a gap; the verdict is unchanged
    doc = json.loads(out_json.read_text())
    doc["metadata"]["residual_phase"] += 0.25
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc))
    assert main(["verify", str(tampered), str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert abs(reported_gap(out) + 0.25) <= 1e-9
    assert "PASS" in out

    # without the metadata there is nothing to compare against
    del doc["metadata"]
    tampered.write_text(json.dumps(doc))
    assert main(["verify", str(tampered), str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "max amplitude error" in out
    assert reported_gap(out) is None


def test_synth_reports_amplitude_error_of_a_small_amplitude(tmp_path, capsys):
    # fidelity reads 1 - 1e-20 whether or not the 1e-10 amplitude is kept
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(dump_state(basis_state(2)))
    b.write_text(dump_state(make_state(2, [1e-10, 0, 1, 0], normalize=True)))
    assert main(["synth", str(a), str(b)]) == 0
    assert amplitude_error(capsys.readouterr().out) <= 1e-15


def test_synth_then_verify_build_one_plan(tmp_path, monkeypatch, capsys):
    # the circuit synth prunes and certifies and the one verify loads have
    # equal columns, so they share one simulator plan, kept across commands
    from test_sim import count_plans

    a, b = write_states(tmp_path, n=6)
    c = tmp_path / "c.json"
    built = count_plans(monkeypatch)
    for _ in range(2):
        assert main(["synth", str(a), str(b), "--prune-epsilon", "1e-12", "--json", str(c)]) == 0
        synth_out = capsys.readouterr().out
        assert main(["verify", str(c), str(a), str(b)]) == 0
        verify_out = capsys.readouterr().out
        assert len(built) == 1
        assert amplitude_error(synth_out) <= 1e-12 and amplitude_error(verify_out) <= 1e-12


def test_verify_tolerance_flag(tmp_path, capsys):
    a, b = write_states(tmp_path, n=2)
    out_json = tmp_path / "c.json"
    main(["synth", str(a), str(b), "--json", str(out_json)])
    capsys.readouterr()
    # absurdly loose tolerance turns any circuit into a pass
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"n": 2, "gates": []}))
    assert main(["verify", str(empty), str(a), str(b)]) == 1
    assert main(["verify", str(empty), str(a), str(b), "--tolerance", "1.0"]) == 0


def test_verify_circuit_state_mismatch_exit_3(tmp_path):
    a, b = write_states(tmp_path, n=2)
    circuit = tmp_path / "c.json"
    circuit.write_text(json.dumps({"n": 3, "gates": []}))
    assert main(["verify", str(circuit), str(a), str(b)]) == 3


def test_export_qasm_stdout_and_exit_4(tmp_path, capsys):
    a, b = write_states(tmp_path, n=2)
    out_json = tmp_path / "c.json"
    main(["synth", str(a), str(b), "--json", str(out_json)])
    capsys.readouterr()
    assert main(["export-qasm", str(out_json)]) == 0
    first = capsys.readouterr().out
    assert first.startswith("//")
    assert "OPENQASM 2.0;" in first
    assert main(["export-qasm", str(out_json)]) == 0
    assert capsys.readouterr().out == first

    general = tmp_path / "general.json"
    general.write_text(
        json.dumps(
            {"n": 1, "gates": [{"type": "rot", "axis": [0, 0.6, 0.8], "target": 1, "angle": 0.5}]}
        )
    )
    assert main(["export-qasm", str(general)]) == 4


def test_export_qasm_to_file(tmp_path):
    a, b = write_states(tmp_path, n=2)
    out_json = tmp_path / "c.json"
    main(["synth", str(a), str(b), "--json", str(out_json)])
    target = tmp_path / "c.qasm"
    assert main(["export-qasm", str(out_json), "--qasm", str(target)]) == 0
    assert "qreg q[2];" in target.read_text()


def test_mirror_flag_is_gone(tmp_path, capsys):
    # one realization; the mirrored ladders come from lower_ucr(..., mirrored=True)
    a, b = write_states(tmp_path)
    err = usage_error(["synth", str(a), str(b), "--mirror"], capsys)
    assert "unrecognized arguments: --mirror" in err


def test_huge_amplitudes_give_one_error_line(tmp_path):
    # squaring 1e200 overflows; the error alone reaches stderr, even under -W error
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"n": 1, "amplitudes": [[1e200, 0], [1e200, 0]]}))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "ucrsynth.cli", "synth", str(huge), str(huge)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    (line,) = proc.stderr.splitlines()
    assert line.startswith(f"error: {huge}: state is not normalized: sum |a_i|^2 = inf")


def test_prune_epsilon_shrinks_degenerate_circuits(tmp_path, capsys):
    bell = tmp_path / "bell.json"
    bell.write_text(json.dumps({"n": 2, "amplitudes": [[1, 0], [0, 0], [0, 0], [1, 0]], "normalize": True}))
    target = tmp_path / "t.json"
    target.write_text(dump_state(basis_state(2, 3)))
    full = tmp_path / "full.json"
    pruned = tmp_path / "pruned.json"
    assert main(["synth", str(bell), str(target), "--json", str(full)]) == 0
    assert main(["synth", str(bell), str(target), "--prune-epsilon", "1e-9", "--json", str(pruned)]) == 0
    capsys.readouterr()
    _, meta_full = load_circuit(full.read_text())
    _, meta_pruned = load_circuit(pruned.read_text())
    total = lambda m: m["counts"]["cnot"] + m["counts"]["rot"]
    assert total(meta_pruned) < total(meta_full)
    assert main(["verify", str(pruned), str(bell), str(target)]) == 0


def test_synth_failed_self_check_exit_1(tmp_path, capsys):
    # pruning every rotation leaves a CNOT-only circuit that misses b; synth
    # still reports and writes its files, then exits with the verify code
    a, b = write_states(tmp_path)
    out_json = tmp_path / "c.json"
    out_qasm = tmp_path / "c.qasm"
    argv = ["synth", str(a), str(b), "--prune-epsilon", "1e3", "--json", str(out_json), "--qasm", str(out_qasm)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "fidelity" in captured.out
    assert "threshold" in captured.err
    _, meta = load_circuit(out_json.read_text())
    assert meta["counts"]["rot"] == 0
    assert out_qasm.read_text().startswith("//")


def test_bench_table(capsys):
    assert main(["bench", "--n-max", "4", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert len(lines) == 5
    n4 = lines[-1].split()
    assert n4[:5] == ["4", "44", "59", "44", "59"]
    assert n4[7] == "201"


def test_bench_json_record(tmp_path, capsys):
    record = tmp_path / "bench.json"
    assert main(["bench", "--n-max", "4", "--seed", "3"]) == 0
    plain = capsys.readouterr().out.splitlines()
    labelled = ["--json", str(record), "--label", "a"]
    assert main(["bench", "--n-max", "4", "--seed", "3", *labelled]) == 0
    table = capsys.readouterr().out.splitlines()
    # the table keeps its columns; only the time column may differ
    assert [line.split()[:-1] for line in table] == [line.split()[:-1] for line in plain]
    assert main(["bench", "--n-max", "2", "--json", str(record)]) == 0
    runs = json.loads(record.read_text())["runs"]
    assert [(run["label"], len(run["rows"])) for run in runs] == [("a", 4), (None, 2)]
    assert set(runs[0]["machine"]) == {"cpu_count", "cpu_model", "python", "numpy"}
    n4 = runs[0]["rows"][-1]
    assert (n4["n"], n4["cnot"], n4["rot"], n4["cnot_up"], n4["rot_up"]) == (4, 44, 59, 44, 59)
    assert n4["prepare_s"] > 0 and n4["apply_circuit_s"] > 0
    assert all(row["prepare_from_basis_s"] > 0 for run in runs for row in run["rows"])
    assert all(row["sim_table_s"] > 0 for run in runs for row in run["rows"])
    # the simulator's plan of each prepare circuit: one run per UCR, the two
    # y rotations on qubit 1 merged, and every closing swap folded away
    for run in runs:
        assert [(row["sim_runs"], row["sim_swaps"]) for row in run["rows"]] == [
            (4 * n - 1, 0) for n in range(1, len(run["rows"]) + 1)
        ]
    # and the in-process synth plus verify on files, at n = 8 whatever --n-max says
    for run in runs:
        assert set(run["cli"]) == {"n", "synth_verify_s"}
        assert run["cli"]["n"] == 8 and run["cli"]["synth_verify_s"] > 0
    # and the pruned synth plus verify on the seeded n = 12 product states
    for run in runs:
        pruned = run["cli_pruned"]
        assert set(pruned) == {"n", "synth_verify_s", "simplify_s", "before", "after"}
        assert pruned["n"] == 12 and min(pruned["synth_verify_s"], pruned["simplify_s"]) > 0
        assert pruned["before"] == {"cnot": 16332, "rot": 16379}
        assert pruned["after"] == {"cnot": 8150, "rot": 7796}
    # and the digests of a fixed sweep of outputs, whatever --n-max and --seed say
    for name in ("digest", "digest_pruned", "digest_sim"):
        assert re.fullmatch("[0-9a-f]{64}", runs[0][name])
        assert runs[1][name] == runs[0][name]
    assert len({runs[0][name] for name in ("digest", "digest_pruned", "digest_sim")}) == 3
    bad = tmp_path / "bad.json"
    bad.write_text("[1]")
    assert main(["bench", "--n-max", "1", "--json", str(bad)]) == 2
    assert bad.read_text() == "[1]"


def test_bench_nmax_cap(capsys):
    with pytest.raises(SystemExit):
        main(["bench", "--n-max", "21"])


def test_unwritable_output_paths_exit_4(tmp_path, capsys):
    a, b = write_states(tmp_path, n=2)
    circuit = tmp_path / "c.json"
    assert main(["synth", str(a), str(b), "--json", str(circuit)]) == 0
    missing = tmp_path / "no-such-dir" / "out"
    writers = [
        ["synth", str(a), str(b), "--json", str(missing)],
        ["synth", str(a), str(b), "--qasm", str(missing)],
        ["export-qasm", str(circuit), "--qasm", str(missing)],
        ["bench", "--n-max", "1", "--json", str(missing)],
    ]
    capsys.readouterr()
    for argv in writers:
        assert main(argv) == 4, argv
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {missing}: ")


def test_bench_json_record_that_is_a_directory_exits_4(tmp_path, capsys):
    # a record that cannot be read is an output failure (4), not malformed JSON (2)
    assert main(["bench", "--n-max", "1", "--json", str(tmp_path)]) == 4
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {tmp_path}: ")


def test_bench_json_record_that_is_not_json_exits_2(tmp_path, capsys):
    # malformed JSON is a parse error (2), and the record is left as it was
    path = tmp_path / "record.json"
    path.write_text("runs: []\n")
    assert main(["bench", "--n-max", "1", "--json", str(path)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {path}: ")
    assert path.read_text() == "runs: []\n"


def usage_error(argv, capsys) -> str:
    """stderr of an argparse usage error (exit 2) raised by main(argv)."""
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    return capsys.readouterr().err


def test_prune_epsilon_must_be_finite_and_nonnegative(tmp_path, capsys):
    a, b = write_states(tmp_path, n=2)
    # nan and -1 used to prune nothing and inf every rotation, all exiting 0
    for value in ("nan", "-1", "inf", "-inf"):
        err = usage_error(["synth", str(a), str(b), f"--prune-epsilon={value}"], capsys)
        assert "argument --prune-epsilon" in err
    assert main(["synth", str(a), str(b), "--prune-epsilon", "0"]) == 0


def test_tolerance_must_be_finite_and_nonnegative(tmp_path, capsys):
    a, b = write_states(tmp_path, n=2)
    circuit = tmp_path / "c.json"
    assert main(["synth", str(a), str(b), "--json", str(circuit)]) == 0
    # nan used to print "FAIL (threshold nan)"
    for value in ("nan", "-1e-9", "inf"):
        err = usage_error(["verify", str(circuit), str(a), str(b), f"--tolerance={value}"], capsys)
        assert "argument --tolerance" in err
    # 0 is allowed: verify runs and passes or fails instead of a usage error
    assert main(["verify", str(circuit), str(a), str(b), "--tolerance", "0"]) in (0, 1)


def test_bench_seed_must_be_nonnegative(capsys):
    # -5 used to end in a numpy ValueError traceback
    err = usage_error(["bench", "--n-max", "1", "--seed", "-5"], capsys)
    assert "argument --seed" in err
    assert main(["bench", "--n-max", "1", "--seed", "0"]) == 0


def test_console_script_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "ucrsynth.cli", "bench", "--n-max", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "cnot" in proc.stdout
