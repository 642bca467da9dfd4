"""Command-line harness: configs, CSV emission, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from conftest import DATA, REPO
from ssqite import bench_cli
from ssqite.bench_cli import (
    blas_kernel,
    cmd_exact,
    cmd_scan,
    cmd_trace,
    main,
    parse_config,
)
from ssqite.errors import InputError


TERMS = ["ZI -0.5", "IZ 0.25", "XX 0.125"]  # one well-formed two-qubit geometry block


def write_config(tmp_path, hamiltonian, **overrides):
    values = {
        "hamiltonian_path": hamiltonian,
        "ansatz": "twolocal",
        "k": 3,
        "seed": 11,
        "output_dir": tmp_path / "out",
    }
    values.update(overrides)
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{key} = {value}\n" for key, value in values.items()),
                    encoding="utf-8")
    return path


def trimmed_h2(tmp_path, keep=3):
    """First few geometries of the shipped H2 file, for fast CLI tests."""
    source = (DATA / "h2_sto3g.txt").read_text(encoding="utf-8").splitlines()
    out, blocks = [], 0
    for line in source:
        if line.startswith("geometry"):
            blocks += 1
            if blocks > keep:
                break
        out.append(line)
    path = tmp_path / "h2_small.txt"
    path.write_text("\n".join(out) + "\n", encoding="utf-8")
    return path


class TestConfig:
    def test_defaults_and_overrides(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, trimmed_h2(tmp_path), b="0.4", shots="100"))
        assert cfg.ansatz == "twolocal"
        assert cfg.b == 0.4
        assert cfg.shots == 100
        assert cfg.hamiltonian_path.is_file()

    def test_unknown_key(self, tmp_path):
        path = write_config(tmp_path, trimmed_h2(tmp_path))
        path.write_text(path.read_text() + "mystery = 1\n")
        with pytest.raises(InputError, match="unknown config key 'mystery'"):
            parse_config(path)

    def test_missing_hamiltonian(self, tmp_path):
        with pytest.raises(InputError, match="hamiltonian file .* not found"):
            parse_config(write_config(tmp_path, tmp_path / "nope.txt"))

    def test_env_seed_override(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, trimmed_h2(tmp_path))
        monkeypatch.setenv("SSQITE_SEED", "123")
        assert parse_config(path).seed == 123

    def test_initial_states_list(self, tmp_path):
        cfg = parse_config(
            write_config(tmp_path, trimmed_h2(tmp_path), k="2", initial_states="00,11")
        )
        assert cfg.state_labels() == ("00", "11")

    def test_bad_ansatz(self, tmp_path):
        with pytest.raises(InputError, match="ansatz must be one of"):
            parse_config(write_config(tmp_path, trimmed_h2(tmp_path), ansatz="magic"))

    def test_repeated_key_names_second_line(self, tmp_path):
        # The first five lines set one key each; a second k on line 6 would
        # otherwise silently run with k = 2.
        path = write_config(tmp_path, trimmed_h2(tmp_path))
        path.write_text(path.read_text() + "k = 2\n")
        with pytest.raises(InputError, match="repeated config key 'k'") as exc:
            parse_config(path)
        assert exc.value.line == 6
        assert main(["exact", "--config", str(path)]) == 2


class TestScan:
    def test_scan_passes_tolerance(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, trimmed_h2(tmp_path)))
        assert cmd_scan(cfg) == 0
        lines = (cfg.output_dir / "scan.csv").read_text().splitlines()
        assert lines[0] == "R,level,E_ssqite,E_exact,abs_err,iters"
        assert len(lines) == 1 + 3 * 3  # header + geometries x levels
        summary = json.loads((cfg.output_dir / "summary.json").read_text())
        assert summary["max_abs_err_Ha"] < 1.6e-3

    def test_summary_iterations_match_scan(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, trimmed_h2(tmp_path)))
        assert cmd_scan(cfg) == 0
        rows = (cfg.output_dir / "scan.csv").read_text().splitlines()[1:]
        iters = {}
        for row in rows:
            bond, _, _, _, _, count = row.split(",")
            assert iters.setdefault(bond, int(count)) == int(count)
        summary = json.loads((cfg.output_dir / "summary.json").read_text())
        assert summary["iterations_per_geometry"] == iters
        assert summary["iterations_total"] == sum(iters.values())
        walls = summary["wall_s_per_geometry"]
        assert sorted(walls) == sorted(iters)
        assert all(w > 0 for w in walls.values())
        assert sum(walls.values()) <= summary["wall_time_s"]

    def test_inputs_built_once_per_command(self, tmp_path, monkeypatch):
        # Every geometry runs from one theta0; run copies it before stepping.
        draw, draws = bench_cli._initial_theta, []

        def counted(cfg, num_params):
            draws.append(num_params)
            return draw(cfg, num_params)

        monkeypatch.setattr(bench_cli, "_initial_theta", counted)
        cfg = parse_config(write_config(tmp_path, trimmed_h2(tmp_path)))
        assert cmd_scan(cfg) == 0 and len(draws) == 1
        assert cmd_trace(cfg, bond_length=0.35) == 0 and len(draws) == 2

    def test_error_column_integrity(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, trimmed_h2(tmp_path)))
        cmd_scan(cfg)
        for line in (cfg.output_dir / "scan.csv").read_text().splitlines()[1:]:
            _, _, e_ssqite, e_exact, abs_err, _ = line.split(",")
            recomputed = abs(float(e_ssqite) - float(e_exact))
            assert math.isclose(recomputed, float(abs_err), rel_tol=1e-15, abs_tol=0.0)

    def test_deterministic_bytes(self, tmp_path):
        path = write_config(tmp_path, trimmed_h2(tmp_path))
        first = parse_config(path)
        cmd_scan(first)
        bytes_first = (first.output_dir / "scan.csv").read_bytes()
        second_dir = tmp_path / "out2"
        import dataclasses

        second = dataclasses.replace(first, output_dir=second_dir)
        cmd_scan(second)
        assert (second_dir / "scan.csv").read_bytes() == bytes_first

    def test_seed_changes_bytes(self, tmp_path):
        path = write_config(tmp_path, trimmed_h2(tmp_path))
        cfg = parse_config(path)
        cmd_scan(cfg)
        import dataclasses

        other = dataclasses.replace(cfg, seed=99, output_dir=tmp_path / "out99")
        cmd_scan(other)
        assert (
            (cfg.output_dir / "scan.csv").read_bytes()
            != (other.output_dir / "scan.csv").read_bytes()
        )

    def test_shots_mode_deterministic(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, trimmed_h2(tmp_path), shots="100000"))
        cmd_scan(cfg)
        first = (cfg.output_dir / "scan.csv").read_bytes()
        import dataclasses

        again = dataclasses.replace(cfg, output_dir=tmp_path / "outb")
        cmd_scan(again)
        assert (again.output_dir / "scan.csv").read_bytes() == first
        # sampled energies still track the exact ones at this shot count
        for line in first.decode().splitlines()[1:]:
            assert float(line.split(",")[4]) < 0.05

    def test_empty_geometry_file_exit_2(self, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("# nothing\n", encoding="utf-8")
        code = main(["scan", "--config", str(write_config(tmp_path, empty))])
        assert code == 2

    def test_accuracy_failure_exit_1(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, trimmed_h2(tmp_path))
        assert main(["scan", "--config", str(cfg_path), "--tolerance", "1e-12"]) == 1
        out, err = capsys.readouterr()
        assert "ABOVE 1e-12 Ha" in out
        assert err.startswith("error: max error ") and err.endswith(" Ha is not below 1e-12 Ha\n")

    def test_unconverged_exit_1(self, tmp_path):
        cfg_path = write_config(tmp_path, trimmed_h2(tmp_path), max_iters="3")
        assert main(["scan", "--config", str(cfg_path)]) == 1

    def test_failed_mclachlan_solve_exit_1(self, tmp_path, capsys, monkeypatch):
        # Only the stacked McLachlan solve fails; the exact oracle's
        # single-matrix eigendecompositions still run.
        original = np.linalg.eigh

        def failing_on_stacks(a):
            if np.ndim(a) == 3:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return original(a)

        monkeypatch.setattr(np.linalg, "eigh", failing_on_stacks)
        cfg_path = write_config(tmp_path, trimmed_h2(tmp_path))
        assert main(["scan", "--config", str(cfg_path)]) == 1
        assert "Traceback" not in capsys.readouterr().err


    def test_lih_scan_with_larger_base_step_passes(self, tmp_path):
        # The shipped LiH config at b = 0.7 (0.6 and 0.8 pass either way):
        # at R = 1.4 the step-size back-off fires on every iteration once
        # level 0 has converged, and it must not drive the steps to zero.
        cfg_path = write_config(tmp_path, DATA / "lih_sto3g.txt",
                                ansatz="excitation-preserving", b="0.7")
        assert main(["scan", "--config", str(cfg_path)]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["failures"] == {} and summary["max_abs_err_Ha"] < 1.6e-3

    def test_capped_geometries_keep_the_other_rows_exit_1(self, tmp_path, capsys):
        # The shipped H2 series capped at 1000 iterations: the four
        # stretched geometries need more, the other nine keep their rows.
        cfg_path = write_config(tmp_path, DATA / "h2_sto3g.txt", max_iters="1000")
        assert main(["scan", "--config", str(cfg_path)]) == 1
        failed = ["1.5", "1.75", "2.0", "2.25"]
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [line.split(": ")[:2] for line in err.splitlines()] == [
            ["error", f"R={bond}"] for bond in failed]
        rows = [line.split(",") for line in
                (tmp_path / "out" / "scan.csv").read_text().splitlines()[1:]]
        finished = ["0.35", "0.45", "0.55", "0.65", "0.735", "0.8", "0.95", "1.1", "1.3"]
        assert [row[0] for row in rows] == [bond for bond in finished for _ in range(3)]
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert sorted(summary["failures"], key=float) == failed
        assert all(reason.endswith("unconverged after 1000 iterations")
                   for reason in summary["failures"].values())
        assert list(summary["iterations_per_geometry"]) == finished
        assert summary["max_abs_err_Ha"] == max(float(row[4]) for row in rows)
        assert summary["numpy"] == np.__version__
        assert summary["blas_kernel"] == blas_kernel()

    def test_blas_kernel_unknown_without_the_bundled_library(self, tmp_path, monkeypatch):
        assert blas_kernel() != ""
        monkeypatch.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
        assert blas_kernel() == "unknown"


class TestTrace:
    def test_three_level_trace(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, DATA / "h2_sto3g.txt"))
        assert cmd_trace(cfg, bond_length=0.95) == 0
        lines = (cfg.output_dir / "trace.csv").read_text().splitlines()
        assert lines[0] == "iter,level,energy_Ha,grad_inf_norm,dtau,ortho_max_offdiag"
        rows = [l.split(",") for l in lines[1:]]
        iters = {int(r[0]) for r in rows}
        assert len(rows) == 3 * len(iters)  # row count == iterations x k
        final = sorted(float(r[2]) for r in rows if int(r[0]) == max(iters))
        assert final == sorted(final)

    def test_geometry_not_found_exit_2(self, tmp_path):
        cfg_path = write_config(tmp_path, DATA / "h2_sto3g.txt")
        code = main(["trace", "--config", str(cfg_path), "--bond-length", "0.1234"])
        assert code == 2

    def test_max_iters_writes_partial_trace_exit_1(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, DATA / "h2_sto3g.txt", max_iters="30")
        assert main(["trace", "--config", str(cfg_path), "--bond-length", "2.25"]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        lines = (tmp_path / "out" / "trace.csv").read_text().splitlines()
        assert lines[0] == "iter,level,energy_Ha,grad_inf_norm,dtau,ortho_max_offdiag"
        rows = [l.split(",") for l in lines[1:]]
        assert len(rows) == 30 * 3
        assert [int(r[0]) for r in rows[::3]] == list(range(30))

    def test_k1_trace_matches_run_qite(self, tmp_path):
        from ssqite.errors import MaxItersExceeded
        from ssqite.pauli_algebra import load_geometry_series
        from ssqite.qite_engine import run_qite
        from ssqite.simulator import Statevector, build_twolocal

        cfg = parse_config(
            write_config(
                tmp_path, DATA / "h2_sto3g.txt", k="1", initial_states="00",
                grad_tol="1e-10", max_iters="30",
            )
        )
        code = main(
            ["trace", "--config", str(tmp_path / "run.cfg"), "--bond-length", "0.95"]
        )
        assert code == 1  # 30 iterations cannot hit 1e-10; diagnostic exit

        # compare against the direct single-state engine on the same config
        _, h = load_geometry_series(cfg.hamiltonian_path).nearest(0.95)
        theta0 = np.random.default_rng(cfg.seed).normal(0, 0.1, 16)
        with pytest.raises(MaxItersExceeded) as exc:
            run_qite(h, build_twolocal(), Statevector.from_label("00"), cfg, theta0=theta0)
        direct = exc.value.result.energies

        # a converging configuration for emission, same seed and step
        cfg2 = parse_config(
            write_config(tmp_path, DATA / "h2_sto3g.txt", k="1", initial_states="00")
        )
        assert cmd_trace(cfg2, bond_length=0.95) == 0
        lines = (cfg2.output_dir / "trace.csv").read_text().splitlines()[1:]
        emitted = np.array([float(l.split(",")[2]) for l in lines])
        shared = min(len(emitted), len(direct))
        assert shared >= 10
        np.testing.assert_array_equal(emitted[:shared], direct[:shared])


class TestExact:
    def test_reference_columns(self, tmp_path):
        cfg = parse_config(
            write_config(tmp_path, DATA / "lih_sto3g.txt", ansatz="excitation-preserving")
        )
        assert cmd_exact(cfg) == 0
        lines = (cfg.output_dir / "exact.csv").read_text().splitlines()
        assert lines[0] == "R,E_0,E_1,E_2"
        assert len(lines) == 1 + 10

    def test_k_exceeding_dimension_exit_2(self, tmp_path):
        cfg_path = write_config(
            tmp_path, DATA / "lih_sto3g.txt", ansatz="excitation-preserving", k="9"
        )
        assert main(["exact", "--config", str(cfg_path)]) == 2

    def test_idempotent_and_roundtrip(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, trimmed_h2(tmp_path)))
        cmd_exact(cfg)
        first = (cfg.output_dir / "exact.csv").read_text()
        cmd_exact(cfg)
        assert (cfg.output_dir / "exact.csv").read_text() == first
        # the shortest round-trip text of each float64, parsed back exactly
        for line in first.splitlines()[1:]:
            for token in line.split(","):
                assert repr(float(token)) == token


class TestMainDispatch:
    def test_out_override(self, tmp_path):
        cfg_path = write_config(tmp_path, trimmed_h2(tmp_path))
        target = tmp_path / "elsewhere"
        assert main(["exact", "--config", str(cfg_path), "--out", str(target)]) == 0
        assert (target / "exact.csv").is_file()

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["scan", "--config", str(tmp_path / "absent.cfg")]) == 2

    @pytest.mark.parametrize(
        "key, value",
        [("update_mode", "bogus"), ("b", "-1"), ("patience", "0"),
         ("theta0_scale", "-0.1"), ("seed", "-1"),
         ("initial_states", "00,0a,10"), ("initial_states", "00,00,10"),
         ("initial_states", "0" * 70),
         ("max_iters", "0"), ("grad_tol", "-1"),
         ("b", "nan"), ("b", "inf"), ("grad_tol", "nan"), ("grad_tol", "inf"),
         ("theta0_scale", "nan"), ("theta0_scale", "inf"),
         ("update_mode", "shared"),
         ("k", "99999999999999999999"), ("shots", "100000000000000000000"),
         ("k", "0"), ("k", "three")],
    )
    def test_bad_config_value_exit_2(self, tmp_path, capsys, key, value):
        cfg_path = write_config(tmp_path, trimmed_h2(tmp_path), **{key: value})
        assert main(["scan", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "out" / "scan.csv").exists()

    @pytest.mark.parametrize("case, message", [
        ("no_equals", "line 6: expected 'key = value'"),
        ("no_hamiltonian_path", "config needs hamiltonian_path and ansatz"),
        ("no_ansatz", "config needs hamiltonian_path and ansatz"),
    ])
    def test_malformed_config_exit_2(self, tmp_path, capsys, case, message):
        cfg_path = write_config(tmp_path, trimmed_h2(tmp_path))
        lines = cfg_path.read_text(encoding="utf-8").splitlines()
        if case == "no_equals":
            lines.append("patience 3")
        else:
            lines = [l for l in lines if not l.startswith(case.removeprefix("no_"))]
        cfg_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["scan", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Traceback" not in err
        assert not (tmp_path / "out" / "scan.csv").exists()

    @pytest.mark.parametrize("lines, message", [
        (["molecule", "geometry 0.7", *TERMS], "line 1: expected 'molecule <name>'"),
        (["molecule X 2", "geometry 0.7", *TERMS], "line 1: expected 'molecule <name>'"),
        (["molecule X2", "geometry 0.7 0.8", *TERMS], "line 2: expected 'geometry <R>'"),
        (["molecule X2", "geometry 0.7", "ZI -0.5 0.1"],
         "line 3: expected '<pauli-string> <coefficient>'"),
        (["molecule X2"], "no geometry blocks"),
        (["molecule X2", "geometry 0.7", "geometry 0.8", *TERMS],
         "line 2: geometry block has no terms"),
    ], ids=["molecule-1-field", "molecule-3-fields", "geometry-3-fields", "term-3-fields",
            "no-geometry", "empty-geometry"])
    def test_malformed_coefficient_file_exit_2(self, tmp_path, capsys, lines, message):
        h = tmp_path / "h.txt"
        h.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["scan", "--config", str(write_config(tmp_path, h))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Traceback" not in err
        assert not (tmp_path / "out" / "scan.csv").exists()

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "0", "-1e-3"])
    def test_bad_tolerance_exit_2(self, tmp_path, capsys, tolerance):
        # Rejected before any geometry runs, so no scan.csv is written.
        cfg_path = write_config(tmp_path, trimmed_h2(tmp_path))
        assert main(["scan", "--config", str(cfg_path), f"--tolerance={tolerance}"]) == 2
        assert capsys.readouterr().err.startswith("error: tolerance")
        assert not (tmp_path / "out" / "scan.csv").exists()

    @pytest.mark.parametrize("hamiltonian, ansatz", [
        ("lih_sto3g.txt", "twolocal"), ("h2_sto3g.txt", "excitation-preserving"),
    ])
    def test_hamiltonian_width_mismatch_exit_2(self, tmp_path, capsys, hamiltonian, ansatz):
        cfg_path = write_config(tmp_path, DATA / hamiltonian, ansatz=ansatz)
        assert main(["scan", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "qubits" in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("where", ["bond-length", "geometry", "coefficient"])
    def test_non_finite_geometry_input_exit_2(self, tmp_path, capsys, where, value):
        if where == "bond-length":
            cfg_path = write_config(tmp_path, DATA / "h2_sto3g.txt")
            argv = ["trace", "--config", str(cfg_path), "--bond-length", value]
        else:
            terms = ["ZI -0.5", "IZ 0.25", "XX 0.125"]
            if where == "coefficient":
                terms[0] = f"ZI {value}"
            bond = value if where == "geometry" else "0.7"
            h = tmp_path / "h.txt"
            h.write_text("\n".join(["molecule X2", f"geometry {bond}"] + terms) + "\n")
            argv = ["scan", "--config", str(write_config(tmp_path, h))]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["scan", "trace", "exact"])
    @pytest.mark.parametrize("probe", ["theta0_scale", "coefficient_sum", "merged_coefficient",
                                       "solve_headroom"])
    def test_overflowing_input_exit_2(self, tmp_path, capsys, probe, command):
        # Finite inputs whose use overflows: a drawn theta0, a sum of
        # coefficients, a coefficient merged from two lines, and a sum that
        # is finite but whose square, the McLachlan solve's headroom, is not.
        # Each is an input error, not a traceback or a file of nan.  ``exact``
        # draws no theta0, so the theta0_scale probe leaves it correct, with
        # exit 0.
        if probe == "theta0_scale":
            h, bond, overrides = DATA / "h2_sto3g.txt", "0.95", {"theta0_scale": "1e308"}
        else:
            terms = {"coefficient_sum": ["ZI 1e308", "IZ 1e308"],
                     "merged_coefficient": ["ZI 1e308", "ZI 1e308"],
                     "solve_headroom": ["ZI 1e308", "XX 0.125"]}[probe]
            h, bond, overrides = tmp_path / "h.txt", "0.7", {}
            h.write_text("\n".join(["molecule X2", "geometry 0.7"] + terms) + "\n")
        argv = [command, "--config", str(write_config(tmp_path, h, **overrides))]
        if command == "trace":
            argv += ["--bond-length", bond]
        expected = 0 if (probe, command) == ("theta0_scale", "exact") else 2
        assert main(argv) == expected
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if expected == 2:
            assert err.startswith("error: ") and err.count("error:") == 1
            assert ("theta0_scale" if probe == "theta0_scale" else "line 2:") in err
        assert all("nan" not in f.read_text() for f in (tmp_path / "out").glob("*"))

    @pytest.mark.parametrize("bond", ["0.35", "0.95", "2.25"])
    def test_overflowing_base_step_exit_2(self, tmp_path, capsys, bond):
        # A finite b whose first update leaves the floating-point range is
        # refused before NumPy makes it: no RuntimeWarning, an input error
        # that names b, not a SingularSystem after theta turned nan.
        cfg_path = write_config(tmp_path, DATA / "h2_sto3g.txt", b="1.7976931348623157e308")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["trace", "--config", str(cfg_path), "--bond-length", bond])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: b = 1.7976931348623157e+308 ") and err.count("\n") == 1
        assert "Traceback" not in err and "RuntimeWarning" not in err

    @pytest.mark.parametrize("where", ["config", "hamiltonian"])
    def test_undecodable_input_exit_2(self, tmp_path, capsys, where):
        # Byte 0xff is not UTF-8: in a comment of the config, or in a term
        # line of the coefficient file.
        h = tmp_path / "h.txt"
        term = b"IZ\xff 0.25" if where == "hamiltonian" else b"IZ 0.25"
        h.write_bytes(b"\n".join([b"molecule X2", b"geometry 0.7", b"ZI -0.5", term]) + b"\n")
        cfg_path = write_config(tmp_path, h)
        if where == "config":
            cfg_path.write_bytes(cfg_path.read_bytes() + b"# caf\xff\n")
        assert main(["exact", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not UTF-8" in err
        assert (cfg_path if where == "config" else h).name in err
        assert not (tmp_path / "out").exists()

    def test_bad_env_seed_exit_2(self, tmp_path, capsys, monkeypatch):
        cfg_path = write_config(tmp_path, trimmed_h2(tmp_path))
        monkeypatch.setenv("SSQITE_SEED", "eleven")
        assert main(["exact", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err.startswith("error: SSQITE_SEED")


def test_library_run_imports_no_scipy():
    # Only the data generator and the benchmark's version report use SciPy
    # (the optional "tools" extra); importing it would add to set-up time.
    code = (
        "import sys\n"
        "import ssqite\n"
        "from ssqite.errors import MaxItersExceeded\n"
        "series = ssqite.load_geometry_series('data/lih_sto3g.txt')\n"
        "_, h = series.nearest(1.6)\n"
        "states = [ssqite.Statevector.from_label(l) for l in ('010', '001', '100')]\n"
        "try:\n"
        "    ssqite.run(h, ssqite.build_excitation_preserving(), states,\n"
        "               ssqite.SsqiteConfig(max_iters=2))\n"
        "except MaxItersExceeded as exc:\n"
        "    assert exc.result.iterations == 2\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=REPO, capture_output=True, text=True,
        timeout=120, env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
