import json
import tracemalloc

import numpy as np
import pytest

from lowcontrast import cli, eig, vtkio
from lowcontrast.eig import ShiftedSolver, SolverError
from lowcontrast.mesh import Mesh, generate_unit_square
from lowcontrast.vtkio import export_vtk, write_csv

# values whose 17-digit text is easy to get wrong: signed zero, the least
# subnormal, a huge and a non-terminating value, infinity
SPECIAL_FLOATS = [-0.0, 5e-324, 1e300, 1 / 3, float("inf")]
CHUNK_ROWS = [vtkio._BLOCK_ROWS - 1, vtkio._BLOCK_ROWS, vtkio._BLOCK_ROWS + 1]


def run_cli(args):
    return cli.main([str(a) for a in args])


def reference_export_vtk(mesh, fields, path):
    """export_vtk's output written one f-string per line: the reference bytes."""
    with open(path, "w", newline="\n") as fh:
        fh.write(
            "# vtk DataFile Version 3.0\nlowcontrast output\nASCII\n"
            f"DATASET UNSTRUCTURED_GRID\nPOINTS {mesh.n_nodes} double\n"
        )
        fh.writelines(f"{x:.17g} {y:.17g} 0\n" for x, y in mesh.node_coords.tolist())
        fh.write(f"CELLS {mesh.n_elems} {4 * mesh.n_elems}\n")
        fh.writelines(f"3 {a} {b} {c}\n" for a, b, c in mesh.triangles.tolist())
        fh.write(f"CELL_TYPES {mesh.n_elems}\n" + "5\n" * mesh.n_elems)
        if fields:
            fh.write(f"POINT_DATA {mesh.n_nodes}\n")
            for name, values in fields.items():
                fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
                fh.writelines(f"{v:.17g}\n" for v in np.asarray(values, dtype=float).tolist())


def parse_vtk_points_and_scalars(text):
    """Tiny legacy-VTK reader for round-trip assertions."""
    lines = text.splitlines()
    points, scalars = [], {}
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.startswith("POINTS"):
            n = int(line.split()[1])
            for j in range(n):
                x, y, z = (float(v) for v in lines[i + 1 + j].split())
                points.append((x, y, z))
            i += n
        elif line.startswith("SCALARS"):
            name = line.split()[1]
            n = len(points)
            vals = [float(lines[i + 2 + j]) for j in range(n)]
            scalars[name] = np.array(vals)
            i += n + 1
        i += 1
    return np.array(points), scalars


class TestMeshCommand:
    def test_square_fine_resolution(self, capsys):
        assert run_cli(["mesh", "square", "--nx", 200, "--ny", 200]) == 0
        out = capsys.readouterr().out
        assert "80000 triangles" in out

    def test_import_ok(self, tmp_path, capsys):
        from test_mesh import write_msh

        ref = generate_unit_square(2, 2)
        p = tmp_path / "m.msh"
        write_msh(p, ref.node_coords, ref.triangles)
        assert run_cli(["mesh", "import", "--file", p]) == 0
        assert "9 nodes" in capsys.readouterr().out

    def test_import_missing_file(self, capsys):
        assert run_cli(["mesh", "import", "--file", "missing.msh"]) == 3

    def test_import_malformed(self, tmp_path, capsys):
        p = tmp_path / "bad.msh"
        p.write_text("$MeshFormat\n9.9 0 8\n$EndMeshFormat\n")
        assert run_cli(["mesh", "import", "--file", p]) == 3

    def test_import_node_id_past_int64_exit_3(self, tmp_path, capsys):
        p = tmp_path / "big.msh"
        p.write_text(
            "$MeshFormat\n2.2 0 8\n$EndMeshFormat\n$Nodes\n3\n1 0 0 0\n2 1 0 0\n3 0 1 0\n$EndNodes\n"
            "$Elements\n1\n1 2 2 0 1 1 2 99999999999999999999\n$EndElements\n"
        )
        assert run_cli(["mesh", "import", "--file", p]) == 3
        err = capsys.readouterr().err
        assert err == "input error: line 12: triangle node id 99999999999999999999 does not fit in int64\n"

    def test_import_non_finite_node_exit_2(self, tmp_path, capsys):
        from test_mesh import write_msh

        ref = generate_unit_square(2, 2)
        coords = ref.node_coords.copy()
        coords[4, 0] = np.nan
        p = tmp_path / "nan.msh"
        write_msh(p, coords, ref.triangles)
        assert run_cli(["mesh", "import", "--file", p]) == 2
        captured = capsys.readouterr()
        assert "line 10: node 5 has non-finite coordinates (nan, 0.5)" in captured.err
        assert "total area" not in captured.out

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["mesh", "square", "--nx", "abc", "--ny", "2"])
        assert exc.value.code == 2

    def test_vtk_out(self, tmp_path, capsys):
        out = tmp_path / "m.vtk"
        assert run_cli(["mesh", "square", "--nx", 2, "--ny", 2, "--out", out]) == 0
        assert out.exists()
        assert "CELL_TYPES 8" in out.read_text()


class TestExpandCommand:
    def test_order1_random(self, tmp_path, capsys):
        code = run_cli(
            ["expand", "--nx", 12, "--ny", 12, "--random-theta", "--seed", 4,
             "--order", 1, "--out-dir", tmp_path]
        )
        assert code == 0
        out = capsys.readouterr().out
        slope = float(out.split("slope:")[1].split()[0])
        assert slope >= 1.95
        assert (tmp_path / "remainder_order1.csv").exists()
        summary = json.loads((tmp_path / "remainder_order1.json").read_text())
        assert summary["slope"] >= 1.95

    def test_serialization(self, tmp_path, capsys):
        from lowcontrast.eig import Discretization
        from lowcontrast.expansion import remainder_report

        eps = [1e-1, 10**-1.5, 1e-2, 10**-2.5, 1e-3]
        code = run_cli(
            ["expand", "--nx", 8, "--ny", 8, "--random-theta", "--seed", 34, "--order", 1,
             "--eps", ",".join(map(repr, eps)), "--out-dir", tmp_path]
        )
        assert code == 0
        mesh = generate_unit_square(8, 8)
        theta = (np.random.default_rng(34).random(mesh.n_nodes) < 0.5).astype(float)
        report = remainder_report(Discretization(mesh, 1.0), theta, 1, eps)
        lines = (tmp_path / "remainder_order1.csv").read_text().splitlines()
        assert lines[0] == "eps,lambda_eps,truncated_sum,remainder"
        assert len(lines) == 1 + len(eps)
        first = [float(x) for x in lines[1].split(",")]
        assert first[0] == pytest.approx(0.1)
        assert first[3] == pytest.approx(report.remainders[0], rel=1e-15)
        summary = json.loads((tmp_path / "remainder_order1.json").read_text())
        assert summary["slope"] == pytest.approx(report.slope)
        assert summary["order"] == 1
        assert summary["excluded_eps"] == []

    def test_order0(self, tmp_path, capsys):
        code = run_cli(
            ["expand", "--nx", 10, "--ny", 10, "--random-theta", "--seed", 1,
             "--order", 0, "--out-dir", tmp_path]
        )
        assert code == 0
        slope = float(capsys.readouterr().out.split("slope:")[1].split()[0])
        assert slope >= 0.95

    def test_theta_out_of_range_exit_2(self, tmp_path, capsys):
        m = generate_unit_square(4, 4)
        bad = tmp_path / "theta.csv"
        cli.write_field_csv(bad, np.full(m.n_nodes, 1.5))
        code = run_cli(["expand", "--nx", 4, "--ny", 4, "--theta", bad, "--out-dir", tmp_path])
        assert code == 2

    def test_theta_csv_missing_nodes_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "theta.csv"
        bad.write_text("node_id,value\n0,0.5\n")
        code = run_cli(["expand", "--nx", 4, "--ny", 4, "--theta", bad, "--out-dir", tmp_path])
        assert code == 3

    def test_chi_disk(self, tmp_path, capsys):
        code = run_cli(
            ["expand", "--nx", 10, "--ny", 10, "--chi", "disk", 0.5, 0.5, 0.3,
             "--order", 1, "--out-dir", tmp_path]
        )
        assert code == 0

    @pytest.mark.parametrize(
        "spec", [["disk", "nan", 0.5, 0.2], ["disk", 0.5, 0.5, 0.2, 9, 9]], ids=["nan", "extra"]
    )
    def test_malformed_chi_exit_2(self, tmp_path, capsys, spec):
        code = run_cli(["expand", "--nx", 4, "--ny", 4, "--chi", *spec, "--out-dir", tmp_path])
        assert code == 2
        assert "malformed --chi spec" in capsys.readouterr().err

    def test_conflicting_theta_sources(self, tmp_path):
        code = run_cli(
            ["expand", "--nx", 4, "--ny", 4, "--random-theta", "--chi", "disk", 0.5, 0.5, 0.1,
             "--out-dir", tmp_path]
        )
        assert code == 2

    def test_fine_mesh_meets_residual_contract(self, tmp_path, capsys):
        # the eigen residual is a backward error, so its fixed contract holds at 200^2
        code = run_cli(
            ["expand", "--nx", 200, "--ny", 200, "--random-theta", "--seed", 1,
             "--order", 2, "--out-dir", tmp_path]
        )
        assert code == 0
        slope = float(capsys.readouterr().out.split("slope:")[1].split()[0])
        assert slope >= 2.95

    def test_bounds_diagnostic(self, tmp_path, capsys):
        code = run_cli(
            ["expand", "--nx", 6, "--ny", 6, "--random-theta", "--seed", 2,
             "--order", 1, "--bounds-samples", 2, "--out-dir", tmp_path]
        )
        assert code == 0
        assert "mode energy norms" in capsys.readouterr().out

    @pytest.mark.parametrize("flag,value,message", [
        ("--bounds-samples", -3, "--bounds-samples must be >= 0"),
        ("--eps", "0.1,abc", "error: --eps value 'abc' is not a number"),
    ], ids=["negative-bounds-samples", "non-numeric-eps"])
    def test_bad_flag_value_exit_2(self, tmp_path, capsys, flag, value, message):
        code = run_cli(
            ["expand", "--nx", 6, "--ny", 6, "--random-theta", "--seed", 2,
             flag, value, "--out-dir", tmp_path]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    def test_tol_flag_removed(self, tmp_path):
        # the eigen residual contract is fixed; there is no flag to set it
        with pytest.raises(SystemExit) as exc:
            run_cli(["expand", "--nx", 6, "--ny", 6, "--random-theta", "--tol", "1e-12",
                     "--out-dir", tmp_path])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "command,alpha",
        [("expand", "1e-200"), ("expand", "1e-300"), ("eval", "1e200"), ("eval", "1e300")],
    )
    def test_alpha_out_of_range_exit_2(self, tmp_path, capsys, command, alpha):
        extra = ["--out-dir", tmp_path] if command == "expand" else ["--epsilon", 0.1]
        code = run_cli([command, "--nx", 16, "--ny", 16, "--random-theta", "--seed", 1,
                        "--alpha", alpha] + extra)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: alpha must lie in [1e-100, 1e+100]")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_overflowing_eps_exit_2(self, tmp_path, capsys):
        code = run_cli(
            ["expand", "--nx", 16, "--ny", 16, "--random-theta", "--seed", 1,
             "--eps", "1e300,1e299", "--out-dir", tmp_path]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "eps = 1e+300" in captured.err
        assert "nan" not in captured.out

    def test_overflowing_stiffness_exit_2(self, tmp_path, capsys):
        # α·ε overflows K0 + εKθ: one error line naming both, and no overflow
        # warning (the suite makes a RuntimeWarning an error)
        code = run_cli(["expand", "--nx", 8, "--ny", 8, "--random-theta", "--seed", 1, "--alpha", "1e100",
                        "--order", 1, "--eps", "1e250", "--out-dir", tmp_path])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "error: epsilon = 1e+250 overflows the stiffness at alpha = 1e+100\n"
        assert captured.out == ""


class TestOptimizeCommand:
    def test_outputs_and_determinism(self, tmp_path, capsys):
        args = ["optimize", "--nx", 16, "--ny", 16, "--epsilon", 1e-6,
                "--volume-fraction", 0.3, "--max-iters", 25]
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(args + ["--out-dir", d1]) == 0
        assert run_cli(args + ["--out-dir", d2]) == 0
        for name in ("theta.vtk", "theta.csv", "history.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
        out = capsys.readouterr().out
        assert "KKT interior residual" in out

    def test_history_csv(self, tmp_path, capsys):
        args = ["optimize", "--nx", 12, "--ny", 12, "--epsilon", 1e-6,
                "--volume-fraction", 0.4, "--max-iters", 3]
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(args + ["--out-dir", d1]) == 0
        iterations = int(capsys.readouterr().out.split("iterations:")[1].split()[0])
        lines = (d1 / "history.csv").read_text().splitlines()
        assert lines[0] == "iter,F,volume,rho,Lambda,L1_change"
        assert len(lines) == 1 + 1 + iterations
        # determinism: a second run writes the identical file
        assert run_cli(args + ["--out-dir", d2]) == 0
        assert (d1 / "history.csv").read_bytes() == (d2 / "history.csv").read_bytes()

    def test_vtk_carries_fields(self, tmp_path):
        run_cli(
            ["optimize", "--nx", 8, "--ny", 8, "--epsilon", 1e-6,
             "--volume-fraction", 0.4, "--max-iters", 10, "--out-dir", tmp_path]
        )
        text = (tmp_path / "theta.vtk").read_text()
        for field in ("theta", "u0", "grad_density"):
            assert f"SCALARS {field} double 1" in text

    def test_bad_volume_fraction_exit_2(self, tmp_path):
        code = run_cli(
            ["optimize", "--nx", 4, "--ny", 4, "--epsilon", 1e-6,
             "--volume-fraction", 1.7, "--out-dir", tmp_path]
        )
        assert code == 2

    def test_nan_epsilon_exit_2(self, tmp_path, capsys):
        code = run_cli(
            ["optimize", "--nx", 4, "--ny", 4, "--epsilon", "nan",
             "--volume-fraction", 0.4, "--out-dir", tmp_path]
        )
        assert code == 2
        assert "error: epsilon" in capsys.readouterr().err

    def test_overflowing_epsilon_exit_2(self, tmp_path, capsys):
        code = run_cli(
            ["optimize", "--nx", 8, "--ny", 8, "--epsilon", 1e307,
             "--volume-fraction", 0.4, "--out-dir", tmp_path]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "error: epsilon = 1e+307 overflows the objective or its gradient\n"
        assert captured.out == ""

    def test_huge_epsilon_projection_exit_2(self, tmp_path, capsys):
        # F stays finite, but the projected step spans ~1e17 and loses the volume to rounding
        code = run_cli(
            ["optimize", "--nx", 8, "--ny", 8, "--epsilon", 1e17,
             "--volume-fraction", 0.99, "--out-dir", tmp_path]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: theta_tilde spans")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("epsilon", [1e15, 1e20])
    def test_huge_epsilon_keeps_descending(self, tmp_path, capsys, epsilon):
        # the step floor bounds the move in θ; as a fraction of ρ0 alone it let
        # every trial step jump fully, and the run stalled after 1 iteration
        code = run_cli(
            ["optimize", "--nx", 8, "--ny", 8, "--epsilon", epsilon,
             "--volume-fraction", 0.4, "--out-dir", tmp_path]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "stalled: False" in out
        assert int(out.split("iterations:")[1].split()[0]) > 1

    def test_imported_domain_with_hole(self, tmp_path, capsys):
        # perforated-domain analogue: optimize on an imported annulus
        from test_mesh import annulus_mesh_arrays, write_msh

        coords, tris = annulus_mesh_arrays(n_seg=24, radii=(2.0, 1.75, 1.5, 1.25, 1.0))
        p = tmp_path / "annulus.msh"
        write_msh(p, coords, tris)
        code = run_cli(
            ["optimize", "--mesh-file", p, "--epsilon", 0.1,
             "--volume-fraction", 0.4, "--max-iters", 60, "--out-dir", tmp_path]
        )
        assert code == 0
        theta = np.array(
            [float(r.split(",")[1]) for r in (tmp_path / "theta.csv").read_text().splitlines()[1:]]
        )
        assert ((theta > 0.0) & (theta < 1.0)).any()  # strictly mixed nodes survive


class TestEvalCommand:
    def test_eval_uniform(self, tmp_path, capsys):
        from lowcontrast.eig import Discretization

        out = tmp_path / "eval.vtk"
        code = run_cli(
            ["eval", "--nx", 8, "--ny", 8, "--chi", "rect", 0, 0, 1, 1,
             "--epsilon", 0.1, "--out", out]
        )
        assert code == 0
        text = capsys.readouterr().out
        F = float(text.split("F = ")[1].splitlines()[0])
        mesh = generate_unit_square(8, 8)
        lam0 = Discretization(mesh, 1.0).ground.lam
        assert F == pytest.approx(lam0, rel=1e-10)  # theta = 1: F equals discrete lam0
        assert out.exists()


    def test_given_multiplier_drives_kkt(self, tmp_path, capsys):
        from lowcontrast.eig import Discretization
        from lowcontrast.relax import RelaxedObjective

        mesh = generate_unit_square(8, 8)
        theta = np.random.default_rng(5).uniform(0.0, 1.0, mesh.n_nodes)
        path = tmp_path / "theta.csv"
        cli.write_field_csv(path, theta)
        args = ["eval", "--nx", 8, "--ny", 8, "--theta", path, "--epsilon", 0.1]
        assert run_cli(args) == 0
        default_out = capsys.readouterr().out
        assert run_cli(args + ["--multiplier", -3.5]) == 0
        out = capsys.readouterr().out
        assert "multiplier = -3.5\n" in out
        problem = RelaxedObjective(Discretization(mesh, 1.0), 0.1)
        interior, sign = problem.kkt(theta, problem.evaluate(theta).grad_density, -3.5)
        assert f"KKT interior residual = {interior:.6g}\n" in out
        assert f"KKT sign violation = {sign:.6g}\n" in out
        assert out.split("multiplier")[0] == default_out.split("multiplier")[0]
        assert out.split("KKT")[1:] != default_out.split("KKT")[1:]

    def test_overflowing_epsilon_exit_2(self, capsys):
        code = run_cli(
            ["eval", "--nx", 8, "--ny", 8, "--random-theta", "--seed", 1, "--epsilon", 1e307]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "error: epsilon = 1e+307 overflows the objective or its gradient\n"
        assert captured.out == ""

    @pytest.mark.parametrize("epsilon", ["inf", "nan"])
    def test_non_finite_epsilon_exit_2(self, epsilon, capsys):
        code = run_cli(
            ["eval", "--nx", 4, "--ny", 4, "--chi", "rect", 0, 0, 1, 1, "--epsilon", epsilon]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "error: epsilon" in captured.err
        assert "multiplier" not in captured.out

    def test_nan_density_row_exit_2(self, tmp_path, capsys):
        # a row that is present but not finite reaches the density check
        m = generate_unit_square(4, 4)
        theta = np.full(m.n_nodes, 0.5)
        theta[3] = np.nan
        path = tmp_path / "theta.csv"
        cli.write_field_csv(path, theta)
        code = run_cli(["eval", "--nx", 4, "--ny", 4, "--theta", path, "--epsilon", 0.1])
        assert code == 2
        assert "finite" in capsys.readouterr().err

    def test_repeated_node_row_exit_3(self, tmp_path, capsys):
        m = generate_unit_square(4, 4)
        path = tmp_path / "theta.csv"
        cli.write_field_csv(path, np.full(m.n_nodes, 0.5))
        with open(path, "a") as fh:
            fh.write("3,0.25\n")
        code = run_cli(["eval", "--nx", 4, "--ny", 4, "--theta", path, "--epsilon", 0.1])
        assert code == 3
        assert "node id 3 appears more than once" in capsys.readouterr().err

    def test_non_numeric_value_exit_3(self, tmp_path, capsys):
        m = generate_unit_square(4, 4)
        path = tmp_path / "theta.csv"
        rows = [f"{i},{'abc' if i == 5 else 0.5}" for i in range(m.n_nodes)]
        path.write_text("node_id,value\n" + "\n".join(rows) + "\n")
        code = run_cli(["eval", "--nx", 4, "--ny", 4, "--theta", path, "--epsilon", 0.1])
        assert code == 3
        err = capsys.readouterr().err
        assert str(path) in err
        assert "'abc' for node 5 is not a number" in err

    def test_cell_past_field_size_limit_exit_3(self, tmp_path, capsys):
        # the same cell is refused whether or not a later row is quoted
        path = tmp_path / "theta.csv"
        rows = "".join(f"\n{i},0.5" for i in range(2, 25)) + "\n"
        for node_1 in ['"1",0.5', "1,0.5"]:
            path.write_text("node_id,value\n0," + "1" * 140000 + "\n" + node_1 + rows)
            code = run_cli(["eval", "--nx", 4, "--ny", 4, "--theta", path, "--epsilon", 0.1])
            assert code == 3
            err = capsys.readouterr().err
            assert err.startswith(f"input error: {path}: line 2: field larger than field limit")
            assert err.count("\n") == 1

    def test_infinite_density_exit_2(self, tmp_path, capsys):
        m = generate_unit_square(4, 4)
        theta = np.full(m.n_nodes, 0.5)
        theta[2] = np.inf
        path = tmp_path / "theta.csv"
        cli.write_field_csv(path, theta)
        code = run_cli(["eval", "--nx", 4, "--ny", 4, "--theta", path, "--epsilon", 0.1])
        assert code == 2
        assert "error: density values must be finite" in capsys.readouterr().err


class TestFieldCsv:
    """read_field_csv through `eval` on the 4x4 square (25 nodes)."""

    def eval_csv(self, tmp_path, text):
        path = tmp_path / "theta.csv"
        path.write_text(text)
        return path, run_cli(["eval", "--nx", 4, "--ny", 4, "--theta", path, "--epsilon", 0.1])

    @pytest.mark.parametrize("bad", ["abc,0.9", "1.5,0.2", "#note,1", "2.0,0.5", ",0.5"])
    def test_malformed_row_after_header_exit_3(self, tmp_path, capsys, bad):
        # only the first row may be a header; a later non-integer id is an error
        rows = [f"{i},0.5" for i in range(25)]
        rows.insert(10, bad)
        path, code = self.eval_csv(tmp_path, "node_id,value\n" + "\n".join(rows) + "\n")
        assert code == 3
        err = capsys.readouterr().err
        assert err == (
            f"input error: {path}: line 12: {bad!r} does not start with an integer node id\n"
        )

    @pytest.mark.parametrize("header", ["", "node_id,value\n", "\n\nid,theta\n"])
    def test_optional_header_and_blank_rows(self, tmp_path, capsys, header):
        rows = [f"{i},0.5" for i in range(25)]
        rows.insert(7, "")
        _, code = self.eval_csv(tmp_path, header + "\n".join(rows) + "\n")
        assert code == 0
        assert "volume = 0.5" in capsys.readouterr().out

    @pytest.mark.parametrize("text,message", [
        ("node_id,value\n0\n", "line 2: row for node 0 has no value"),
        ("node_id,value\n99,0.5\n", "line 2: node id 99 out of range (mesh has 25)"),
        ("node_id,value\n0,0.5\n\n0,0.5\n", "line 4: node id 0 appears more than once"),
        ("node_id,value\n0,0.5\n1,abc\n", "line 3: value 'abc' for node 1 is not a number"),
        ("node_id,value\n0,0.5\n", "24 node(s) missing a value"),
    ], ids=["no-value", "out-of-range", "repeated", "not-a-number", "missing"])
    def test_bad_row_exit_3(self, tmp_path, capsys, text, message):
        path, code = self.eval_csv(tmp_path, text)
        assert code == 3
        assert capsys.readouterr().err == f"input error: {path}: {message}\n"

    def test_directory_exit_3(self, tmp_path, capsys):
        code = run_cli(["eval", "--nx", 4, "--ny", 4, "--theta", tmp_path, "--epsilon", 0.1])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("input error: cannot read field file:")
        assert err.count("\n") == 1


class TestExportCommand:
    def test_two_triangle_square(self, tmp_path):
        m = generate_unit_square(1, 1)
        field = tmp_path / "theta.csv"
        cli.write_field_csv(field, np.full(m.n_nodes, 0.3))
        out = tmp_path / "out.vtk"
        code = run_cli(
            ["export", "--nx", 1, "--ny", 1, "--field", f"theta={field}", "--out", out]
        )
        assert code == 0
        text = out.read_text()
        assert "POINTS 4 double" in text
        assert "CELLS 2 8" in text
        assert text.count("SCALARS") == 1
        cell_types = text.split("CELL_TYPES 2\n")[1].splitlines()[:2]
        assert cell_types == ["5", "5"]

    def test_round_trip_precision(self, tmp_path):
        m = generate_unit_square(3, 3)
        rng = np.random.default_rng(8)
        values = rng.uniform(0, 1, m.n_nodes)
        out = tmp_path / "f.vtk"
        export_vtk(m, {"theta": values}, out)
        points, scalars = parse_vtk_points_and_scalars(out.read_text())
        np.testing.assert_allclose(points[:, :2], m.node_coords, atol=1e-15)
        np.testing.assert_allclose(scalars["theta"], values, atol=1e-15)

    def test_byte_identical_rewrites(self, tmp_path):
        m = generate_unit_square(2, 2)
        values = np.linspace(0, 1, m.n_nodes)
        p1, p2 = tmp_path / "a.vtk", tmp_path / "b.vtk"
        export_vtk(m, {"f": values}, p1)
        export_vtk(m, {"f": values}, p2)
        assert p1.read_bytes() == p2.read_bytes()
        # the chunked writer against one f-string per line, across chunk edges;
        # export_vtk only formats the arrays, so they need not form a valid mesh
        for rows in CHUNK_ROWS:
            special = np.resize(SPECIAL_FLOATS, 2 * rows)
            m = Mesh(
                node_coords=special.reshape(rows, 2),
                triangles=np.arange(3 * rows).reshape(rows, 3) * 7919,
                boundary_nodes=np.arange(0),
                elem_area=np.ones(rows),
            )
            # field values must be finite; the coordinates still carry inf
            finite = np.where(np.isfinite(special), special, 0.5)
            fields = {"f": finite[:rows], "g": -finite[rows:]}
            export_vtk(m, fields, p1)
            reference_export_vtk(m, fields, p2)
            assert p1.read_bytes() == p2.read_bytes(), rows

    def test_write_csv_matches_csv_writer(self, tmp_path):
        import csv

        for rows in [5, *CHUNK_ROWS]:
            ints = np.arange(rows) - 2
            floats = np.resize([0.0, 1e-7, *SPECIAL_FLOATS], rows)
            ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
            write_csv(ours, ["i", "x", "y"], [ints, floats, floats[::-1]])
            with open(ref, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["i", "x", "y"])
                w.writerows([i, f"{x:.17g}", f"{y:.17g}"] for i, x, y in zip(ints, floats, floats[::-1]))
            assert ours.read_bytes() == ref.read_bytes(), rows

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_field_value_exit_2(self, tmp_path, capsys, value):
        field = tmp_path / "f.csv"
        field.write_text("node_id,value\n0,0.5\n1,0.5\n2," + value + "\n3,0.5\n")
        out = tmp_path / "o.vtk"
        code = run_cli(["export", "--nx", 1, "--ny", 1, "--field", f"theta={field}", "--out", out])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: field 'theta' has the non-finite value {float(value)} at node 2\n"
        assert not out.exists()

    def test_bad_field_spec(self, tmp_path):
        code = run_cli(["export", "--nx", 1, "--ny", 1, "--field", "nope", "--out", tmp_path / "o.vtk"])
        assert code == 2

    @pytest.mark.parametrize(
        "names,message",
        [
            (["my field"], "field name 'my field' must be non-empty and hold no whitespace"),
            ([""], "field name '' must be non-empty and hold no whitespace"),
            (["tab\there"], "field name 'tab\there' must be non-empty and hold no whitespace"),
            (["a", "b", "a"], "--field 'a' given twice"),
        ],
        ids=["space", "empty", "tab", "repeated"],
    )
    def test_bad_field_name_exit_2(self, tmp_path, capsys, names, message):
        # a name is one token of a SCALARS line, and each names one field
        field = tmp_path / "f.csv"
        cli.write_field_csv(field, np.full(4, 0.3))
        out = tmp_path / "o.vtk"
        argv = ["export", "--nx", 1, "--ny", 1, "--out", out]
        for name in names:
            argv += ["--field", f"{name}={field}"]
        assert run_cli(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestConfigFile:
    def test_overrides_flags(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nx": 3, "ny": 3}))
        code = run_cli(["--config", cfg, "mesh", "square", "--nx", 1, "--ny", 1])
        assert code == 0
        assert "16 nodes" in capsys.readouterr().out

    def test_unknown_key_exit_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"does_not_exist": 1}))
        code = run_cli(["--config", cfg, "mesh", "square", "--nx", 1, "--ny", 1])
        assert code == 2

    @pytest.mark.parametrize(
        "key,value,command,message",
        [
            ("max-iters", 2.5, "optimize", "max_iters must be an integer, got 2.5"),
            ("seed", 2.5, "eval", "seed must be an integer, got 2.5"),
            ("nx", 2.5, "optimize", "nx must be an integer, got 2.5"),
            ("alpha", "abc", "eval", "alpha must be a number, got abc"),
        ],
        ids=["max-iters", "seed", "nx", "alpha"],
    )
    def test_mistyped_value_exit_2(self, tmp_path, capsys, key, value, command, message):
        # each value is parsed with its flag's own type, as on the command line
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        args = {
            "optimize": ["--volume-fraction", 0.4, "--out-dir", tmp_path],
            "eval": ["--random-theta"],
        }[command]
        code = run_cli(["--config", cfg, command, "--nx", 4, "--ny", 4, "--epsilon", 0.1] + args)
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err

    def test_string_flag_takes_string_form(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eps": 0.1, "order": 0}))
        code = run_cli(["--config", cfg, "expand", "--nx", 4, "--ny", 4, "--random-theta",
                        "--out-dir", tmp_path])
        assert code == 0
        assert json.loads((tmp_path / "remainder_order0.json").read_text())["n_points"] == 1

    @pytest.mark.parametrize(
        "overrides,args,message",
        [
            ({"func": 1}, ["mesh", "square", "--nx", 2, "--ny", 2],
             "config key 'func' does not match any flag"),
            ({"command": "eval"}, ["mesh", "square", "--nx", 2, "--ny", 2],
             "config key 'command' does not match any flag"),
            ({"tol": 1e-12}, ["expand", "--nx", 4, "--ny", 4, "--random-theta"],
             "config key 'tol' does not match any flag"),
            ({"random_theta": "no"}, ["eval", "--nx", 4, "--ny", 4, "--epsilon", 0.1,
                                      "--chi", "disk", 0.5, 0.5, 0.2],
             'random_theta must be true or false, got "no"'),
            ({"chi": "disk"}, ["eval", "--nx", 4, "--ny", 4, "--epsilon", 0.1],
             "chi must be a list of non-empty lists"),
            ({"chi": ["disk", 0.5, 0.5, 0.25]}, ["eval", "--nx", 4, "--ny", 4, "--epsilon", 0.1],
             "chi must be a list of non-empty lists"),
            ({"seed": [1]}, ["eval", "--nx", 4, "--ny", 4, "--epsilon", 0.1, "--random-theta"],
             "seed must be a number or a string, got [1]"),
        ],
        ids=["func", "command", "tol", "store-true-string", "chi-string", "chi-flat", "list-for-one"],
    )
    def test_key_or_value_not_a_flag_exit_2(self, tmp_path, capsys, overrides, args, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(overrides))
        code = run_cli(["--config", cfg] + args)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_list_and_boolean_flags(self, tmp_path, capsys):
        # chi takes one list per shape, random_theta a JSON boolean
        base = ["eval", "--nx", 8, "--ny", 8, "--epsilon", 0.1]
        assert run_cli(base + ["--chi", "disk", 0.5, 0.5, 0.25]) == 0
        expected = capsys.readouterr().out
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"chi": [["disk", 0.5, 0.5, 0.25]]}))
        assert run_cli(["--config", cfg] + base) == 0
        assert capsys.readouterr().out == expected

        cfg.write_text(json.dumps({"random_theta": True, "seed": 4}))
        assert run_cli(["--config", cfg] + base) == 0
        random_out = capsys.readouterr().out
        assert run_cli(base + ["--random-theta", "--seed", 4]) == 0
        assert capsys.readouterr().out == random_out

    def test_missing_config_exit_3(self, tmp_path):
        code = run_cli(["--config", tmp_path / "nope.json", "mesh", "square", "--nx", 1, "--ny", 1])
        assert code == 3

    def test_repeatable_field_flag(self, tmp_path, capsys):
        field = tmp_path / "theta.csv"
        cli.write_field_csv(field, np.full(4, 0.3))
        out = tmp_path / "out.vtk"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"field": [f"t={field}"]}))
        code = run_cli(["--config", cfg, "export", "--nx", 1, "--ny", 1, "--out", out])
        assert code == 0
        assert "SCALARS t double" in out.read_text()

        cfg.write_text(json.dumps({"field": f"t={field}"}))
        code = run_cli(["--config", cfg, "export", "--nx", 1, "--ny", 1, "--out", out])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: field must be a list of values")

    @pytest.mark.parametrize("text,code,message", [
        ('{"nx": 3,', 3, "input error: malformed config JSON"),
        ("[1, 2]", 2, "error: config JSON must be an object of flag values"),
    ], ids=["malformed", "list"])
    def test_not_a_json_object(self, tmp_path, capsys, text, code, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert run_cli(["--config", cfg, "mesh", "square", "--nx", 1, "--ny", 1]) == code
        err = capsys.readouterr().err
        assert err.startswith(message)
        assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["eval", "expand"])
def test_near_uniform_density_is_compatible(tmp_path, capsys, command):
    # 1e-8 away from uniform the state load cancels to |f| ~ 7e-9, so 1e-9*|f|
    # lies far below the ~1e-15 rounding that u0.f keeps from the load's terms
    mesh = generate_unit_square(32, 32)
    theta = 0.5 + 1e-8 * np.random.default_rng(1).uniform(0.0, 1.0, mesh.n_nodes)
    path = tmp_path / "theta.csv"
    cli.write_field_csv(path, theta)
    extra = ["--epsilon", 0.1] if command == "eval" else ["--order", 2, "--out-dir", tmp_path]
    code = run_cli([command, "--nx", 32, "--ny", 32, "--theta", path] + extra)
    assert code == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("name,text,args", [
    ("m.msh", b"\xff\xfe$MeshFormat\n", ["mesh", "import", "--file", "{path}"]),
    ("theta.csv", b"node_id,value\n\xff,1\n",
     ["eval", "--nx", 2, "--ny", 2, "--theta", "{path}", "--epsilon", 0.1]),
    ("cfg.json", b"\xff{}", ["--config", "{path}", "mesh", "square", "--nx", 1, "--ny", 1]),
], ids=["msh", "theta-csv", "config"])
def test_non_utf8_file_exit_3(tmp_path, capsys, name, text, args):
    path = tmp_path / name
    path.write_bytes(text)
    code = run_cli([str(path) if a == "{path}" else a for a in args])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("input error: 'utf-8' codec can't decode byte 0xff")
    assert str(path) in err
    assert err.count("\n") == 1


class TestDisconnectedDomain:
    @pytest.fixture
    def two_squares(self, tmp_path):
        # two congruent 8x8 squares side by side, sharing no node
        from test_mesh import write_msh

        sq = generate_unit_square(8, 8)
        coords = np.vstack([sq.node_coords, sq.node_coords + [2.0, 0.0]])
        tris = np.vstack([sq.triangles, sq.triangles + sq.n_nodes])
        path = tmp_path / "two.msh"
        write_msh(path, coords, tris)
        return path

    @pytest.mark.parametrize(
        "args",
        [
            ["expand", "--random-theta", "--seed", 1, "--order", 2],
            ["eval", "--random-theta", "--seed", 1, "--epsilon", 0.1],
            ["optimize", "--epsilon", 0.1, "--volume-fraction", 0.4],
        ],
        ids=["expand", "eval", "optimize"],
    )
    def test_rejected_exit_2(self, two_squares, tmp_path, capsys, args):
        out = ["--out-dir", tmp_path] if args[0] != "eval" else []
        code = run_cli([args[0], "--mesh-file", two_squares] + args[1:] + out)
        assert code == 2
        err = capsys.readouterr().err
        assert "2 disconnected parts" in err
        assert "ground state need not be simple" in err


@pytest.mark.parametrize(
    "args",
    [
        ["optimize", "--nx", 4, "--ny", 4, "--epsilon", 0.1, "--volume-fraction", 0.4, "--seed", -1],
        ["expand", "--nx", 4, "--ny", 4, "--random-theta", "--seed", -1],
        ["expand", "--nx", 4, "--ny", 4, "--chi", "disk", 0.5, 0.5, 0.25, "--bounds-samples", 1,
         "--seed", -2],
        ["eval", "--nx", 4, "--ny", 4, "--random-theta", "--seed", -1, "--epsilon", 0.1],
    ],
    ids=["optimize", "expand-random-theta", "expand-bounds-samples", "eval"],
)
def test_negative_seed_exit_2(tmp_path, capsys, args):
    out = [] if args[0] == "eval" else ["--out-dir", tmp_path]
    assert run_cli(args + out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "seed must be >= 0, got -" in err


def test_eigensolver_failure_exit_4(monkeypatch, capsys, tmp_path):
    # a pivot count that refutes every shift leaves no eigenvalue certified
    slice_ = eig._slice
    monkeypatch.setattr(eig, "_slice", lambda A: (slice_(A)[0], 1))
    # the inertia check serves only the remainder report's direct fallback: at
    # ε = 5 the refinement from u₀ is not certified, so that ε is solved directly
    code = run_cli(["expand", "--nx", 8, "--ny", 8, "--random-theta", "--seed", 1,
                    "--order", 1, "--eps", "5,0.01", "--out-dir", tmp_path])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("solver error: no eigenvalue certified in [0, ")
    assert err.count("\n") == 1


def test_ground_refinement_past_step_cap_exit_4(monkeypatch, capsys):
    # one Rayleigh–Ritz step from K⁻¹·1 leaves the ground pair above its contract
    monkeypatch.setattr(eig, "_COLD_STEPS", 1)
    code = run_cli(["eval", "--nx", 8, "--ny", 8, "--random-theta", "--epsilon", 0.1])
    assert code == 4
    captured = capsys.readouterr()
    assert captured.err.startswith("solver error: eigenpair 0 residual ")
    assert captured.err.endswith(" exceeds tol 1.000e-12\n") and captured.err.count("\n") == 1
    assert captured.out == ""


def test_unholdable_order_exit_2(capsys, tmp_path):
    # (N + 1)·n_nodes doubles of modes: 186 GiB here, refused before the cascade allocates them
    tracemalloc.start()
    try:
        code = run_cli(["expand", "--nx", 4, "--ny", 4, "--random-theta", "--seed", 1,
                        "--order", 1000000000, "--out-dir", tmp_path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: order 1000000000 needs 186 GiB of modes, more than physical memory\n"
    assert peak < 2**20
    assert not list(tmp_path.iterdir())


def test_memory_error_exit_2(monkeypatch, capsys):
    def exhausted(nx, ny):
        raise MemoryError("Unable to allocate 74.5 GiB for an array with shape (10000000000,) and data type float64")

    monkeypatch.setattr(cli, "generate_unit_square", exhausted)
    assert run_cli(["eval", "--nx", 100000, "--ny", 100000, "--random-theta", "--epsilon", 0.1]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate 74.5 GiB") and err.count("\n") == 1
    assert "Traceback" not in err


def test_solver_error_exit_4(monkeypatch, capsys):
    # eval's one singular solve is the deflated CG on the LU of K − σM
    def fail(*args):
        raise SolverError("singular solve breakdown: residual 1.000e+00 after 60 CG steps")

    monkeypatch.setattr(eig, "_deflated_cg", fail)
    code = run_cli(["eval", "--nx", 4, "--ny", 4, "--random-theta", "--epsilon", 0.1])
    assert code == 4
    captured = capsys.readouterr()
    assert captured.err == "solver error: singular solve breakdown: residual 1.000e+00 after 60 CG steps\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, factorizations",
    [
        # one singular solve: the deflated CG on the LU of K − σM
        (["eval", "--nx", 16, "--ny", 16, "--random-theta", "--seed", 1, "--epsilon", 0.1], 1),
        # many: the pinned system is factored for them
        (["optimize", "--nx", 8, "--ny", 8, "--epsilon", 0.1, "--volume-fraction", 0.4], 2),
        (["expand", "--nx", 16, "--ny", 16, "--random-theta", "--seed", 1, "--order", 2], 2),
    ],
)
def test_factorizations_per_command(monkeypatch, tmp_path, argv, factorizations):
    calls, pinned = [], []
    splu, init = eig.spla.splu, ShiftedSolver.__init__
    monkeypatch.setattr(eig.spla, "splu", lambda *a, **kw: calls.append(1) or splu(*a, **kw))
    monkeypatch.setattr(ShiftedSolver, "__init__", lambda self, *a: pinned.append(1) or init(self, *a))
    out = ["--out", tmp_path / "out.vtk"] if argv[0] == "eval" else ["--out-dir", tmp_path]
    assert run_cli(argv + out) == 0
    assert len(calls) == factorizations
    assert len(pinned) == factorizations - 1


def test_pinned_solver_error_exit_4_on_optimize(monkeypatch, capsys, tmp_path):
    # the descent solves on the pinned factorization
    def fail(self, f):
        raise SolverError("pinned solve breakdown: residual 1.000e+00")

    monkeypatch.setattr(ShiftedSolver, "solve", fail)
    code = run_cli(["optimize", "--nx", 4, "--ny", 4, "--epsilon", 0.1, "--volume-fraction", 0.4,
                    "--out-dir", tmp_path])
    assert code == 4
    captured = capsys.readouterr()
    assert captured.err == "solver error: pinned solve breakdown: residual 1.000e+00\n"
    assert captured.out == ""
