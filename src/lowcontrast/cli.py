"""Command-line entry point: mesh generation/import, expansion-order
certification, relaxed-objective evaluation and density optimization.

Each command computes, writes its output files and returns its report, the
lines :func:`main` then prints.  Exit codes: 0 success, 2 usage / parameter
errors and exhausted memory, 3 input-data errors (missing or malformed
files, an output that cannot be written), 4 solver failures.  A reader that
closes stdout early ends the command quietly, with nothing on stderr
(:func:`console`, the process entry).
"""
from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import expansion, optimizer, relax, vtkio
from .eig import Discretization, SolverError
from .mesh import MshParseError, generate_unit_square, import_msh

EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_SOLVER = 4

DEFAULT_EPS_GRID = "1e-1,3.1622776601683794e-2,1e-2,3.1622776601683794e-3,1e-3"


class InputError(Exception):
    """Bad input data (files, field coverage); maps to exit code 3."""


def _load_mesh(args):
    if getattr(args, "mesh_file", None):
        return import_msh(args.mesh_file)
    nx = getattr(args, "nx", None)
    ny = getattr(args, "ny", None)
    if nx is None or ny is None:
        raise ValueError("provide either --mesh-file or both --nx and --ny")
    return generate_unit_square(nx, ny)


def read_field_csv(path, n_nodes: int) -> np.ndarray:
    """Read a node-indexed CSV (node_id,value); every node must appear once.

    Blank rows are skipped.  The first other row may be a header; every row
    after it must start with an integer node id.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read field file: {exc}") from exc
    values = _field_block(raw, n_nodes)
    return _field_rows(raw, path, n_nodes) if values is None else values


def _field_block(raw: bytes, n_nodes: int) -> np.ndarray | None:
    """Values of a regular field CSV in whole-block array passes, or None.

    Regular: ASCII, LF or CRLF line ends, no cell longer than
    ``csv.field_size_limit()``, an optional plain header line, then one
    unquoted ``id,value`` line per node with the ids a permutation of the
    nodes.  For any other file this returns None and `_field_rows`, which
    defines the format and names the line of an error, reads it.
    """
    if not raw.isascii():
        return None
    if b"\r" in raw:
        if raw.count(b"\r") != raw.count(b"\r\n"):
            return None  # a lone CR ends a csv row
        raw = raw.replace(b"\r\n", b"\n")
    if not raw.endswith(b"\n"):
        raw += b"\n"
    first = raw[: raw.find(b"\n")]
    try:
        int(first.split(b",")[0])
        body = raw
    except ValueError:
        # a header: csv.reader must read it as plain comma-separated cells
        if b'"' in first or not first.decode().isprintable() or not first.strip(b" ,"):
            return None
        if len(first) > csv.field_size_limit():
            return None  # csv.reader refuses a cell longer than the limit
        body = raw[len(first) + 1 :]
    rows = vtkio.parse_rows(body, n_nodes, 2, b",")
    if rows is None:
        return None
    ids = rows[:, 0].astype(np.int64)
    if ids.min() < 0 or ids.max() >= n_nodes:
        return None
    seen = np.zeros(n_nodes, dtype=bool)
    seen[ids] = True
    if not seen.all():  # a repeated id leaves another node unseen
        return None
    values = np.empty(n_nodes)
    values[ids] = rows[:, 1]
    return values


def _field_rows(raw: bytes, path, n_nodes: int) -> np.ndarray:
    """read_field_csv one csv row at a time: the definition of the format."""
    values = np.zeros(n_nodes)
    seen = np.zeros(n_nodes, dtype=bool)
    try:
        reader = csv.reader(io.StringIO(raw.decode(), newline=""))
        rows = (row for row in reader if any(cell.strip() for cell in row))
        for k, row in enumerate(rows):
            where = f"{path}: line {reader.line_num}"
            try:
                idx = int(row[0])
            except ValueError:
                if k == 0:
                    continue  # header line
                raise InputError(
                    f"{where}: {','.join(row)!r} does not start with an integer node id"
                ) from None
            if len(row) < 2:
                raise InputError(f"{where}: row for node {idx} has no value")
            if not 0 <= idx < n_nodes:
                raise InputError(f"{where}: node id {idx} out of range (mesh has {n_nodes})")
            if seen[idx]:
                raise InputError(f"{where}: node id {idx} appears more than once")
            try:
                values[idx] = float(row[1])
            except ValueError:
                raise InputError(
                    f"{where}: value {row[1].strip()!r} for node {idx} is not a number"
                ) from None
            seen[idx] = True
    except UnicodeDecodeError as exc:
        raise InputError(f"{exc} (reading {path})") from None
    except csv.Error as exc:  # a cell past csv.field_size_limit(), say
        raise InputError(f"{path}: line {reader.line_num}: {exc}") from None
    if not seen.all():
        raise InputError(f"{path}: {n_nodes - int(seen.sum())} node(s) missing a value")
    return values


def write_field_csv(path, values) -> None:
    """Write a node-indexed CSV (node_id,value) that read_field_csv reads back."""
    values = np.asarray(values, dtype=float)
    vtkio.write_csv(path, ["node_id", "value"], [range(values.size), values])


def rasterize_shapes(mesh, specs) -> np.ndarray:
    """0/1 density from shape specs evaluated at element centroids.

    Each spec is ``disk cx cy r`` with r >= 0 or ``rect x0 y0 x1 y1`` with
    x0 <= x1 and y0 <= y1, all finite; repeated specs take the union.  The
    element indicator is lifted to nodes by maximum over adjacent elements,
    so it stays 0/1-valued.
    """
    x, y = mesh.node_coords[mesh.triangles].mean(axis=1).T  # element centroids
    inside = np.zeros(mesh.n_elems, dtype=bool)
    for spec in specs:
        kind = spec[0]
        if kind not in ("disk", "rect"):
            raise ValueError(f"unknown shape '{kind}' (use disk or rect)")
        try:
            values = [float(x) for x in spec[1:]]
        except ValueError:
            values = []  # reported as malformed below
        if len(values) != (3 if kind == "disk" else 4) or not np.isfinite(values).all() or (
            values[2] < 0 if kind == "disk" else (values[2] < values[0] or values[3] < values[1])
        ):
            raise ValueError(f"malformed --chi spec {spec}")
        if kind == "disk":
            cx, cy, r = values
            dx, dy = x - cx, y - cy
            # scaled by a power of two, which is exact: 1 unless a square could overflow
            big = max(np.abs(dx).max(), np.abs(dy).max(), r)
            s = np.ldexp(1.0, min(0, 500 - np.frexp(big)[1]))
            inside |= (dx * s) ** 2 + (dy * s) ** 2 <= (r * s) * (r * s)
        else:
            x0, y0, x1, y1 = values
            inside |= (x >= x0) & (x <= x1) & (y >= y0) & (y <= y1)
    elem = inside.astype(float)
    theta = np.zeros(mesh.n_nodes)
    np.maximum.at(theta, mesh.triangles.ravel(), np.repeat(elem, 3))
    return theta


def _theta_from_args(args, mesh) -> np.ndarray:
    sources = [
        args.theta is not None,
        bool(args.chi),
        args.random_theta,
    ]
    if sum(sources) != 1:
        raise ValueError("choose exactly one of --theta, --chi, --random-theta")
    # numpy's generators, here and in the bounds diagnostic, take no negative seed
    if args.seed is not None and args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    if args.theta is not None:
        return read_field_csv(args.theta, mesh.n_nodes)
    if args.chi:
        return rasterize_shapes(mesh, args.chi)
    rng = np.random.default_rng(args.seed)
    return (rng.random(mesh.n_nodes) < 0.5).astype(float)


# -- subcommands --------------------------------------------------------------


def cmd_mesh(args) -> list[str]:
    if args.mesh_cmd == "square":
        m = generate_unit_square(args.nx, args.ny)
    else:
        m = import_msh(args.file)
    report = [
        f"{m.n_nodes} nodes, {m.n_elems} triangles, {m.boundary_nodes.size} boundary nodes",
        f"total area {m.total_area:.12g}",
    ]
    if args.out:
        vtkio.export_vtk(m, {}, args.out)
        report.append(f"wrote {args.out}")
    return report


def cmd_expand(args) -> list[str]:
    if args.bounds_samples < 0:
        raise ValueError("--bounds-samples must be >= 0")
    m = _load_mesh(args)
    theta = _theta_from_args(args, m)
    eps = []
    for x in filter(None, (x.strip() for x in args.eps.split(","))):
        try:
            eps.append(float(x))
        except ValueError:
            raise ValueError(f"--eps value {x!r} is not a number") from None
    disc = Discretization(m, args.alpha)
    report = expansion.remainder_report(disc, theta, args.order, eps)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"remainder_order{args.order}.csv"
    json_path = out_dir / f"remainder_order{args.order}.json"
    vtkio.write_csv(
        csv_path,
        ["eps", "lambda_eps", "truncated_sum", "remainder"],
        [report.eps_values, report.lambda_eps, report.truncated, report.remainders],
    )
    summary = {
        "order": report.order,
        "slope": report.slope,
        "constant": report.constant,
        "excluded_eps": report.excluded,
        "floor": report.floor,
        "n_points": len(report.eps_values),
    }
    json_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")

    survived = len(report.eps_values) - len(report.excluded)
    if survived == 0:
        lines = [f"order {args.order}: all remainders at the solver floor (series exact)"]
    elif report.slope is None:
        lines = [f"order {args.order}: {survived} remainder above the solver floor, too few to fit a slope"]
    else:
        lines = [f"order {args.order} remainder slope: {report.slope:.4f} (constant {report.constant:.6g})"]
    if report.excluded:
        lines.append(f"excluded eps (floor): {report.excluded}")
    if args.bounds_samples > 0:
        diag = expansion.mode_bound_diagnostic(disc, samples=args.bounds_samples, seed=args.seed or 0)
        lines.append(
            "mode energy norms over {samples} random densities: "
            "max |u1|_E = {max_energy_norm_u1:.6g}, max |u2|_E = {max_energy_norm_u2:.6g}".format(**diag)
        )
    lines.append(f"wrote {csv_path} and {json_path}")
    return lines


def cmd_optimize(args) -> list[str]:
    m = _load_mesh(args)
    config = optimizer.OptimizerConfig(
        volume_fraction=args.volume_fraction,
        max_iters=args.max_iters,
        tol_step=args.tol_step,
        seed=args.seed,
    )
    disc = Discretization(m, args.alpha)
    state, kkt = optimizer.run(disc, args.epsilon, config)
    final = state.last_eval

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    vtkio.export_vtk(
        m,
        {"theta": state.theta, "u0": disc.ground.u, "grad_density": final.grad_density},
        out_dir / "theta.vtk",
    )
    write_field_csv(out_dir / "theta.csv", state.theta)
    vtkio.write_csv(
        out_dir / "history.csv",
        ["iter", "F", "volume", "rho", "Lambda", "L1_change"],
        [range(len(state.F_history)), state.F_history, state.vol_history,
         state.rho_history, state.Lambda_history, state.l1_history],
    )

    total = float(disc.pencil.lumped.sum())
    return [
        f"iterations: {state.iter}  stalled: {state.stalled}",
        f"F = {final.F:.12g}",
        f"lambda1 = {final.lambda1:.12g}",
        f"volume = {state.vol_history[-1]:.12g} (target {config.volume_fraction * total:.12g})",
        f"KKT interior residual = {kkt[0]:.6g}",
        f"KKT sign violation = {kkt[1]:.6g}",
        f"wrote {out_dir / 'theta.vtk'}, {out_dir / 'theta.csv'}, {out_dir / 'history.csv'}",
    ]


def cmd_eval(args) -> list[str]:
    m = _load_mesh(args)
    theta = _theta_from_args(args, m)
    problem = relax.RelaxedObjective(Discretization(m, args.alpha), args.epsilon)
    ev = problem.evaluate(theta)
    lumped = problem.lumped
    if args.multiplier is None:
        multiplier = -float(lumped @ ev.grad_density) / float(lumped.sum())
    else:
        multiplier = args.multiplier
    kkt = problem.kkt(theta, ev.grad_density, multiplier)
    report = [
        f"F = {ev.F:.12g}",
        f"lambda1 = {ev.lambda1:.12g}",
        f"volume = {float(lumped @ theta):.12g}",
        f"multiplier = {multiplier:.12g}",
        f"KKT interior residual = {kkt[0]:.6g}",
        f"KKT sign violation = {kkt[1]:.6g}",
    ]
    if args.out:
        vtkio.export_vtk(
            m,
            {"theta": theta, "u0": problem.ground.u, "v_inf": ev.v_inf, "grad_density": ev.grad_density},
            args.out,
        )
        report.append(f"wrote {args.out}")
    return report


def cmd_export(args) -> list[str]:
    m = _load_mesh(args)
    fields = {}
    for item in args.field or []:
        if "=" not in item:
            raise ValueError(f"--field needs name=path.csv, got '{item}'")
        name, path = item.split("=", 1)
        if name in fields:
            raise ValueError(f"--field '{name}' given twice")
        fields[name] = read_field_csv(path, m.n_nodes)
    vtkio.export_vtk(m, fields, args.out)
    return [f"wrote {args.out}"]


# -- parser -------------------------------------------------------------------


def _add_mesh_source(p):
    p.add_argument("--nx", type=int, help="cells in x for a generated unit square")
    p.add_argument("--ny", type=int, help="cells in y for a generated unit square")
    p.add_argument("--mesh-file", help="MSH 2.2 ASCII file to import instead")


def _add_theta_source(p):
    p.add_argument("--theta", help="node-indexed CSV (node_id,value)")
    p.add_argument(
        "--chi",
        action="append",
        nargs="+",
        metavar="SPEC",
        help="shape indicator: 'disk cx cy r' or 'rect x0 y0 x1 y1'; repeat for unions",
    )
    p.add_argument(
        "--random-theta", action="store_true", help="random 0/1 nodal density (see --seed)"
    )
    p.add_argument("--seed", type=int, default=None)


class _Parser(argparse.ArgumentParser):
    """argparse's parser, but an argument that starts with "-", an optional ".", then a digit is a value.

    argparse's own test reads ``-1e-05`` as a flag; no flag of this CLI looks like a negative number.
    ``add_subparsers`` builds every subparser from this class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lowcontrast",
        description="Two-phase ground-state design in the low-contrast regime.",
    )
    parser.add_argument("--config", help="JSON file whose entries override flags")
    sub = parser.add_subparsers(dest="command", required=True)

    p_mesh = sub.add_parser("mesh", help="generate or import a mesh")
    mesh_sub = p_mesh.add_subparsers(dest="mesh_cmd", required=True)
    p_sq = mesh_sub.add_parser("square", help="structured unit square")
    p_sq.add_argument("--nx", type=int, required=True)
    p_sq.add_argument("--ny", type=int, required=True)
    p_sq.add_argument("--out", help="optional VTK output")
    p_sq.set_defaults(func=cmd_mesh)
    p_im = mesh_sub.add_parser("import", help="import MSH 2.2 ASCII")
    p_im.add_argument("--file", required=True)
    p_im.add_argument("--out", help="optional VTK output")
    p_im.set_defaults(func=cmd_mesh)

    p_ex = sub.add_parser("expand", help="series + remainder-order certification")
    _add_mesh_source(p_ex)
    _add_theta_source(p_ex)
    p_ex.add_argument("--alpha", type=float, default=1.0)
    p_ex.add_argument("--order", type=int, default=2)
    p_ex.add_argument("--eps", default=DEFAULT_EPS_GRID, help="comma-separated contrast values")
    p_ex.add_argument("--out-dir", default=".")
    p_ex.add_argument(
        "--bounds-samples",
        type=int,
        default=0,
        help="also report max mode energy norms over this many random densities",
    )
    p_ex.set_defaults(func=cmd_expand)

    p_opt = sub.add_parser("optimize", help="projected descent on the relaxed objective")
    _add_mesh_source(p_opt)
    p_opt.add_argument("--epsilon", type=float, required=True)
    p_opt.add_argument("--volume-fraction", type=float, required=True, help="target m/|area|")
    p_opt.add_argument("--alpha", type=float, default=1.0)
    p_opt.add_argument("--max-iters", type=int, default=2000)
    p_opt.add_argument("--tol-step", type=float, default=1e-7)
    p_opt.add_argument("--seed", type=int, default=None, help="randomized feasible start")
    p_opt.add_argument("--out-dir", default=".")
    p_opt.set_defaults(func=cmd_optimize)

    p_ev = sub.add_parser("eval", help="evaluate the relaxed objective for a density")
    _add_mesh_source(p_ev)
    _add_theta_source(p_ev)
    p_ev.add_argument("--epsilon", type=float, required=True)
    p_ev.add_argument("--alpha", type=float, default=1.0)
    p_ev.add_argument("--multiplier", type=float, default=None, help="sign-adjusted multiplier")
    p_ev.add_argument("--out", help="optional VTK output")
    p_ev.set_defaults(func=cmd_eval)

    p_xp = sub.add_parser("export", help="write mesh + CSV fields to legacy VTK")
    _add_mesh_source(p_xp)
    p_xp.add_argument("--field", action="append", help="name=path.csv (repeatable)")
    p_xp.add_argument("--out", required=True)
    p_xp.set_defaults(func=cmd_export)

    return parser


def _command_flags(parser, args) -> dict:
    """dest -> action of every flag of the chosen (sub)command that stores a value."""
    flags = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            flags.update(_command_flags(action.choices[getattr(args, action.dest)], args))
        elif isinstance(action, (argparse._StoreAction, argparse._StoreTrueAction, argparse._AppendAction)):
            flags[action.dest] = action
    return flags


def _parse_config_value(action, value):
    """Parse one JSON value as the flag would parse it on the command line."""
    if isinstance(value, (list, dict)) or value is None:
        raise ValueError(f"{action.dest} must be a number or a string, got {json.dumps(value)}")
    kind = action.type or str
    try:
        return kind(str(value))
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"{action.dest} must be {what}, got {value}") from None


def _config_value(action, value):
    """The value a flag's action stores, from the flag's JSON config entry.

    An on/off flag takes a JSON boolean.  A repeatable flag takes a list with
    one entry per use; for a flag that takes several words per use (``chi``)
    each entry is itself a list, such as ``["disk", 0.5, 0.5, 0.25]``.
    """
    if isinstance(action, argparse._StoreTrueAction):
        if not isinstance(value, bool):
            raise ValueError(f"{action.dest} must be true or false, got {json.dumps(value)}")
        return value
    if not isinstance(action, argparse._AppendAction):
        return _parse_config_value(action, value)
    if action.nargs is None:
        if not isinstance(value, list):
            raise ValueError(f"{action.dest} must be a list of values, got {json.dumps(value)}")
        return [_parse_config_value(action, v) for v in value]
    if not (isinstance(value, list) and all(isinstance(v, list) and v for v in value)):
        raise ValueError(
            f"{action.dest} must be a list of non-empty lists such as "
            f'[["disk", 0.5, 0.5, 0.25]], got {json.dumps(value)}'
        )
    return [[_parse_config_value(action, x) for x in v] for v in value]


def _apply_config(args, parser) -> None:
    try:
        with open(args.config) as fh:
            overrides = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read config: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{exc} (reading {args.config})") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed config JSON: {exc}") from exc
    if not isinstance(overrides, dict):
        raise ValueError("config JSON must be an object of flag values")
    flags = _command_flags(parser, args)
    del flags["config"]  # a config file cannot name another
    for key, value in overrides.items():
        attr = key.replace("-", "_")
        if attr not in flags:
            raise ValueError(f"config key '{key}' does not match any flag")
        setattr(args, attr, _config_value(flags[attr], value))


def main(argv=None) -> int:
    """Run one command on argv (default ``sys.argv[1:]``) and return its exit code.

    The command computes, writes its files and returns its report; only then
    is the report printed and flushed, inside the error mapping: a stdout
    that fails there is an input error, unless its reader has left, which is
    re-raised for :func:`console`.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    report = None
    try:
        if args.config:
            _apply_config(args, parser)
        report = args.func(args)
        print("\n".join(report), flush=True)
        return 0
    except (InputError, MshParseError, OSError) as exc:
        if isinstance(exc, BrokenPipeError) and report is not None:
            raise  # stdout's reader has left: console() ends the process quietly
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, MemoryError) as exc:  # numpy's MemoryError names the array it could not allocate
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_USAGE
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def console() -> int:
    """The process entry of ``lowcontrast`` and ``python -m lowcontrast``: :func:`main`, then two exit steps.

    A stdout that cannot be written fails in the report :func:`main` prints
    and flushes after the command's files, or in the flush here of what
    argparse printed or of what a failed flush left.  It is then pointed at
    /dev/null, so that the interpreter's own flush at exit meets nothing left
    to write.  A reader that closed stdout early
    (``lowcontrast ... | head -1``) ends the process with the command's code
    and nothing on stderr; any other failure of the report (a full disk) is
    :func:`main`'s input error, exit 3.  Then every live object is frozen
    out of the collector: the interpreter's final collection would
    otherwise walk and tear down the ~42k objects that numpy and scipy leave
    tracked, ~42 ms of every command.  Both steps act on the whole process, so :func:`main`,
    which the tests call in-process, takes neither.
    """
    code = 0
    try:
        try:
            code = main()
        except SystemExit as exc:  # argparse's: --help, or a usage error
            code = exc.code
        sys.stdout.flush()
    except OSError:  # stdout's: main re-raised its closed pipe, or the flush failed
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    finally:
        gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(console())
