"""CLI benchmark for lowcontrast: three workloads of real `lowcontrast`
commands, each run as users run it, in a fresh Python process.

Usage (from the repository root; the package is taken from ``src``):

    python3 perfbench/run.py --workload optimize-contrast --seed 1 --seconds 30 --trace 0

A run generates its inputs from ``--seed``, then repeats whole rounds of
the workload's commands until ``--seconds`` have passed.  Every command's
outputs are checked (see ``checks.py``) and hashed; a round must
reproduce the first round's files byte for byte.  The last line of the
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics with ``--trace 0``, the per-layer
metrics (from ``layers.py``, in alternate rounds) with ``--trace 1``.
See README.md for the metrics, the workloads and reference figures.
"""
from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_LIMIT_S = 165.0  # children still running then are killed; a run must end within 180 s
THREAD_CAP = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass
class Op:
    """One `lowcontrast` command of a workload round."""

    name: str
    argv: list  # "{out}" stands for the operation's fresh output directory
    check: Callable  # (out_dir, stdout) -> facts dict; raises on a wrong output
    timed: bool = True  # counted in wall_s and peak_rss_mb
    known_fault: str | None = None  # stderr text of a known exit-4 fault


@dataclass
class Result:
    op: Op
    wall_s: float
    setup_s: float
    rss_mb: float
    digest: str = ""
    error: str | None = None
    known: bool = False
    facts: dict = field(default_factory=dict)
    trace: dict | None = None
    scale: float = 1.0  # host-speed factor for this command, see speed_sample


# -- workloads ---------------------------------------------------------------


def optimize_contrast(seed: int, inp: Path):
    """Figure-1 square at 200^2: the descent loop's workload.  Its inputs
    are command-line values only; the seed sets the order of the commands."""
    ops = []
    for eps, vf in (("1e-6", "0.2"), ("1e-6", "0.4"), ("0.1", "0.4"), ("0.3", "0.4")):
        ops.append(Op(
            name=f"optimize-eps{eps}-vf{vf}",
            argv=["optimize", "--nx", "200", "--ny", "200", "--epsilon", eps,
                  "--volume-fraction", vf, "--out-dir", "{out}"],
            check=lambda out, so, e=float(eps), v=float(vf): checks.check_optimize(out, so, e, v),
        ))

    def round_check(results):
        by = {r.op.name: r for r in results}
        low, high = by["optimize-eps1e-6-vf0.4"], by["optimize-eps0.1-vf0.4"]
        if low.error is None and high.error is None:
            try:
                checks.check_mixing_growth(low.facts, high.facts)
            except checks.CheckError as exc:
                high.error = str(exc)

    return ops, round_check, {}


def expand_certify(seed: int, inp: Path):
    """128^2 remainder certification: the eigensolver's workload."""
    meta, _ = inputs.square_inputs(seed, inp)

    def expand(nx, csv, order, **kw):
        return Op(
            name=f"expand-{nx}-order{order}",
            argv=["expand", "--nx", str(nx), "--ny", str(nx), "--theta", str(inp / csv),
                  "--order", str(order), "--out-dir", "{out}"],
            check=lambda out, so: checks.check_expand(out, order),
            **kw,
        )

    ops = [
        expand(128, "square128_a.csv", 2),
        expand(128, "square128_b.csv", 4),
        # fails at this size because the eigen residual contract cannot reach
        # --tol 1e-12 there; counted, but neither timed nor in peak RSS
        expand(200, "square200_fixed.csv", 2, timed=False, known_fault="exceeds tol"),
    ]
    return ops, None, meta


def eval_imported(seed: int, inp: Path):
    """Imported unstructured disk: the MSH parser's and CSV reader's workload."""
    meta, arrays = inputs.disk_inputs(seed, inp)
    weights = checks.lumped_weights(arrays["disk_coords"], arrays["disk_triangles"])
    ops = []
    for kind in ("random", "const"):
        theta = arrays[f"disk_{kind}"]
        constant = float(theta[0]) if kind == "const" else None
        ops.append(Op(
            name=f"eval-disk-{kind}",
            argv=["eval", "--mesh-file", str(inp / "disk.msh"), "--theta", str(inp / f"disk_{kind}.csv"),
                  "--epsilon", "0.1", "--out", "{out}/eval.vtk"],
            check=lambda out, so, t=theta, c=constant: checks.check_eval(out, so, 0.1, weights, t, c),
        ))
    return ops, None, meta


WORKLOADS = {
    "optimize-contrast": optimize_contrast,
    "expand-certify": expand_certify,
    "eval-imported": eval_imported,
}


# -- running one operation ---------------------------------------------------


def tree_digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def run_op(op: Op, opdir: Path, traced: bool, deadline: float) -> Result:
    """Run ``op`` in a fresh process with fresh output, temp and cache dirs."""
    dirs = {k: opdir / k for k in ("out", "tmp", "home", "cache")}
    for d in dirs.values():
        d.mkdir(parents=True)
    env = dict(os.environ)
    env.update({v: THREAD_CAP for v in THREAD_VARS})
    env.update(
        PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0",
        TMPDIR=str(dirs["tmp"]), HOME=str(dirs["home"]), XDG_CACHE_HOME=str(dirs["cache"]),
    )
    ready, trace_file, usage_file = opdir / "ready", opdir / "trace.json", opdir / "usage.json"
    child = [sys.executable, str(HERE / "launch.py"), str(ready), str(trace_file) if traced else "-"]
    child += [a.replace("{out}", str(dirs["out"])) for a in op.argv]
    limit = max(deadline - time.monotonic(), 1.0)
    with open(opdir / "stdout", "w") as so, open(opdir / "stderr", "w") as se:
        subprocess.run([sys.executable, "-S", str(HERE / "spawn.py"), str(usage_file), str(limit), *child],
                       stdout=so, stderr=se, env=env, cwd=opdir, timeout=limit + 10.0, check=True)
    usage = json.loads(usage_file.read_text())

    stdout = (opdir / "stdout").read_text()
    stderr = (opdir / "stderr").read_text().strip()
    setup = float(ready.read_text()) - usage["spawn"] if ready.exists() else usage["wall_s"]
    rc = usage["rc"]
    res = Result(op=op, wall_s=usage["wall_s"], setup_s=setup, rss_mb=usage["maxrss_kb"] / 1024.0)
    if rc != 0:
        last = stderr.splitlines()[-1] if stderr else ""
        res.known = bool(op.known_fault and rc == 4 and op.known_fault in last)
        res.error = f"exit {rc}: {last}"
        return res
    try:
        res.facts = op.check(dirs["out"], stdout)
    except Exception as exc:  # any unreadable or wrong output fails the operation
        res.error = f"check failed: {type(exc).__name__}: {exc}"
    res.digest = tree_digest(dirs["out"])
    if traced:
        res.trace = json.loads(trace_file.read_text())
    return res


# -- host speed --------------------------------------------------------------

# The host's speed drifts by up to +-20% over minutes (its cores are shared
# with other machines), and every command slows with it.  A fixed kernel of
# the kinds of work the commands do -- a sparse LU and float formatting -- is
# timed right before and right after every command; the command's wall and
# set-up times are scaled by REFERENCE_S / (mean of those two kernel times),
# so wall_s and setup_s read as seconds at one fixed host speed.  The raw
# figures are printed alongside.
REFERENCE_S = 0.25


def probe_matrix(n: int = 170):
    """5-point Laplacian on an n x n grid, in CSC form for SuperLU."""
    from scipy import sparse

    T = sparse.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(n, n))
    S = sparse.diags([-1.0, -1.0], [-1, 1], shape=(n, n))
    return (sparse.kron(sparse.eye(n), T) + sparse.kron(S, sparse.eye(n))).tocsc()


def speed_sample(A, values) -> float:
    """Seconds taken by one sparse LU of ``A`` and formatting ``values``."""
    from scipy.sparse.linalg import splu

    t0 = time.perf_counter()
    splu(A)
    "\n".join(f"{v:.17g}" for v in values.tolist())
    return time.perf_counter() - t0


# -- metrics -----------------------------------------------------------------


def round_wall(results, scaled: bool = False) -> float:
    return sum(r.wall_s * (r.scale if scaled else 1.0) for r in results if r.op.timed)


def layer_metrics(results, names) -> tuple[dict, list]:
    """Per-layer figures of one traced round, summed over its timed operations."""
    stats, nested, absent = {}, {}, set()
    for r in results:
        if r.trace is None or not r.op.timed:
            continue
        absent.update(r.trace["absent"])
        for name, st in r.trace["stats"].items():
            agg = stats.setdefault(name, dict.fromkeys(st, 0))
            for k, v in st.items():
                agg[k] += v
        for name, outer in r.trace["nested"].items():
            for o, n in outer.items():
                nested[(name, o)] = nested.get((name, o), 0) + n
    out = {}
    for metric in names:
        layer, kind = metric.rsplit(".", 1)
        st = stats.get(layer, {})
        if metric == "optimizer.evals_per_step":
            steps = stats.get("optimizer.step", {}).get("calls", 0)
            evals = nested.get(("relax.RelaxedObjective.evaluate", "optimizer.step"), 0)
            out[metric] = evals / steps if steps else 0.0
        elif kind == "mb_per_s":
            out[metric] = st["bytes"] / 1e6 / st["s"] if st.get("s") else 0.0
        elif kind in ("s", "self_s", "calls"):
            out[metric] = st.get(kind, 0)
    return out, sorted(absent)


def main() -> int:
    ap = argparse.ArgumentParser(description="lowcontrast CLI benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "lowcontrast" / "cli.py").is_file():
        print(f"error: no lowcontrast sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    work = ROOT / ".perfbench_run" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    try:
        ops, round_check, meta = WORKLOADS[args.workload](args.seed, work / "inputs")
        order = np.random.default_rng(args.seed % 2**64).permutation(len(ops))
        ops = [ops[i] for i in order]

        probe_A, probe_values = probe_matrix(), np.random.default_rng(0).random(100_000)
        speed = []
        rounds, first_digest = [], {}
        t_measure = time.monotonic()
        while True:
            k = len(rounds)
            traced = bool(args.trace) and k % 2 == 1
            results = []
            for op in ops:
                before = speed_sample(probe_A, probe_values)
                res = run_op(op, work / f"r{k}" / op.name, traced, deadline)
                after = speed_sample(probe_A, probe_values)
                res.scale = REFERENCE_S / (0.5 * (before + after))
                results.append(res)
                speed += [before, after]
            if round_check:
                round_check(results)
            for r in results:
                if r.digest and r.error is None:
                    if first_digest.setdefault(r.op.name, r.digest) != r.digest:
                        r.error = "output files differ from an earlier round"
            rounds.append((traced, results))
            shutil.rmtree(work / f"r{k}", ignore_errors=True)
            done = time.monotonic() - t_measure >= args.seconds
            if time.monotonic() > deadline:
                print("error: run exceeded its time limit", file=sys.stderr)
                return 3
            if done and (not args.trace or len(rounds) >= 2):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    every = [r for _, rs in rounds for r in rs]
    failed = [r for r in every if r.error]
    correct = all(r.known for r in failed)

    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}  inputs {json.dumps(meta)}")
    print(f"  host speed: kernel median {statistics.median(speed):.4f} s over {len(speed)} samples,"
          f" median time scale {statistics.median(r.scale for r in every):.4f}"
          f" (per-command figures below are unscaled)")
    for op in ops:
        mine = [r for r in every if r.op is op]
        bad = [r for r in mine if r.error]
        digests = sorted({r.digest for r in mine if r.digest})
        tag = " (known fault)" if op.known_fault else ""
        print(f"  {op.name}{tag}: attempted {len(mine)} failed {len(bad)}"
              f"  wall {statistics.median(r.wall_s for r in mine):.3f} s"
              f"  setup {statistics.median(r.setup_s for r in mine):.3f} s"
              f"  rss {max(r.rss_mb for r in mine):.1f} MB  facts {mine[0].facts}  sha256 {digests}")
        for r in bad[:1]:
            print(f"    {'known fault' if r.known else 'FAILED'}: {r.error}")

    untraced = [rs for t, rs in rounds if not t]
    if args.trace:
        traced_rounds = [rs for t, rs in rounds if t]
        per_round = [layer_metrics(rs, units)[0] for rs in traced_rounds]
        absent = layer_metrics(traced_rounds[0], units)[1]
        if absent:
            print(f"  absent layers (reported as 0): {', '.join(absent)}")
        values = {m: statistics.median(pr[m] for pr in per_round) for m in units if m != "trace.overhead_s"}
        values["trace.overhead_s"] = (statistics.median(round_wall(rs) for rs in traced_rounds)
                                      - statistics.median(round_wall(rs) for rs in untraced))
    else:
        timed = [r for rs in untraced for r in rs if r.op.timed]
        raw_wall = statistics.median(round_wall(rs) for rs in untraced)
        raw_setup = statistics.median(r.setup_s for rs in untraced for r in rs)
        print(f"  raw wall_s = {raw_wall:.6g} s  raw setup_s = {raw_setup:.6g} s")
        values = {
            "wall_s": statistics.median(round_wall(rs, scaled=True) for rs in untraced),
            "setup_s": statistics.median(r.setup_s * r.scale for rs in untraced for r in rs),
            "peak_rss_mb": max(r.rss_mb for r in timed),
        }
    metrics = {m: {"value": values[m], "unit": units[m]} for m in units}
    for m, v in metrics.items():
        print(f"  {m} = {v['value']:.6g} {v['unit']}")
    print(f"  attempted {len(every)}  failed {len(failed)}  correct {correct}")
    print(json.dumps({"correct": correct, "attempted": len(every), "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
