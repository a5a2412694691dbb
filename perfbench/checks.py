"""Output checks made apart from the program.

Every check recomputes what it needs (lumped weights from the written node
coordinates and triangles, volumes, bounds) from the files the command
wrote, so a check fails when the method is wrong, not merely changed.
Each check raises ``CheckError`` on failure and returns a dict of facts
the workload's cross-operation checks use.
"""
from __future__ import annotations

import csv
import json
import re
from pathlib import Path

import numpy as np

TWO_PI2 = 2.0 * np.pi**2
J01_SQ = 5.783185962946784  # first zero of J0, squared: unit-disk ground state
SLOPE_MIN = {1: 1.95, 2: 2.95, 4: 4.9}
CONCENTRATION_CENTERS = np.array([[0, 0], [0, 1], [1, 0], [1, 1], [0.5, 0.5]])


class CheckError(Exception):
    """An output contradicts a property the method must have."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckError(message)


def printed(stdout: str, label: str) -> float:
    """Value of a ``label = value`` line of the command's output."""
    m = re.search(rf"^{re.escape(label)} = (\S+)", stdout, re.M)
    require(m is not None, f"no '{label} =' line in the output")
    return float(m.group(1))


def printed_iterations(stdout: str) -> int:
    m = re.search(r"^iterations: (\d+)", stdout, re.M)
    require(m is not None, "no 'iterations:' line in the output")
    return int(m.group(1))


def read_vtk(path: Path):
    """(coords, triangles, {field: values}) from a legacy ASCII VTK file."""
    lines = path.read_text().splitlines()
    i = next(k for k, ln in enumerate(lines) if ln.startswith("POINTS"))
    n = int(lines[i].split()[1])
    coords = np.array(" ".join(lines[i + 1 : i + 1 + n]).split(), dtype=float).reshape(n, 3)[:, :2]
    i += 1 + n
    m = int(lines[i].split()[1])
    cells = np.array(" ".join(lines[i + 1 : i + 1 + m]).split(), dtype=np.int64).reshape(m, 4)
    require((cells[:, 0] == 3).all(), "VTK cells are not triangles")
    fields = {}
    for k in range(i + 1 + m, len(lines)):
        if lines[k].startswith("SCALARS"):
            name = lines[k].split()[1]
            fields[name] = np.array(lines[k + 2 : k + 2 + n], dtype=float)
    return coords, cells[:, 1:], fields


def lumped_weights(coords, triangles) -> np.ndarray:
    """Area/3 of every triangle given to each of its vertices."""
    p = coords[triangles]
    area = 0.5 * np.abs(
        (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
        - (p[:, 1, 1] - p[:, 0, 1]) * (p[:, 2, 0] - p[:, 0, 0])
    )
    w = np.zeros(len(coords))
    np.add.at(w, triangles.ravel(), np.repeat(area / 3.0, 3))
    return w


def read_field_csv(path: Path, n: int) -> np.ndarray:
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    require(data.shape == (n, 2) and (data[:, 0] == np.arange(n)).all(), f"{path.name}: bad node ids")
    return data[:, 1]


def mixed_fraction(w, theta) -> float:
    mixed = (theta > 0.05) & (theta < 0.95)
    return float(w[mixed].sum() / w.sum())


def check_optimize(out: Path, stdout: str, epsilon: float, volume_fraction: float) -> dict:
    coords, tris, fields = read_vtk(out / "theta.vtk")
    w = lumped_weights(coords, tris)
    theta = read_field_csv(out / "theta.csv", len(coords))
    require(np.array_equal(theta, fields["theta"]), "theta.csv and theta.vtk disagree")
    require(((theta >= 0) & (theta <= 1)).all(), "theta leaves [0, 1]")

    with open(out / "history.csv", newline="") as fh:
        F = np.array([float(row["F"]) for row in csv.DictReader(fh)])
    require(F.size >= 2 and (np.diff(F) <= 0).all(), "F history is not non-increasing")

    total = float(w.sum())
    vol = float(w @ theta)
    require(abs(vol - volume_fraction * total) <= 1e-10 * total,
            f"volume {vol!r} misses target {volume_fraction * total!r}")
    for label in ("KKT interior residual", "KKT sign violation"):
        r = printed(stdout, label)
        require(r <= 1e-3 * TWO_PI2, f"{label} {r:.3g} > 1e-3*2pi^2")

    if epsilon == 1e-6 and volume_fraction == 0.2:
        dist = np.linalg.norm(coords[:, None, :] - CONCENTRATION_CENTERS[None], axis=2).min(axis=1)
        disks = dist <= 0.12
        disk_mean = float(w[disks] @ theta[disks] / w[disks].sum())
        require(disk_mean >= 2.0 * vol / total,
                f"corner/center mean {disk_mean:.3f} < 2x global mean {vol / total:.3f}")
    return {"mixed_fraction": mixed_fraction(w, theta), "iterations": printed_iterations(stdout)}


def check_mixing_growth(low_eps: dict, high_eps: dict) -> None:
    """At equal volume fraction the mixed region grows with the contrast."""
    lo, hi = low_eps["mixed_fraction"], high_eps["mixed_fraction"]
    require(hi >= 2.0 * lo, f"mixed fraction {hi:.4f} < 2x {lo:.4f} at eps=1e-6")


def check_expand(out: Path, order: int) -> dict:
    summary = json.loads((out / f"remainder_order{order}.json").read_text())
    slope = summary["slope"]
    require(slope is not None and slope >= SLOPE_MIN[order],
            f"order-{order} slope {slope} below {SLOPE_MIN[order]}")
    with open(out / f"remainder_order{order}.csv", newline="") as fh:
        rows = [(float(r["eps"]), float(r["lambda_eps"])) for r in csv.DictReader(fh)]
    eps, lam = np.array(sorted(rows)).T
    require((np.diff(lam) >= 0).all(), "lambda(eps) decreases in eps")
    require((lam >= TWO_PI2).all(), "lambda(eps) below 2pi^2")
    require((lam <= (1.0 + eps) * TWO_PI2 * 1.01).all(), "lambda(eps) above (1+eps)*2pi^2*1.01")
    return {"slope": slope}


def check_eval(out: Path, stdout: str, epsilon: float, weights, theta, constant: float | None) -> dict:
    F, lam1 = printed(stdout, "F"), printed(stdout, "lambda1")
    vol = printed(stdout, "volume")
    ref = float(weights @ theta)
    require(abs(vol - ref) <= 1e-10 * abs(ref), f"printed volume {vol!r} != lumped sum {ref!r}")
    require(F <= lam1 * (1.0 + 1e-11), f"F {F!r} exceeds lambda1 {lam1!r}")
    if constant is not None:
        ratio = lam1 / constant
        require(abs(ratio / J01_SQ - 1.0) <= 0.01, f"lambda1/c = {ratio:.6f} not within 1% of j01^2")
        expect = 1.0 - epsilon * (1.0 - constant)
        require(abs(F / lam1 - expect) <= 1e-9, f"F/lambda1 = {F / lam1!r} != 1-eps(1-c) = {expect!r}")
    _, _, fields = read_vtk(out / "eval.vtk")
    require(np.array_equal(fields["theta"], theta), "theta in the VTK differs from the input CSV")
    return {"F": F, "lambda1": lam1}
