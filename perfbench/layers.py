"""Layer tracer for one benchmarked `lowcontrast` process.

Wraps the public functions and methods listed in ``TARGETS`` from outside
the program and records, per name, the number of calls, the total time
inside the call (``s``) and the self time (``self_s``: total minus the time
spent in traced calls nested inside it).  Functions bound elsewhere with
``from .eig import smallest_eigenpair`` and similar are replaced in every
``lowcontrast`` module that holds them, so no call goes unseen.  A name
that no longer exists is recorded as absent.

Only ``launch.py`` imports this module, and only in traced runs.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter, defaultdict

# layer name -> (module, attribute path, index of a file-path argument whose
# size gives the layer's throughput, or None)
TARGETS = {
    "mesh.generate_unit_square": ("mesh", "generate_unit_square", None),
    "mesh.import_msh": ("mesh", "import_msh", 0),
    "fem.build_pencil": ("fem", "build_pencil", None),
    "fem.assemble_stiffness": ("fem", "assemble_stiffness", None),
    "eig.smallest_eigenpair": ("eig", "smallest_eigenpair", None),
    "eig.ShiftedSolver.init": ("eig", "ShiftedSolver.__init__", None),
    "eig.ShiftedSolver.solve": ("eig", "ShiftedSolver.solve", None),
    "expansion.compute_series": ("expansion", "compute_series", None),
    "expansion.remainder_report": ("expansion", "remainder_report", None),
    "relax.RelaxedObjective.init": ("relax", "RelaxedObjective.__init__", None),
    "relax.RelaxedObjective.evaluate": ("relax", "RelaxedObjective.evaluate", None),
    "relax.RelaxedObjective.kkt": ("relax", "RelaxedObjective.kkt", None),
    "optimizer.step": ("optimizer", "step", None),
    "optimizer.project_volume": ("optimizer", "project_volume", None),
    "vtkio.export_vtk": ("vtkio", "export_vtk", 2),
    "cli.read_field_csv": ("cli", "read_field_csv", None),
    "cli.write_field_csv": ("cli", "write_field_csv", None),
    "cli.main": ("cli", "main", None),
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, dict] = {}
        self.nested: dict[str, Counter] = defaultdict(Counter)  # name -> enclosing names
        self.absent: list[str] = []
        self._stack: list[tuple[str, list]] = []

    def install(self) -> None:
        """Import the package's modules and replace every target binding."""
        modules = {}
        for mod_name, _, _ in TARGETS.values():
            try:
                modules[mod_name] = importlib.import_module(f"lowcontrast.{mod_name}")
            except ImportError:
                pass
        loaded = [m for k, m in sys.modules.items() if k == "lowcontrast" or k.startswith("lowcontrast.")]
        for name, (mod_name, path, size_arg) in TARGETS.items():
            owner = modules.get(mod_name)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            orig = getattr(owner, attr, None) if owner is not None else None
            if orig is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, orig, size_arg)
            if owner_path:  # a method: the class is shared by every importer
                setattr(owner, attr, wrapper)
                continue
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)

    def _wrap(self, name, fn, size_arg):
        stats = self.stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "bytes": 0})

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child = [0.0]
            self._stack.append((name, child))
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                stats["calls"] += 1
                stats["s"] += dt
                stats["self_s"] += dt - child[0]
                if self._stack:
                    self._stack[-1][1][0] += dt
                for outer in {n for n, _ in self._stack}:
                    self.nested[name][outer] += 1
                if size_arg is not None and len(args) > size_arg:
                    try:
                        stats["bytes"] += os.path.getsize(args[size_arg])
                    except (OSError, TypeError):
                        pass

        return wrapper

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"stats": self.stats, "nested": self.nested, "absent": self.absent}, fh)
