"""Per-layer tracing of vqemb from outside the package.

``Tracer.install`` replaces each listed function with a timing wrapper under
every name that refers to it: the attribute of each loaded ``vqemb`` module
that holds the original (so ``from .simulator import evolve`` in another
module is wrapped too), or the class attribute for methods.  ``uninstall``
puts the originals back.  For each function F the tracer keeps the call
count, the inclusive seconds and the seconds spent in F outside any other
traced function (self time), plus a few work counts taken from arguments or
return values.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

PACKAGE = "vqemb"

# (module, attribute path, metric name); a method name maps to its dunder.
TARGETS = (
    ("simulator", "evolve", "simulator.evolve"),
    ("vqe", "solve", "vqe.solve"),
    ("optimize", "bounded_quasi_newton", "optimize.bounded_quasi_newton"),
    ("optimize", "spsa", "optimize.spsa"),
    ("ansatz", "deparameterise", "ansatz.deparameterise"),
    ("pauli", "PauliExpectation.__init__", "pauli.PauliExpectation.init"),
    ("pauli", "PauliExpectation.__call__", "pauli.PauliExpectation.call"),
    ("mapping", "build_fermionic_hamiltonian", "mapping.build_fermionic_hamiltonian"),
    ("mapping", "map_to_qubits", "mapping.map_to_qubits"),
    ("pauli", "QubitHamiltonian.simplify", "pauli.QubitHamiltonian.simplify"),
    ("dmet", "run_dmet", "dmet.run_dmet"),
    ("dmet", "build_embedding", "dmet.build_embedding"),
    ("dmet", "solve_fragment", "dmet.solve_fragment"),
    ("dmet", "sector_ground_state", "dmet.sector_ground_state"),
    ("dmet", "spin_summed_rdms", "dmet.spin_summed_rdms"),
    ("mapping", "decode_statevector", "mapping.decode_statevector"),
    ("pauli", "QubitHamiltonian.ground_state_energy", "pauli.QubitHamiltonian.ground_state_energy"),
    ("simulator", "sampled_expectation", "simulator.sampled_expectation"),
    ("simulator", "group_qubitwise", "simulator.group_qubitwise"),
    ("simulator", "sample", "simulator.sample"),
    ("mitigation", "calibrate", "mitigation.calibrate"),
    ("mitigation", "M3GroupEstimator.estimate_group", "mitigation.M3GroupEstimator.estimate_group"),
    ("mitigation", "TrexGroupEstimator.estimate_group", "mitigation.TrexGroupEstimator.estimate_group"),
    ("chem", "parse_fcidump", "chem.parse_fcidump"),
    ("chem", "restricted_hartree_fock", "chem.restricted_hartree_fock"),
    ("chem", "active_space", "chem.active_space"),
    ("resources", "estimate", "resources.estimate"),
    ("cli", "main", "cli.main"),
    ("cli", "write_atomic", "cli.write_atomic"),
)

# The closures vqe.build_objective returns are timed as this name.
OBJECTIVE = "vqe.objective"
TIMED = tuple(name for _, _, name in TARGETS) + (OBJECTIVE,)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# work counts: metric name -> (timed function, unit, count of one call)
COUNTS = {
    "mapping.build_fermionic_hamiltonian.terms": (
        "mapping.build_fermionic_hamiltonian", "count", lambda a, k, r: len(r)),
    "mapping.map_to_qubits.terms": ("mapping.map_to_qubits", "count", lambda a, k, r: len(r)),
    "simulator.sample.shots": (
        "simulator.sample", "count", lambda a, k, r: int(_arg(a, k, 2, "shots"))),
    "cli.write_atomic.bytes": (
        "cli.write_atomic", "bytes", lambda a, k, r: len(_arg(a, k, 1, "text").encode())),
}


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for f in TIMED:
        units.update({f"{f}.calls": "count", f"{f}.s": "s", f"{f}.self_s": "s"})
    units.update({name: unit for name, (_, unit, _) in COUNTS.items()})
    return units


class Tracer:
    def __init__(self):
        self._stack: list = []
        self._patches: list = []
        self.reset()

    def reset(self):
        """Start a fresh accumulation: per function [calls, seconds, child seconds]."""
        self.stats = {name: [0, 0.0, 0.0] for name in TIMED}
        self.counts = {name: 0 for name in COUNTS}

    def snapshot(self) -> dict:
        out = {}
        for name, (calls, total, child) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = total
            out[f"{name}.self_s"] = total - child
        out.update(self.counts)
        return out

    def _wrap(self, name, fn):
        stack = self._stack
        counters = [(c, f) for c, (owner, _, f) in COUNTS.items() if owner == name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                rec = self.stats[name]
                rec[0] += 1
                rec[1] += dt
                rec[2] += frame[0]
                if stack:
                    stack[-1][0] += dt
            for counter, of_call in counters:
                self.counts[counter] += of_call(args, kwargs, result)
            return result

        return wrapper

    def _wrap_factory(self, fn):
        @functools.wraps(fn)
        def factory(*args, **kwargs):
            return self._wrap(OBJECTIVE, fn(*args, **kwargs))

        return factory

    def _replace_everywhere(self, original, replacement):
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._patches.append((mod, attr, original))

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module, path, name in TARGETS:
            mod = importlib.import_module(f"{PACKAGE}.{module}")
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                original = vars(cls)[meth]
                setattr(cls, meth, self._wrap(name, original))
                self._patches.append((cls, meth, original))
            else:
                original = getattr(mod, path)
                self._replace_everywhere(original, self._wrap(name, original))
        vqe = importlib.import_module(f"{PACKAGE}.vqe")
        original = vqe.build_objective
        self._replace_everywhere(original, self._wrap_factory(original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
