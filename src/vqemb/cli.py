"""Command-line workflows: vqe, deparam, dmet, resources, oracle.

Runs are driven by a YAML config file; a few common flags override config
values.  Exit codes: 0 on success, 1 on runtime failure, 2 on config or
usage errors.  Output files are written atomically and contain no
timestamps, so a seeded rerun reproduces them byte for byte.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from typing import Optional

import yaml

from . import svg
from .ansatz import HeaConfig, build_hea, deparameterise, molecular_problem
from .chem import WindowError, active_space, check_window, parse_fcidump, restricted_hartree_fock
from .dmet import (ExactFragmentSolver, Fragmentation, VqeFragmentSolver, full_ci_ground_energy,
                   run_dmet)
from .mapping import MappingSpec
from .pauli import ExactCapError, QubitHamiltonian
from .resources import estimate, format_table, to_csv
from .simulator import ReadoutNoiseModel
from .vqe import (EstimatorSpec, NoiseWidthError, OptimizerSpec, VqeProblem, check_settings,
                  relative_error, solve)


class ConfigError(Exception):
    pass


# -- config table ------------------------------------------------------------------
# A kind checks one config value and returns it converted, or raises ValueError.

def _kind(what: str, test):
    def check(value):
        if not test(value):
            raise ValueError(f"expected {what}, got {value!r}")
        return value

    return check


def _int(lo=None):
    what = "an integer" if lo is None else f"an integer >= {lo}"
    return _kind(what, lambda v: type(v) is int and (lo is None or v >= lo))


_bool = _kind("true or false", lambda v: type(v) is bool)
_str = _kind("a string", lambda v: type(v) is str)


def _float(positive=False):
    """A finite number >= 0 (> 0 if ``positive``): an int, a float or a string that
    float() reads in full.

    PyYAML reads an exponent without a decimal point, such as 1e-6, as a string.
    """
    what = "a finite number " + ("> 0" if positive else ">= 0")

    def check(value):
        try:
            number = float(value) if type(value) in (int, float, str) else math.nan
        except ValueError:
            number = math.nan
        if not 0 <= number < math.inf or (positive and number == 0):
            raise ValueError(f"expected {what}, got {value!r}")
        return number

    return check


def _list(item):
    def check(value):  # an empty list is no fragmentation and no window sweep
        if type(value) is not list or not value:
            raise ValueError(f"expected a non-empty list, got {value!r}")
        return tuple(item(v) for v in value)

    return check


def _path(value) -> Path:
    if type(value) is not str or not Path(value).is_file():
        raise ValueError(f"file does not exist: {value}")
    return Path(value)


def _noise(value) -> ReadoutNoiseModel:
    return ReadoutNoiseModel.from_text(_path(value).read_text())


def _hamiltonian(value) -> QubitHamiltonian:
    """A qubit Hamiltonian file with at least one qubit and real coefficients."""
    h = QubitHamiltonian.from_text(_path(value).read_text())
    if h.n_qubits < 1:
        raise ValueError(f"nqubits={h.n_qubits}; a Hamiltonian needs at least one qubit")
    if not h.is_hermitian():
        raise ValueError("not Hermitian (a merged coefficient is complex)")
    return h


# section -> key -> kind; mirrors the README's "Config sections" block.  A key
# left out takes the default of the spec or function it feeds.
CONFIG_KEYS = {
    "system": {"fcidump": _path, "hamiltonian": _hamiltonian, "window": _int(1)},
    "mapping": {"kind": _str, "two_qubit_reduction": _bool},
    "ansatz": {"layers": _int(0)},
    "estimator": {"kind": _str, "shots": _int(), "noise": _noise, "mitigation": _str},
    "optimizer": {"kind": _str, "iterations": _int(1), "conv_tol": _float(), "max_iter": _int(1)},
    "vqe": {"initial": _str, "seed": _int(0), "restarts": _int(1)},
    "deparam": {"tolerance": _float()},
    "dmet": {
        "fragments": _list(_list(_int(0))),
        "solver": _kind("exact or vqe", lambda v: v in ("exact", "vqe")),
        "mu_tol": _float(positive=True), "window": _int(1),
    },
    "resources": {"windows": _list(_int(0))},
    "output": {"dir": _str},
}


# section -> kind -> the keys that kind never reads.  Mitigation is not listed:
# --mitigation sets it under every verb.
_UNREAD_KEYS = {
    "estimator": (EstimatorSpec, {"exact": ("noise", "shots")}),
    "optimizer": (OptimizerSpec, {"quasi_newton": ("iterations",),
                                  "spsa": ("max_iter", "conv_tol")}),
}


def _check(data: dict, flags: dict) -> dict:
    """section -> key -> checked value, for the keys in ``data`` or set by ``flags``."""
    cfg = {section: {} for section in CONFIG_KEYS}
    for section, body in data.items():
        if section not in CONFIG_KEYS:
            raise ConfigError(
                f"unknown config section {section!r} (known: {', '.join(CONFIG_KEYS)})"
            )
        if not isinstance(body or {}, dict):
            raise ConfigError(f"config section {section!r} must be a mapping")
        cfg[section].update(body or {})
    for (section, key), value in flags.items():
        if value is not None:
            cfg[section][key] = value
    for section, body in cfg.items():
        for key, value in body.items():
            if key not in CONFIG_KEYS[section]:
                raise ConfigError(
                    f"unknown config key {section}.{key} "
                    f"(known: {', '.join(CONFIG_KEYS[section])})"
                )
            try:
                body[key] = CONFIG_KEYS[section][key](value)
            except ValueError as exc:
                raise ConfigError(f"{section}.{key}: {exc}") from exc
    return cfg


def load_config(path: Optional[str], overrides: argparse.Namespace) -> dict:
    """Checked run configuration, section -> key -> value, holding only the keys given.

    ``mapping`` stays the keys given, which each verb applies over the
    ``MappingSpec`` it feeds; ``vqe`` comes back as the keywords that
    ``VqeProblem`` and ``VqeFragmentSolver`` share, the estimator and
    optimizer specs included; ``output.dir`` as a Path.
    """
    data = {}
    if path is not None:
        try:
            data = yaml.safe_load(_path(path).read_text()) or {}
        except ValueError as exc:
            raise ConfigError(f"config {exc}") from exc
        except yaml.YAMLError as exc:
            raise ConfigError(f"config parse failure: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config root must be a mapping")
    cfg = _check(data, {
        ("vqe", "seed"): overrides.seed,
        ("estimator", "mitigation"): overrides.mitigation,
        ("output", "dir"): overrides.out,
    })
    if overrides.command == "dmet" and cfg["dmet"].get("solver") != "vqe":
        # --seed and --mitigation set vqe.seed and estimator.mitigation under every verb
        unread = ["mapping"] * bool(cfg["mapping"]) + [f"ansatz.{k}" for k in cfg["ansatz"]]
        unread += [f"vqe.{k}" for k in cfg["vqe"] if k != "seed"]
        unread += [f"estimator.{k}" for k in cfg["estimator"] if k != "mitigation"]
        unread += [f"optimizer.{k}" for k in cfg["optimizer"]]
        if unread:
            raise ConfigError(f"{unread[0]}: only the VQE fragment solver reads it, "
                              "and dmet.solver is exact")
    system = cfg["system"]
    if "hamiltonian" in system:  # a qubit Hamiltonian is a whole system, already mapped
        if "fcidump" in system:
            raise ConfigError("system.fcidump: give system.hamiltonian or system.fcidump, not both")
        if "window" in system:
            raise ConfigError("system.window: a qubit Hamiltonian has no orbitals to window")
        if cfg["mapping"]:
            raise ConfigError("mapping: a qubit Hamiltonian is not mapped again")
    for section, (spec, unread) in _UNREAD_KEYS.items():
        kind = cfg[section].get("kind", spec.kind)
        for key in unread.get(kind, ()):
            if key in cfg[section]:
                raise ConfigError(f"{section}.{key}: the {kind} {section} does not read it")
    vqe = cfg["vqe"]
    try:
        MappingSpec(**cfg["mapping"])  # each verb builds the spec it feeds
        vqe["estimator"] = EstimatorSpec(**cfg.pop("estimator"))
        vqe["optimizer"] = OptimizerSpec(**cfg.pop("optimizer"))
        check_settings(**vqe)  # the noise width waits for the register
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    cfg["output"]["dir"] = Path(cfg["output"].get("dir", "out"))
    return cfg


def write_atomic(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=path.suffix)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _molecule(cfg: dict, needed: str = "system.fcidump"):
    """The integrals of ``system.fcidump``, refused unless they describe a closed shell."""
    if "fcidump" not in cfg["system"]:
        raise ConfigError(f"config needs {needed}")
    try:
        m = parse_fcidump(cfg["system"]["fcidump"].read_text())
    except ValueError as exc:
        raise ConfigError(f"system.fcidump: {exc}") from exc
    if m.n_electrons % 2:
        raise ConfigError(f"system.fcidump: NELEC={m.n_electrons} is odd; "
                          "only closed shells are supported")
    return m


def _build_problem(cfg: dict):
    """The VQE problem of the configured system, and its exact energy's function.

    A molecule's exact energy is full CI of the same (windowed) integrals from
    the sector solver, which refuses more than 14 spin orbitals with a config
    error naming system.fcidump; only a bare qubit Hamiltonian is diagonalized
    as a dense matrix, its ansatz starting from all zeros.
    """
    system = cfg["system"]
    if "hamiltonian" in system:
        h = system["hamiltonian"]
        circuit = build_hea(HeaConfig(h.n_qubits, **cfg["ansatz"]), [0] * h.n_qubits)
        return VqeProblem(h, circuit, **cfg["vqe"]), lambda: h.ground_state_energy()[0]
    m = _molecule(cfg, "system.fcidump or system.hamiltonian")
    if "window" in system:
        try:
            m, _ = active_space(m, restricted_hartree_fock(m), system["window"])
        except WindowError as exc:
            raise ConfigError(f"system.window: {system['window']} is too wide: {exc}") from exc
    problem, _ = molecular_problem(m, MappingSpec(**cfg["mapping"]), **cfg["ansatz"], **cfg["vqe"])

    def full_ci() -> float:
        try:
            return full_ci_ground_energy(m)
        except ValueError as exc:  # past the sector cap
            raise ConfigError(f"system.fcidump: no exact energy: {exc}") from exc

    return problem, full_ci


def _oracle(exact) -> Optional[float]:
    """The energy ``exact()`` returns, or None for a system its exact method refuses."""
    try:
        return exact()
    except (ConfigError, ExactCapError):
        return None


def cmd_vqe(cfg: dict) -> int:
    problem, exact = _build_problem(cfg)
    oracle = _oracle(exact)
    result = solve(problem, reference=oracle)
    out = cfg["output"]["dir"]
    header = "" if oracle is None else f"oracle_energy={oracle!r}\n"
    write_atomic(out / "vqe_result.txt", header + result.to_text())
    write_atomic(out / "vqe_trace.csv", result.trace.to_csv())
    xs = list(range(len(result.trace.values)))
    plot = svg.line_plot(
        "objective", xs, result.trace.values,
        title="VQE convergence",
        xlabel="evaluation",
        ylabel="energy (Ha)",
        hline=None if oracle is None else ("exact", oracle),
    )
    write_atomic(out / "vqe_convergence.svg", plot)
    print(f"energy {result.energy!r}" + ("" if oracle is None else f"  oracle {oracle!r}"))
    return 0


def cmd_deparam(cfg: dict) -> int:
    problem, exact = _build_problem(cfg)
    report = deparameterise(problem, exact(), **cfg["deparam"])  # the oracle before any solve
    out = cfg["output"]["dir"]
    write_atomic(out / "deparam_report.txt", report.to_text())

    params = [problem.circuit.n_parameters] + [s.params_after for s in report.steps]
    base_err = relative_error(report.baseline_energy, report.oracle_energy)
    errors = [base_err] + [s.relative_error for s in report.steps]
    steps = list(range(len(params)))
    write_atomic(
        out / "deparam_params.csv",
        "step,parameters\n" + "".join(f"{s},{p}\n" for s, p in zip(steps, params)),
    )
    write_atomic(
        out / "deparam_error.csv",
        "step,relative_error\n" + "".join(f"{s},{e!r}\n" for s, e in zip(steps, errors)),
    )
    write_atomic(
        out / "deparam_params.svg",
        svg.line_plot(
            "trainable parameters", steps, params,
            title="Parameter reduction",
            xlabel="step",
            ylabel="parameters",
        ),
    )
    write_atomic(
        out / "deparam_error.svg",
        svg.line_plot(
            "relative error", steps, errors,
            title="Accuracy under deparameterisation",
            xlabel="step",
            ylabel="relative error",
            hline=("tolerance", report.tolerance),
        ),
    )
    print(f"parameters {params[0]} -> {params[-1]} in {len(report.steps)} steps")
    return 0


def cmd_dmet(cfg: dict) -> int:
    dmet = dict(cfg["dmet"])  # the keys left after fragments are run_dmet keywords
    if "fragments" not in dmet:
        raise ConfigError("config needs dmet.fragments")
    m = _molecule(cfg)
    try:
        fragments = Fragmentation(dmet.pop("fragments"))
        fragments.validate_cover(m.n_orbitals)
    except ValueError as exc:
        raise ConfigError(f"dmet.fragments: {exc}") from exc
    if dmet.get("solver") == "vqe":
        solver = VqeFragmentSolver(**cfg["ansatz"], **cfg["vqe"])
        try:
            dmet["solver"] = replace(solver, mapping=replace(solver.mapping, **cfg["mapping"]))
        except ValueError as exc:
            raise ConfigError(f"mapping: {exc} (the VQE fragment solver's default is "
                              "parity with two-qubit reduction)") from exc
    else:  # load_config refused the keys the exact solver does not read
        dmet["solver"] = ExactFragmentSolver()
    # run_dmet checks every embedding against its solver before the first solve
    try:
        result = run_dmet(m, restricted_hartree_fock(m), fragments, **dmet)
    except WindowError as exc:
        raise ConfigError(f"dmet.window: {dmet['window']} is too wide: {exc}") from exc
    except ExactCapError as exc:  # with a window, the active register is what is capped
        if "window" in dmet:
            raise ConfigError(f"dmet.window: {dmet['window']} is too wide: {exc}") from exc
        raise ConfigError(f"dmet.fragments: an embedding is too wide: {exc}") from exc

    lines = [result.to_text().rstrip()]
    fci = _oracle(lambda: full_ci_ground_energy(m))
    if fci is not None:
        rel = relative_error(result.total_energy, fci)
        lines.append(f"oracle_energy={fci!r}")
        lines.append(f"relative_error_e3={rel * 1e3:.2f}")
    text = "\n".join(lines) + "\n"
    out = cfg["output"]["dir"]
    write_atomic(out / "dmet_result.txt", text)
    write_atomic(
        out / "dmet_mu_trace.csv",
        "mu,electron_mismatch\n" + "".join(f"{mu!r},{f!r}\n" for mu, f in result.trace),
    )
    print(f"total energy {result.total_energy!r}  mu {result.mu!r}")
    return 0


def cmd_resources(cfg: dict) -> int:
    m = _molecule(cfg)
    windows = cfg["resources"].get("windows", (1, 2, 3, 4))
    for k in windows:  # HOMO-k/LUMO+k is active-space window k + 1
        try:
            check_window(m.n_orbitals, m.n_electrons, k + 1)
        except WindowError as exc:
            raise ConfigError(f"resources.windows: {k} is too wide: {exc}") from exc
    estimates = estimate(m, restricted_hartree_fock(m), windows, MappingSpec(**cfg["mapping"]))
    table = format_table(estimates)
    write_atomic(cfg["output"]["dir"] / "resources.txt", table)
    write_atomic(cfg["output"]["dir"] / "resources.csv", to_csv(estimates))
    print(table, end="")
    return 0


def cmd_oracle(cfg: dict) -> int:
    problem, exact = _build_problem(cfg)
    h, energy = problem.hamiltonian, exact()
    text = f"n_qubits={h.n_qubits}\nn_terms={len(h)}\nground_energy={energy!r}\n"
    write_atomic(cfg["output"]["dir"] / "oracle_result.txt", text)
    print(text, end="")
    return 0


COMMANDS = {
    "vqe": cmd_vqe,
    "deparam": cmd_deparam,
    "dmet": cmd_dmet,
    "resources": cmd_resources,
    "oracle": cmd_oracle,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vqemb",
        description="VQE and DMET simulation workflows over FCIDUMP inputs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("vqe", "run a VQE ground-state optimization"),
        ("deparam", "greedily freeze ansatz rotations at standard angles"),
        ("dmet", "run a density-matrix embedding calculation"),
        ("resources", "estimate width/terms for active-space windows"),
        ("oracle", "exact ground energy: full CI of a molecule, or a qubit Hamiltonian's "
                   "dense diagonalization"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="YAML run configuration")
        p.add_argument("--seed", type=int, help="override vqe.seed, the one seed of a run")
        p.add_argument("--out", help="output directory")
        p.add_argument("--mitigation", choices=["none", "m3", "trex"], help="override mitigation")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return COMMANDS[args.command](cfg)
    # a register too wide for an exact method, or not as wide as the noise model
    except (ConfigError, ExactCapError, NoiseWidthError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures exit 1 with a diagnostic
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
