"""Command-line workflows: vqe, deparam, dmet, resources, oracle.

Runs are driven by a YAML config file; a few common flags override config
values.  Exit codes: 0 on success, 1 on runtime failure, 2 on config or
usage errors.  Output files are written atomically and contain no
timestamps, so a seeded rerun reproduces them byte for byte.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import yaml

from . import svg
from .ansatz import HeaConfig, build_hea, deparameterise
from .chem import active_space, parse_fcidump, restricted_hartree_fock
from .dmet import Fragmentation, VqeFragmentSolver, full_ci_ground_energy, run_dmet
from .mapping import (
    MappingSpec,
    build_fermionic_hamiltonian,
    hartree_fock_bitstring,
    map_to_qubits,
)
from .pauli import MATRIX_QUBIT_CAP, QubitHamiltonian
from .resources import estimate, format_table, to_csv
from .simulator import ReadoutNoiseModel
from .vqe import (
    EstimatorSpec,
    OptimizerSpec,
    VqeProblem,
    check_optimizer_fits_estimator,
    relative_error,
    solve,
)


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    fcidump: Optional[Path] = None
    hamiltonian: Optional[Path] = None
    window: Optional[int] = None
    mapping: MappingSpec = MappingSpec()
    layers: int = 1
    estimator: EstimatorSpec = EstimatorSpec()
    optimizer: OptimizerSpec = OptimizerSpec()
    initial: str = "zeros"
    initial_seed: Optional[int] = None
    restarts: int = 1
    deparam_tolerance: float = 1e-2
    fragments: Optional[tuple] = None
    dmet_solver: str = "exact"
    mu_tol: float = 1e-6
    bath_tol: float = 1e-6
    dmet_window: Optional[int] = None
    windows: tuple = (1, 2, 3, 4)
    out_dir: Path = Path("out")


def _section(data, name):
    value = data.get(name, {})
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"config section {name!r} must be a mapping")
    return value


def _existing_path(raw, what) -> Path:
    p = Path(raw)
    if not p.exists():
        raise ConfigError(f"{what} file does not exist: {p}")
    return p


def load_config(path: Optional[str], overrides: argparse.Namespace) -> RunConfig:
    data = {}
    if path is not None:
        cfg_path = _existing_path(path, "config")
        try:
            data = yaml.safe_load(cfg_path.read_text()) or {}
        except yaml.YAMLError as exc:
            raise ConfigError(f"config parse failure: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config root must be a mapping")

    cfg = RunConfig()
    system = _section(data, "system")
    if "fcidump" in system:
        cfg.fcidump = _existing_path(system["fcidump"], "integral")
    if "hamiltonian" in system:
        cfg.hamiltonian = _existing_path(system["hamiltonian"], "Hamiltonian")
    cfg.window = system.get("window")

    mapping = _section(data, "mapping")
    try:
        cfg.mapping = MappingSpec(
            kind=mapping.get("kind", "jordan_wigner"),
            two_qubit_reduction=bool(mapping.get("two_qubit_reduction", False)),
            n_electrons=mapping.get("n_electrons"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    ansatz = _section(data, "ansatz")
    cfg.layers = int(ansatz.get("layers", 1))

    est = _section(data, "estimator")
    noise = None
    if est.get("noise"):
        noise_path = _existing_path(est["noise"], "noise model")
        noise = ReadoutNoiseModel.from_text(noise_path.read_text())
    shots = getattr(overrides, "shots", None)
    shots = int(shots if shots is not None else est.get("shots", 1000))
    mitigation = getattr(overrides, "mitigation", None) or est.get("mitigation", "none")
    est_seed = est.get("seed")
    opt = _section(data, "optimizer")
    if "grad_step" in opt:
        raise ConfigError(
            "optimizer.grad_step is no longer supported: quasi-Newton gradients are exact"
        )
    opt_seed = opt.get("seed")
    vqe_cfg = _section(data, "vqe")
    init_seed = vqe_cfg.get("seed")
    if getattr(overrides, "seed", None) is not None:
        est_seed = opt_seed = init_seed = int(overrides.seed)

    try:
        cfg.estimator = EstimatorSpec(
            kind=est.get("kind", "exact"),
            shots=shots,
            noise=noise,
            mitigation=mitigation,
            seed=est_seed,
            calibration_shots=int(est.get("calibration_shots", 20000)),
        )
        cfg.optimizer = OptimizerSpec(
            kind=opt.get("kind", "quasi_newton"),
            iterations=int(opt.get("iterations", 100)),
            seed=opt_seed,
            conv_tol=float(opt.get("conv_tol", 1e-8)),
            max_iter=int(opt.get("max_iter", 500)),
        )
        check_optimizer_fits_estimator(cfg.estimator, cfg.optimizer)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    cfg.initial = vqe_cfg.get("initial", "zeros")
    cfg.initial_seed = init_seed
    cfg.restarts = int(vqe_cfg.get("restarts", 1))
    if cfg.initial == "random" and cfg.initial_seed is None:
        raise ConfigError("vqe.initial=random requires vqe.seed (or --seed)")

    cfg.deparam_tolerance = float(_section(data, "deparam").get("tolerance", 1e-2))

    dmet_cfg = _section(data, "dmet")
    if "fragments" in dmet_cfg:
        frags = dmet_cfg["fragments"]
        if not isinstance(frags, list) or not all(isinstance(f, list) for f in frags):
            raise ConfigError("dmet.fragments must be a list of orbital-index lists")
        cfg.fragments = tuple(tuple(int(i) for i in f) for f in frags)
    cfg.dmet_solver = dmet_cfg.get("solver", "exact")
    if cfg.dmet_solver not in ("exact", "vqe"):
        raise ConfigError(f"unknown dmet solver {cfg.dmet_solver!r}")
    cfg.mu_tol = float(dmet_cfg.get("mu_tol", 1e-6))
    cfg.bath_tol = float(dmet_cfg.get("bath_tol", 1e-6))
    cfg.dmet_window = dmet_cfg.get("window")

    res = _section(data, "resources")
    cfg.windows = tuple(int(k) for k in res.get("windows", (1, 2, 3, 4)))

    out_dir = getattr(overrides, "out", None) or _section(data, "output").get("dir", "out")
    cfg.out_dir = Path(out_dir)
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


def _load_problem_hamiltonian(cfg: RunConfig):
    """Qubit Hamiltonian plus ansatz reference bits from the configured system."""
    if cfg.hamiltonian is not None:
        h = QubitHamiltonian.from_text(cfg.hamiltonian.read_text())
        return h, [0] * h.n_qubits
    if cfg.fcidump is None:
        raise ConfigError("config needs system.fcidump or system.hamiltonian")
    m = parse_fcidump(cfg.fcidump.read_text())
    if cfg.window is not None:
        mf = restricted_hartree_fock(m)
        m, _ = active_space(m, mf, int(cfg.window))
    spec = cfg.mapping
    if spec.two_qubit_reduction and spec.n_electrons is None:
        spec = replace(spec, n_electrons=m.n_electrons)
    h = map_to_qubits(build_fermionic_hamiltonian(m), spec)
    bits = hartree_fock_bitstring(m.n_orbitals, m.n_electrons, spec)
    return h, bits


def _oracle_energy(h: QubitHamiltonian) -> Optional[float]:
    if h.n_qubits > MATRIX_QUBIT_CAP:
        return None
    energy, _ = h.simplify().ground_state_energy()
    return energy


def _build_problem(cfg: RunConfig) -> tuple[VqeProblem, Optional[float]]:
    h, bits = _load_problem_hamiltonian(cfg)
    circuit = build_hea(HeaConfig(h.n_qubits, cfg.layers), bits)
    problem = VqeProblem(
        hamiltonian=h,
        circuit=circuit,
        estimator=cfg.estimator,
        optimizer=cfg.optimizer,
        initial=cfg.initial,
        initial_seed=cfg.initial_seed,
        restarts=cfg.restarts,
    )
    return problem, _oracle_energy(h)


def cmd_vqe(cfg: RunConfig) -> int:
    problem, oracle = _build_problem(cfg)
    result = solve(problem, reference=oracle)
    out = cfg.out_dir
    header = "" if oracle is None else f"oracle_energy={oracle!r}\n"
    write_atomic(out / "vqe_result.txt", header + result.to_text())
    write_atomic(out / "vqe_trace.csv", result.trace.to_csv())
    xs = list(range(len(result.trace.values)))
    plot = svg.line_plot(
        [("objective", xs, result.trace.values)],
        title="VQE convergence",
        xlabel="evaluation",
        ylabel="energy (Ha)",
        hline=None if oracle is None else ("exact", oracle),
    )
    write_atomic(out / "vqe_convergence.svg", plot)
    print(f"energy {result.energy!r}" + ("" if oracle is None else f"  oracle {oracle!r}"))
    return 0


def cmd_deparam(cfg: RunConfig) -> int:
    problem, oracle = _build_problem(cfg)
    baseline = solve(problem, reference=oracle)
    report = deparameterise(problem, tolerance=cfg.deparam_tolerance, baseline=baseline)
    out = cfg.out_dir
    write_atomic(out / "deparam_report.txt", report.to_text())

    params = [problem.circuit.n_parameters] + [s.params_after for s in report.steps]
    base_err = relative_error(baseline.energy, report.oracle_energy)
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
            [("trainable parameters", steps, params)],
            title="Parameter reduction",
            xlabel="step",
            ylabel="parameters",
        ),
    )
    write_atomic(
        out / "deparam_error.svg",
        svg.line_plot(
            [("relative error", steps, errors)],
            title="Accuracy under deparameterisation",
            xlabel="step",
            ylabel="relative error",
            hline=("tolerance", cfg.deparam_tolerance),
        ),
    )
    print(f"parameters {params[0]} -> {params[-1]} in {len(report.steps)} steps")
    return 0


def cmd_dmet(cfg: RunConfig) -> int:
    if cfg.fcidump is None:
        raise ConfigError("dmet needs system.fcidump")
    if cfg.fragments is None:
        raise ConfigError("dmet needs dmet.fragments")
    m = parse_fcidump(cfg.fcidump.read_text())
    mf = restricted_hartree_fock(m)
    solver = "exact"
    if cfg.dmet_solver == "vqe":
        solver = VqeFragmentSolver(
            layers=cfg.layers,
            optimizer=cfg.optimizer,
            estimator=cfg.estimator,
            initial=cfg.initial,
            initial_seed=cfg.initial_seed,
            restarts=cfg.restarts,
        )
    result = run_dmet(
        m,
        mf,
        Fragmentation(cfg.fragments),
        solver=solver,
        mu_tol=cfg.mu_tol,
        window=cfg.dmet_window,
        bath_tol=cfg.bath_tol,
    )

    lines = [result.to_text().rstrip()]
    if 2 * m.n_orbitals <= MATRIX_QUBIT_CAP:
        fci = full_ci_ground_energy(m)
        rel = relative_error(result.total_energy, fci)
        lines.append(f"oracle_energy={fci!r}")
        lines.append(f"relative_error_e3={rel * 1e3:.2f}")
    text = "\n".join(lines) + "\n"
    out = cfg.out_dir
    write_atomic(out / "dmet_result.txt", text)
    write_atomic(
        out / "dmet_mu_trace.csv",
        "mu,electron_mismatch\n" + "".join(f"{mu!r},{f!r}\n" for mu, f in result.trace),
    )
    print(f"total energy {result.total_energy!r}  mu {result.mu!r}")
    if not result.converged:
        print("warning: chemical potential loop did not converge", file=sys.stderr)
        return 1
    return 0


def cmd_resources(cfg: RunConfig) -> int:
    if cfg.fcidump is None:
        raise ConfigError("resources needs system.fcidump")
    m = parse_fcidump(cfg.fcidump.read_text())
    mf = restricted_hartree_fock(m)
    estimates = estimate(m, mf, cfg.windows, cfg.mapping)
    table = format_table(estimates)
    write_atomic(cfg.out_dir / "resources.txt", table)
    write_atomic(cfg.out_dir / "resources.csv", to_csv(estimates))
    print(table, end="")
    return 0


def cmd_oracle(cfg: RunConfig) -> int:
    h, _ = _load_problem_hamiltonian(cfg)
    energy = _oracle_energy(h)
    if energy is None:
        raise ConfigError(
            f"{h.n_qubits} qubits exceed the dense-diagonalization cap of {MATRIX_QUBIT_CAP}"
        )
    text = f"n_qubits={h.n_qubits}\nn_terms={len(h.simplify())}\nground_energy={energy!r}\n"
    write_atomic(cfg.out_dir / "oracle_result.txt", text)
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
        ("oracle", "exact ground energy by dense diagonalization"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="YAML run configuration")
        p.add_argument("--seed", type=int, help="override every configured seed")
        p.add_argument("--out", help="output directory")
        p.add_argument("--shots", type=int, help="override estimator shot count")
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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures exit 1 with a diagnostic
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
