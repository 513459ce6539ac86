"""Command-line integration: exit codes, artifacts, determinism."""

import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from test_artifacts import ARTIFACTS

import vqemb.ansatz as ansatz_mod
import vqemb.cli as cli_mod
import vqemb.dmet as dmet_mod
import vqemb.vqe as vqe_mod
from vqemb.chem import active_space
from vqemb.cli import CONFIG_KEYS, build_parser, load_config, main
from vqemb.dmet import full_ci_ground_energy
from vqemb.optimize import NonFiniteObjectiveError
from vqemb.pauli import QubitHamiltonian

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
H2 = f"system: {{fcidump: {ROOT}/fixtures/h2.fcidump}}\n"
H4 = f"system: {{fcidump: {ROOT}/fixtures/h4.fcidump}}\n"
H10 = f"system: {{fcidump: {ROOT}/fixtures/h10.fcidump}}\n"
CHAIN5 = f"system: {{hamiltonian: {ROOT}/fixtures/chain5.ham"  # the braces stay open for more keys

# id -> (verb, config text, the section.key the error must name)
BAD_CONFIGS = {
    "bool-as-string": (
        "vqe", H2 + "mapping: {kind: parity, two_qubit_reduction: 'false'}\n",
        "mapping.two_qubit_reduction",
    ),
    "fractional-shots": (
        "vqe",
        H2 + "mapping: {kind: parity, two_qubit_reduction: true}\n"
        "estimator: {kind: sampled, shots: 1.9}\n"
        "optimizer: {kind: spsa, iterations: 5}\nvqe: {seed: 11}\n",
        "estimator.shots",
    ),
    "electron-count-key": (
        "vqe", H2 + "mapping: {kind: parity, two_qubit_reduction: true, n_electrons: 4}\n",
        "mapping.n_electrons",
    ),
    "windows-as-string": ("resources", H10 + "resources: {windows: '12'}\n", "resources.windows"),
    "fractional-fragment": (
        "dmet", H4 + "dmet: {fragments: [[0, 1.7], [2, 3]]}\n", "dmet.fragments",
    ),
    "layers-as-word": ("vqe", H2 + "ansatz: {layers: two}\n", "ansatz.layers"),
    "mu-tol-as-word": (
        "dmet", H4 + "dmet: {fragments: [[0, 1], [2, 3]], mu_tol: x}\n", "dmet.mu_tol",
    ),
    # the bath threshold is a constant of vqemb.dmet, not a config key
    "bath-tol-key": (
        "dmet", H4 + "dmet: {fragments: [[0, 1], [2, 3]], bath_tol: 1.0e-6}\n", "dmet.bath_tol",
    ),
    "unknown-section": ("vqe", H2 + "optimiser: {kind: spsa}\n", "optimiser"),
    "unknown-key": ("vqe", H2 + "estimator: {shot: 5}\n", "estimator.shot"),
    "seed-as-word": ("vqe", H2 + "vqe: {seed: abc}\n", "vqe.seed"),
    "negative-layers": ("vqe", H2 + "ansatz: {layers: -1}\n", "ansatz.layers"),
    # the exact fragment solver maps nothing and runs no VQE
    "mapping-with-exact-dmet": (
        "dmet", H4 + "mapping: {kind: parity}\ndmet: {fragments: [[0, 1], [2, 3]]}\n", "mapping",
    ),
    "ansatz-with-exact-dmet": (
        "dmet", H4 + "ansatz: {layers: 7}\ndmet: {fragments: [[0, 1], [2, 3]]}\n",
        "ansatz.layers",
    ),
    "initial-with-exact-dmet": (
        "dmet", H4 + "vqe: {initial: random, seed: 3}\ndmet: {fragments: [[0, 1], [2, 3]]}\n",
        "vqe.initial",
    ),
    "restarts-with-exact-dmet": (
        "dmet", H4 + "vqe: {restarts: 2, seed: 3}\ndmet: {fragments: [[0, 1], [2, 3]]}\n",
        "vqe.restarts",
    ),
    # nor reads the optimizer or the estimator, so neither meets the seed rule
    "optimizer-with-exact-dmet": (
        "dmet", H4 + "optimizer: {kind: spsa, iterations: 5}\nvqe: {seed: 1}\n"
        "dmet: {fragments: [[0, 1], [2, 3]]}\n", "optimizer.kind",
    ),
    "estimator-with-exact-dmet": (
        "dmet", H4 + "estimator: {kind: sampled}\ndmet: {fragments: [[0, 1], [2, 3]]}\n",
        "estimator.kind",
    ),
    "unknown-dmet-solver": (
        "dmet", H4 + "dmet: {fragments: [[0, 1], [2, 3]], solver: ccsd}\n", "dmet.solver",
    ),
    # a key left out keeps the VQE fragment solver's default, two-qubit reduction
    "jordan-wigner-over-reduced-parity": (
        "dmet", H2 + "mapping: {kind: jordan_wigner}\ndmet: {fragments: [[0], [1]], solver: vqe}\n",
        "mapping",
    ),
    # two 5-orbital fragments give 10-orbital embeddings: 20 qubits
    "h10-halves-over-exact-cap": (
        "dmet", H10 + "dmet: {fragments: [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]}\n", "dmet.fragments",
    ),
    # window 4 keeps 8 of each 10-orbital embedding's orbitals: 16 qubits
    "h10-window-over-exact-cap": (
        "dmet", H10 + "dmet: {fragments: [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]], window: 4}\n",
        "dmet.window: 4 is too wide: 16 qubits",
    ),
    # a qubit Hamiltonian has no orbitals to window or to map, and one system only
    "hamiltonian-with-window": ("oracle", CHAIN5 + ", window: 2}\n", "system.window"),
    "hamiltonian-with-fcidump": (
        "oracle", CHAIN5 + f", fcidump: {ROOT}/fixtures/h2.fcidump}}\n", "system.fcidump",
    ),
    "hamiltonian-with-mapping": ("oracle", CHAIN5 + "}\nmapping: {kind: parity}\n", "mapping"),
    # a zero tolerance is one the chemical-potential loop can never reach
    "mu-tol-zero": ("dmet", H4 + "dmet: {fragments: [[0, 1], [2, 3]], mu_tol: 0}\n", "dmet.mu_tol"),
    "no-windows": ("resources", H10 + "resources: {windows: []}\n", "resources.windows"),
    # keys the configured optimizer or estimator never reads
    "iterations-with-quasi-newton": (
        "vqe", H2 + "optimizer: {kind: quasi_newton, iterations: 1}\n", "optimizer.iterations",
    ),
    "iterations-with-default-optimizer": (
        "vqe", H2 + "optimizer: {iterations: 1}\n", "optimizer.iterations",
    ),
    "max-iter-with-spsa": (
        "vqe", H2 + "optimizer: {kind: spsa, iterations: 20, max_iter: 1}\nvqe: {seed: 3}\n",
        "optimizer.max_iter",
    ),
    "conv-tol-with-spsa": (
        "vqe", H2 + "optimizer: {kind: spsa, iterations: 20, conv_tol: 0.5}\nvqe: {seed: 3}\n",
        "optimizer.conv_tol",
    ),
    "noise-with-exact-estimator": (
        "vqe", H2 + "mapping: {kind: parity, two_qubit_reduction: true}\n"
        f"estimator: {{kind: exact, noise: {ROOT}/fixtures/noise_2q_2pct.txt}}\n",
        "estimator.noise",
    ),
    "calibration-shots-with-default-estimator": (
        "vqe", H2 + "estimator: {calibration_shots: 5}\n", "estimator.calibration_shots",
    ),
    # the calibration budget is a constant of vqemb.vqe, not a config key
    "calibration-shots-with-sampled-estimator": (
        "vqe", H2 + "mapping: {kind: parity, two_qubit_reduction: true}\n"
        "estimator: {kind: sampled, shots: 100, calibration_shots: 5}\n"
        "optimizer: {kind: spsa, iterations: 5}\nvqe: {seed: 3}\n",
        "estimator.calibration_shots",
    ),
    # one seed, vqe.seed, feeds every random stream of a run
    "estimator-seed": ("vqe", H2 + "estimator: {seed: 1}\n", "estimator.seed"),
    "optimizer-seed": ("vqe", H2 + "optimizer: {kind: spsa, seed: 1}\n", "optimizer.seed"),
    "shots-with-exact-estimator": ("vqe", H2 + "estimator: {shots: 100}\n", "estimator.shots"),
    # --seed and --mitigation may be given to every verb; the same keys in a file may not
    "mitigation-with-exact-estimator": (
        "vqe", H2 + "estimator: {kind: exact, mitigation: trex}\n", "estimator.mitigation",
    ),
    "mitigation-with-resources": (
        "resources", H4 + "estimator: {mitigation: m3}\nresources: {windows: [0]}\n",
        "estimator.mitigation",
    ),
    "seed-with-exact-dmet": (
        "dmet", H4 + "vqe: {seed: 3}\ndmet: {fragments: [[0, 1], [2, 3]]}\n", "vqe.seed",
    ),
    # keys outside what the verb's run reads: dmet windows through dmet.window,
    # resources maps the molecule and runs no VQE, and neither verb reads a
    # qubit Hamiltonian
    "system-window-with-dmet": (
        "dmet", f"system: {{fcidump: {ROOT}/fixtures/h4.fcidump, window: 1}}\n"
        "dmet: {fragments: [[0, 1], [2, 3]]}\n", "system.window",
    ),
    "system-window-with-resources": (
        "resources", f"system: {{fcidump: {ROOT}/fixtures/h4.fcidump, window: 1}}\n"
        "resources: {windows: [0]}\n", "system.window",
    ),
    "ansatz-with-resources": (
        "resources", H4 + "ansatz: {layers: 2}\nresources: {windows: [0]}\n", "ansatz.layers",
    ),
    # refused as unread before the seed rule could name vqe.seed
    "estimator-with-resources": (
        "resources", H4 + "estimator: {kind: sampled}\nresources: {windows: [0]}\n",
        "estimator.kind",
    ),
    "hamiltonian-with-dmet": (
        "dmet", CHAIN5 + "}\ndmet: {fragments: [[0, 1], [2, 3, 4]]}\n", "system.hamiltonian",
    ),
    # YAML keeps the last of two equal keys, so a repeat would silently drop the first
    "repeated-section": (
        "vqe", H2 + "optimizer: {kind: spsa, iterations: 5}\nvqe: {seed: 3}\n"
        "optimizer: {kind: quasi_newton}\n", "optimizer: repeated on line 4",
    ),
    "repeated-key": (
        "dmet", H2 + "dmet: {fragments: [[0], [1]], solver: vqe, solver: exact}\n",
        "solver: repeated on line 2",
    ),
    # text that is no YAML; the pure-Python and the libyaml parser word these alike
    "parse-unclosed-flow": (
        "vqe", H2 + "ansatz: {layers: 1\n", "config parse failure: while parsing a flow mapping",
    ),
    "parse-tab-indent": (
        "vqe", H2 + "ansatz:\n\tlayers: 1\n",
        "config parse failure: while scanning for the next token",
    ),
    "parse-undefined-alias": ("vqe", H2 + "ansatz: *layers\n", "found undefined alias"),
}

# the error of vqe.check_settings's one seed rule
SEED_RULE = "a random start, multi-start, sampled estimation or SPSA needs vqe.seed"

# name -> a qubit Hamiltonian file that describes no system
BAD_HAMILTONIANS = {
    "invalid-letter": "nqubits=2\n-1.0 0.0 XQ\n",
    "short-word": "nqubits=2\n-1.0 0.0 X\n",
    "no-qubits": "nqubits=0\n",
    "non-hermitian": "nqubits=2\n0.0 1.0 ZI\n",
}
# a row's fourth entry is written to bad.ham in the working directory
BAD_CONFIGS.update({
    f"hamiltonian-{name}-{verb}": (verb, "system: {hamiltonian: bad.ham}\n", "system.hamiltonian",
                                   text)
    for name, text in BAD_HAMILTONIANS.items() for verb in ("vqe", "deparam", "oracle")
})

# id -> (verb, config text, the section.key and value the error must name):
# active-space windows wider than the orbitals on one side of H4's gap
WINDOWS_PAST_RANGE = {
    "resources-window": ("resources", H4 + "resources: {windows: [3]}\n", "resources.windows", "3"),
    "system-window": (
        "vqe", f"system: {{fcidump: {ROOT}/fixtures/h4.fcidump, window: 5}}\n", "system.window", "5",
    ),
    "dmet-window": (
        "dmet", H4 + "dmet: {fragments: [[0, 1], [2, 3]], window: 3}\n", "dmet.window", "3",
    ),
}


def run(argv):
    return main([str(a) for a in argv])


def no_dense_matrix(self):
    raise AssertionError("the dense matrix was built")


def read(path):
    return Path(path).read_text()


@pytest.fixture()
def outdir(tmp_path):
    return tmp_path / "out"


class TestExitCodes:
    def test_missing_config_file(self, capsys):
        assert run(["vqe", "--config", "/does/not/exist.yaml"]) == 2
        assert "/does/not/exist.yaml" in capsys.readouterr().err

    def test_missing_integral_file_named(self, tmp_path, capsys):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("system: {fcidump: /missing.fcidump}\n")
        assert run(["vqe", "--config", cfg]) == 2
        assert "/missing.fcidump" in capsys.readouterr().err

    def test_config_without_system(self, tmp_path, capsys):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("ansatz: {layers: 1}\n")
        assert run(["vqe", "--config", cfg]) == 2

    def test_random_init_needs_seed(self, tmp_path, capsys):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(
            f"system: {{fcidump: {ROOT}/fixtures/h2.fcidump}}\nvqe: {{initial: random}}\n"
        )
        assert run(["vqe", "--config", cfg]) == 2

    @pytest.mark.parametrize("verb", ["vqe", "dmet"])
    @pytest.mark.parametrize("vqe,message", [
        ("{initial: bogus}", "unknown initial-parameter policy 'bogus'"),
        ("{initial: random}", SEED_RULE),
        ("{restarts: 2}", SEED_RULE),
    ], ids=["unknown-initial", "random-without-seed", "restarts-without-seed"])
    def test_vqe_settings_are_checked_on_load(self, tmp_path, outdir, capsys, monkeypatch,
                                             verb, vqe, message):
        monkeypatch.setattr(cli_mod, "parse_fcidump", None)  # refused before the system is read
        dmet = "dmet: {fragments: [[0], [1]], solver: vqe}\n" if verb == "dmet" else ""
        cfg = tmp_path / "c.yaml"
        cfg.write_text(f"system: {{fcidump: {ROOT}/fixtures/h2.fcidump}}\nvqe: {vqe}\n{dmet}")
        assert run([verb, "--config", cfg, "--out", outdir]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not outdir.exists()

    def test_sampled_needs_seed(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(
            f"system: {{fcidump: {ROOT}/fixtures/h2.fcidump}}\nestimator: {{kind: sampled}}\n"
        )
        assert run(["vqe", "--config", cfg]) == 2

    def test_sampled_energies_with_quasi_newton_rejected(self, tmp_path, outdir, capsys):
        # quasi-Newton needs exact gradients; shot noise cannot supply them
        cfg = tmp_path / "c.yaml"
        cfg.write_text(
            f"system: {{fcidump: {ROOT}/fixtures/h2.fcidump}}\n"
            "mapping: {kind: parity, two_qubit_reduction: true}\n"
            "estimator: {kind: sampled, shots: 1000}\n"
            "optimizer: {kind: quasi_newton}\nvqe: {seed: 23}\n"
        )
        assert run(["vqe", "--config", cfg, "--out", outdir]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "quasi-Newton" in err
        assert not (outdir / "vqe_result.txt").exists()

    def test_grad_step_is_config_error(self, tmp_path, outdir, capsys):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(
            f"system: {{fcidump: {ROOT}/fixtures/h2.fcidump}}\n"
            "optimizer: {kind: quasi_newton, grad_step: 1.0e-6}\n"
        )
        assert run(["vqe", "--config", cfg, "--out", outdir]) == 2
        assert "grad_step" in capsys.readouterr().err

    @pytest.mark.parametrize("estimator", [{"shots": 0}, {"shots": -5}])
    def test_nonpositive_shot_counts_are_config_errors(self, tmp_path, outdir, capsys, estimator):
        doc = yaml.safe_load((CONFIGS / "h2_vqe_sampled.yaml").read_text())
        doc["estimator"].update(estimator)
        cfg = tmp_path / "c.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        assert run(["vqe", "--config", cfg, "--out", outdir]) == 2
        assert "must be positive" in capsys.readouterr().err
        assert not (outdir / "vqe_result.txt").exists()

    def test_shots_flag_is_a_usage_error(self, outdir, capsys):
        # estimator.shots is the one way to set the shot count
        argv = ["vqe", "--config", CONFIGS / "h2_vqe_lbfgs.yaml", "--out", outdir, "--shots", "5"]
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert "--shots" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
    def test_bad_config_exits_2_naming_the_key(self, tmp_path, outdir, capsys, monkeypatch, case):
        verb, text, name, *hamiltonian = BAD_CONFIGS[case]
        monkeypatch.chdir(tmp_path)
        for body in hamiltonian:
            (tmp_path / "bad.ham").write_text(body)
        cfg = tmp_path / "c.yaml"
        cfg.write_text(text)
        assert run([verb, "--config", cfg, "--out", outdir]) == 2
        assert name in capsys.readouterr().err
        assert not outdir.exists()  # nothing written, not even a partial result

    @pytest.mark.parametrize("verb", sorted(cli_mod.COMMANDS))
    @pytest.mark.parametrize("header", ["MS2=2", "NELEC=1"])
    def test_open_shell_fcidump_is_refused_on_load(self, tmp_path, outdir, capsys, monkeypatch,
                                                   verb, header):
        # every verb is closed-shell: the header is checked before any SCF or mapping
        def too_late(*args):
            raise AssertionError("ran before the closed-shell check")

        monkeypatch.setattr(cli_mod, "restricted_hartree_fock", too_late)
        monkeypatch.setattr(ansatz_mod, "map_to_qubits", too_late)  # the molecular builder's
        key = header.split("=")[0]
        fcidump = tmp_path / "h2_open.fcidump"
        fcidump.write_text(re.sub(rf"{key}=\d+", header, read(ROOT / "fixtures" / "h2.fcidump")))
        extra = {"dmet": "dmet: {fragments: [[0], [1]]}\n",
                 "resources": "resources: {windows: [0]}\n"}.get(verb, "")
        cfg = tmp_path / "c.yaml"
        cfg.write_text(f"system: {{fcidump: {fcidump}}}\n{extra}")
        assert run([verb, "--config", cfg, "--out", outdir]) == 2
        err = capsys.readouterr().err
        assert "config error: system.fcidump" in err and header in err
        assert not outdir.exists()

    @pytest.mark.parametrize("case", sorted(WINDOWS_PAST_RANGE))
    def test_window_past_orbital_range_exits_2(self, tmp_path, outdir, capsys, case):
        verb, text, name, value = WINDOWS_PAST_RANGE[case]
        cfg = tmp_path / "c.yaml"
        cfg.write_text(text)
        assert run([verb, "--config", cfg, "--out", outdir]) == 2
        err = capsys.readouterr().err
        assert f"config error: {name}: {value} " in err
        assert not outdir.exists()

    @pytest.mark.parametrize("verb", ["vqe", "deparam", "dmet", "oracle"])
    @pytest.mark.parametrize("mitigation", ["m3", "trex"])
    def test_noise_model_wider_than_register_exits_2(self, tmp_path, outdir, capsys, verb, mitigation):
        # reduced parity puts H2, and each of its one-orbital fragments with
        # its bath orbital, on 2 qubits; the noise file models 4
        doc = yaml.safe_load((CONFIGS / "h2_vqe_sampled.yaml").read_text())
        doc["dmet"] = {"fragments": [[0], [1]], "solver": "vqe"}
        doc["estimator"].update(noise=str(ROOT / "fixtures/noise_4q_2pct.txt"), mitigation=mitigation)
        doc["system"]["fcidump"] = str(ROOT / doc["system"]["fcidump"])
        cfg = tmp_path / "c.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        assert run([verb, "--config", cfg, "--out", outdir]) == 2
        err = capsys.readouterr().err
        assert "estimator.noise" in err and "4 qubits" in err and "2 qubits" in err
        assert not outdir.exists()

    def test_float_key_read_as_string_is_accepted(self, tmp_path, outdir):
        # PyYAML reads 1e-6 (no decimal point) as the string '1e-6'
        cfg = tmp_path / "c.yaml"
        cfg.write_text(H4 + "dmet: {fragments: [[0, 1], [2, 3]], mu_tol: 1e-6}\n")
        assert yaml.safe_load(cfg.read_text())["dmet"]["mu_tol"] == "1e-6"
        assert run(["dmet", "--config", cfg, "--out", outdir]) == 0
        assert (outdir / "dmet_result.txt").exists()

    def test_oracle_cap_exceeded_is_config_error(self, tmp_path, outdir):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(f"system: {{fcidump: {ROOT}/fixtures/h10.fcidump}}\n")
        assert run(["oracle", "--config", cfg, "--out", outdir]) == 2

    def test_dense_oracle_past_its_cap_exits_2_before_building(self, tmp_path, outdir,
                                                               monkeypatch, capsys):
        # H10 window 4 is 8 orbitals, 16 spin orbitals: past the sector
        # solver's cap of 14, so full CI is refused before anything is built.
        # Under reduced parity its 14-qubit dense matrix alone would take 4.3 GB.
        monkeypatch.setattr(QubitHamiltonian, "to_matrix", no_dense_matrix)
        cfg = tmp_path / "c.yaml"
        cfg.write_text(f"system: {{fcidump: {ROOT}/fixtures/h10.fcidump, window: 4}}\n"
                       "mapping: {kind: parity, two_qubit_reduction: true}\n")
        assert run(["oracle", "--config", cfg, "--out", outdir]) == 2
        assert "system.fcidump" in capsys.readouterr().err


def _load(argv):
    args = build_parser().parse_args([str(a) for a in argv])
    return load_config(args.config, args)


class TestConfigTable:
    def test_readme_block_lists_the_table(self):
        readme = (ROOT / "README.md").read_text()
        block = readme.split("Config sections", 1)[1].split("```yaml\n", 1)[1].split("```", 1)[0]
        documented = {}
        for line in block.splitlines():
            line = line.split("#", 1)[0]
            if not line[:1].isspace():  # a section name starts its line
                section, line = line.split(":", 1)
                documented[section] = []
            documented[section] += re.findall(r"(\w+):", line)
        assert documented == {section: list(keys) for section, keys in CONFIG_KEYS.items()}

    # each shipped config loads under vqe, and under the verb its out/ directory is written by
    @pytest.mark.parametrize("name,verb", [
        *(pytest.param(p.name, "vqe", id=p.name) for p in sorted(CONFIGS.glob("*.yaml"))),
        *(pytest.param(Path(config).name, verb, id=f"{Path(config).name}-{verb}")
          for verb, config in ARTIFACTS.values() if verb != "vqe"),
    ])
    def test_shipped_configs_load(self, name, verb, monkeypatch):
        monkeypatch.chdir(ROOT)  # configs name their input files relative to the repo
        _load([verb, "--config", f"configs/{name}"])

    @pytest.mark.parametrize("workload", ["deparam_sampled", "dmet_resources"])
    def test_benchmark_configs_load(self, workload, tmp_path, monkeypatch):
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
        )
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        monkeypatch.chdir(ROOT)
        for op in workloads.prepare(workload, tmp_path, 0):  # writes the configs it runs
            cfg = _load(op.argv)
            assert cfg["output"]["dir"] == op.out
            if op.argv[0] == "dmet":  # JSON writes 1e-06, which YAML reads as a string
                assert cfg["dmet"]["mu_tol"] == workloads.DMET_MU_TOL


class TestVqeCommand:
    def test_artifacts_and_relative_error(self, outdir):
        assert run(["vqe", "--config", CONFIGS / "h2_vqe_lbfgs.yaml", "--out", outdir]) == 0
        result = read(outdir / "vqe_result.txt")
        assert "oracle_energy=" in result
        rel = float(re.search(r"relative_error=([\d.e+-]+)", result).group(1))
        assert rel < 2e-3
        assert (outdir / "vqe_trace.csv").exists()
        assert (outdir / "vqe_convergence.svg").exists()

    def test_seeded_reruns_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        base = ["vqe", "--config", CONFIGS / "h2_vqe_spsa.yaml", "--seed", "7"]
        assert run(base + ["--out", out1]) == 0
        assert run(base + ["--out", out2]) == 0
        for name in ("vqe_trace.csv", "vqe_result.txt", "vqe_convergence.svg"):
            assert read(out1 / name) == read(out2 / name)

    def test_seed_flag_is_vqe_seed(self, tmp_path, monkeypatch):
        # vqe.seed is the one seed of a run, and --seed sets it
        monkeypatch.chdir(ROOT)  # the config names its input files relative to the repo
        doc = yaml.safe_load((CONFIGS / "h2_vqe_sampled.yaml").read_text())
        doc["vqe"] = {"seed": 5}
        cfg = tmp_path / "c.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        assert run(["vqe", "--config", cfg, "--out", tmp_path / "a"]) == 0
        argv = ["vqe", "--config", CONFIGS / "h2_vqe_sampled.yaml", "--seed", "5"]
        assert run(argv + ["--out", tmp_path / "b"]) == 0
        name = "vqe_result.txt"
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_sampled_with_mitigation_runs(self, outdir):
        assert run(["vqe", "--config", CONFIGS / "h2_vqe_sampled.yaml", "--out", outdir]) == 0

    # sha256 of vqe_result.txt for each of the benchmark's 20 sampled runs
    SAMPLED_DIGESTS = {
        ("m3", 0): "a6bc1a0773672415407d1c71d75063a1e062a863605da2af44066c9915544902",
        ("m3", 1): "7f96e28d93f919bd9c4dfb0e0c7ab04b76792e95603fa1c8cf8c06f5c5abe543",
        ("m3", 2): "265367288666ef076191f0f54ea81c684313083df84630cf42603cbd6b44809d",
        ("m3", 3): "b8d36a821bace188bb453edb19eb3f65416cec2cd63a09749fc7697b56dbf6bc",
        # seed 4 ends closest to the benchmark's 5e-2 relative-error ceiling
        ("m3", 4): "861774bcbc361c66adf256fdecf6a42f2afda79e84006790677a6941708f867d",
        ("m3", 5): "f5bd8653941a3880e19965c0dddf1026419d1fcc47b4d70c5e40ba280abf0a5d",
        ("m3", 6): "11173e48bfcf9a2c51e523568ddbe15f193bec67b57a5906020c5fd49a432499",
        ("m3", 7): "88ecffdc81f6c8746e60d38e6eea1d4046207811da6e619a64742fcf6a8435d6",
        ("m3", 8): "deed29d6d195ab499b5ae61427d7e5b5227290ab5302094f54df83a9dde1daf5",
        ("m3", 9): "baa979daaab203e73fdfffdb1cb9405a5c8fa6a0ed9c0f3a55b76cad5708b7ea",
        ("trex", 0): "f623c1630283cc1f46eddcfd1d6376838dbc421dda23d68bc4c2743f26b1dae6",
        ("trex", 1): "2e86890ef28ce5d543654bb56235ead5ca3686cb0cadf4043e138cca372561b1",
        ("trex", 2): "64353a8d2e291480995657a3026e79fa2a3f3034715040134b7c3f89993c96a8",
        ("trex", 3): "9f63443b686012f779a12095121e75e6f26de4163ae2516986a69d5d3a1368e1",
        ("trex", 4): "e830b8eb4c1b881143fe9ff4af2686698479522202bb2dbfa77719edfa5921af",
        ("trex", 5): "bf9d328051ed162f616077a8f1970afa0bbca1f942115d79858d5bc7e6200f31",
        ("trex", 6): "49791eeffd617b64b30594c9a5bff65fde6f3026a583c927460750930aaab2b9",
        ("trex", 7): "4a0177fd87ecec27076311360eb696446ad2a47c4b9f6d9377601194ef73a433",
        ("trex", 8): "e2f56cc2c640ff311662759911d77249b372c57fa527d098eb190ed832dbdbb4",
        ("trex", 9): "233b081271a171d602bdc8e15ff2483195e3371de479d3c7a67f5bbd3c80f95b",
    }

    @pytest.fixture(scope="class")
    def check_sampled(self):
        """perfbench/checks.py's check of one sampled run, loaded from its file,
        against the problem record the benchmark attaches to the sampled runs."""
        with pytest.MonkeyPatch.context() as mp:
            mp.syspath_prepend(str(ROOT / "perfbench"))  # checks.py imports ``workloads``
            mp.chdir(ROOT)  # the sampled config names its input files relative to the repo
            spec = importlib.util.spec_from_file_location(
                "perfbench_checks", ROOT / "perfbench" / "checks.py")
            checks = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(checks)
            problem = checks.workloads.describe_sampled_problem()
        fci = checks.read_fixture_json(ROOT, "h2")["fci_energy"]
        return lambda label, text: checks.check_sampled(
            [{"label": label, "result": text, **problem}], fci)

    @pytest.mark.parametrize("mitigation, seed", sorted(SAMPLED_DIGESTS),
                             ids=[f"{m}-{s}" for m, s in sorted(SAMPLED_DIGESTS)])
    def test_sampled_result_is_pinned(self, outdir, mitigation, seed, check_sampled):
        argv = ["vqe", "--config", CONFIGS / "h2_vqe_sampled.yaml", "--seed", seed,
                "--mitigation", mitigation, "--out", outdir]
        assert run(argv) == 0
        digest = self.SAMPLED_DIGESTS[mitigation, seed]
        result = outdir / "vqe_result.txt"
        assert hashlib.sha256(result.read_bytes()).hexdigest() == digest
        # the benchmark's own check: exact energy at the returned parameters
        # above FCI and within its relative-error ceiling
        check_sampled(f"{mitigation}-{seed}", result.read_text())


class TestDeparamCommand:
    def test_monotone_reduction_and_error_column(self, outdir):
        assert run(["deparam", "--config", CONFIGS / "chain5_deparam.yaml", "--out", outdir]) == 0
        params = [int(r.split(",")[1]) for r in read(outdir / "deparam_params.csv").splitlines()[1:]]
        assert params[0] == 10
        assert params == sorted(params, reverse=True)
        assert params[-1] <= 5  # at least half the rotations frozen
        errors = [float(r.split(",")[1]) for r in read(outdir / "deparam_error.csv").splitlines()[1:]]
        assert all(e <= 1e-2 for e in errors[1:])
        assert (outdir / "deparam_params.svg").exists()
        assert (outdir / "deparam_error.svg").exists()

    def test_toy_single_parameter(self, tmp_path, outdir):
        ham = tmp_path / "toy.ham"
        ham.write_text("nqubits=1\n-1.0 0.0 Z\n")
        cfg = tmp_path / "c.yaml"
        cfg.write_text(
            f"system: {{hamiltonian: {ham}}}\nansatz: {{layers: 0}}\n"
            "deparam: {tolerance: 1.0e-6}\n"
        )
        assert run(["deparam", "--config", cfg, "--out", outdir]) == 0
        params = [int(r.split(",")[1]) for r in read(outdir / "deparam_params.csv").splitlines()[1:]]
        assert params == [1, 0]

    def test_oracle_is_computed_once(self, outdir, monkeypatch):
        calls = []
        ground_state_energy = QubitHamiltonian.ground_state_energy

        def counted(self):
            calls.append(self.n_qubits)
            return ground_state_energy(self)

        monkeypatch.setattr(QubitHamiltonian, "ground_state_energy", counted)
        assert run(["deparam", "--config", CONFIGS / "chain5_deparam.yaml", "--out", outdir]) == 0
        assert calls == [5]

    def test_molecule_vqe_and_deparam_build_no_dense_matrix(self, outdir, monkeypatch):
        monkeypatch.setattr(QubitHamiltonian, "to_matrix", no_dense_matrix)
        config = CONFIGS / "h2_vqe_lbfgs.yaml"  # reduced parity, one layer
        for verb in ("vqe", "deparam"):
            assert run([verb, "--config", config, "--out", outdir / verb]) == 0, verb
        assert "oracle_energy=" in read(outdir / "vqe" / "vqe_result.txt")

    def test_register_past_the_dense_cap_exits_2_before_any_solve(self, tmp_path, outdir,
                                                                  monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("a solve or a dense matrix was started")

        for module in (vqe_mod, cli_mod):
            monkeypatch.setattr(module, "solve", refused)
        monkeypatch.setattr(QubitHamiltonian, "to_matrix", refused)
        ham = tmp_path / "wide.ham"
        ham.write_text("nqubits=13\n-1.0 0.0 " + "Z" * 13 + "\n")
        cfg = tmp_path / "c.yaml"
        cfg.write_text(f"system: {{hamiltonian: {ham}}}\nansatz: {{layers: 0}}\n")
        assert run(["deparam", "--config", cfg, "--out", outdir]) == 2
        assert not outdir.exists()

    def test_zero_tolerance_boundary(self, tmp_path, outdir):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(
            f"system: {{hamiltonian: {ROOT}/fixtures/chain5.ham}}\n"
            "vqe: {initial: random, seed: 2}\n"
            "deparam: {tolerance: 0.0}\n"
        )
        assert run(["deparam", "--config", cfg, "--out", outdir]) == 0
        params = [int(r.split(",")[1]) for r in read(outdir / "deparam_params.csv").splitlines()[1:]]
        assert len(params) <= 2  # empty or single-step report


class TestDmetCommand:
    def test_whole_molecule_identity_row(self, tmp_path, outdir):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(
            f"system: {{fcidump: {ROOT}/fixtures/h2.fcidump}}\n"
            "dmet: {fragments: [[0, 1]]}\n"
        )
        assert run(["dmet", "--config", cfg, "--out", outdir]) == 0
        result = read(outdir / "dmet_result.txt")
        assert "relative_error_e3=0.00" in result

    def test_h4_two_fragment_artifacts(self, outdir):
        assert run(["dmet", "--config", CONFIGS / "h4_dmet.yaml", "--out", outdir]) == 0
        result = read(outdir / "dmet_result.txt")
        assert "relative_error_e3=" in result
        assert (outdir / "dmet_mu_trace.csv").exists()

    def test_exact_solver_runs_under_the_flags_every_verb_takes(self, outdir):
        # --seed and --mitigation set vqe.seed and estimator.mitigation
        argv = ["dmet", "--config", CONFIGS / "h4_dmet.yaml", "--out", outdir,
                "--seed", "3", "--mitigation", "m3"]
        assert run(argv) == 0
        committed = read(ROOT / "out" / "h4_dmet" / "dmet_result.txt")
        assert read(outdir / "dmet_result.txt") == committed

    def test_vqe_and_exact_rows_comparable(self, tmp_path):
        out_e, out_v = tmp_path / "e", tmp_path / "v"
        cfg = tmp_path / "c.yaml"
        cfg.write_text(
            f"system: {{fcidump: {ROOT}/fixtures/h2.fcidump}}\n"
            "dmet: {fragments: [[0], [1]]}\n"
        )
        assert run(["dmet", "--config", cfg, "--out", out_e]) == 0
        assert run(["dmet", "--config", CONFIGS / "h2_dmet_vqe.yaml", "--out", out_v]) == 0
        e_exact = float(re.search(r"total_energy=([-\d.e]+)", read(out_e / "dmet_result.txt")).group(1))
        e_vqe = float(re.search(r"total_energy=([-\d.e]+)", read(out_v / "dmet_result.txt")).group(1))
        assert abs(e_exact - e_vqe) < 5e-3

    def test_vqe_solver_reads_mapping(self, tmp_path, outdir):
        # Jordan-Wigner puts each two-orbital embedding on 4 qubits, not 2
        doc = yaml.safe_load((CONFIGS / "h2_dmet_vqe.yaml").read_text())
        doc["system"]["fcidump"] = str(ROOT / doc["system"]["fcidump"])
        doc["mapping"] = {"kind": "jordan_wigner", "two_qubit_reduction": False}
        cfg = tmp_path / "c.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        assert run(["dmet", "--config", cfg, "--out", outdir]) == 0
        result = read(outdir / "dmet_result.txt")
        assert result != read(ROOT / "out" / "h2_dmet_vqe" / "dmet_result.txt")
        energy = float(re.search(r"total_energy=([-\d.e]+)", result).group(1))
        oracle = float(re.search(r"oracle_energy=([-\d.e]+)", result).group(1))
        assert abs(energy - oracle) < 5e-3

    def test_vqe_fragment_failure_exits_1_naming_the_fragment(self, outdir, capsys, monkeypatch):
        def nan_objective(*args, **kwargs):
            raise NonFiniteObjectiveError(float("nan"), 3)

        monkeypatch.setattr(dmet_mod.vqe_mod, "solve", nan_objective)
        assert run(["dmet", "--config", CONFIGS / "h2_dmet_vqe.yaml", "--out", outdir]) == 1
        assert "fragment 0" in capsys.readouterr().err
        assert not (outdir / "dmet_result.txt").exists()

    def test_degenerate_fragment_exits_1_naming_the_gap(self, outdir, capsys, monkeypatch):
        # two electrons on two equal non-interacting levels: four degenerate ground states
        degenerate = dmet_mod.EmbeddingProblem(
            one_body_bare=-np.eye(2), env_fold=np.zeros((2, 2)), two_body=np.zeros((2,) * 4),
            fock=-np.eye(2), n_fragment=1, n_electrons=2, core_energy=0.0,
        )
        monkeypatch.setattr(dmet_mod, "build_embedding", lambda *args: degenerate)
        assert run(["dmet", "--config", CONFIGS / "h4_dmet.yaml", "--out", outdir]) == 1
        err = capsys.readouterr().err
        assert "error: DegenerateGroundStateError: fragment 0 at mu=0.0: degenerate" in err
        assert "gap to the next root" in err
        assert not (outdir / "dmet_result.txt").exists()

    def test_degenerate_windowed_fragment_exits_1_naming_the_gap(
        self, tmp_path, outdir, capsys, monkeypatch
    ):
        # zero integrals on two orbitals and two electrons: four degenerate ground states
        zero = dmet_mod.EmbeddingProblem(
            one_body_bare=np.zeros((2, 2)), env_fold=np.zeros((2, 2)), two_body=np.zeros((2,) * 4),
            fock=np.zeros((2, 2)), n_fragment=1, n_electrons=2, core_energy=0.0,
        )
        monkeypatch.setattr(dmet_mod, "build_embedding", lambda *args: zero)
        cfg = tmp_path / "c.yaml"
        cfg.write_text(H4 + "dmet: {fragments: [[0, 1], [2, 3]], window: 1}\n")
        assert run(["dmet", "--config", cfg, "--out", outdir]) == 1
        err = capsys.readouterr().err
        assert "error: DegenerateGroundStateError: fragment 0 at mu=0.0: degenerate" in err
        assert "gap to the next root" in err
        assert not (outdir / "dmet_result.txt").exists()


class TestResourcesCommand:
    def test_width_row(self, outdir, capsys):
        assert run(["resources", "--config", CONFIGS / "h10_resources.yaml", "--out", outdir]) == 0
        table = read(outdir / "resources.txt")
        assert "8" in table and "20" in table
        csv = read(outdir / "resources.csv")
        widths = [int(r.split(",")[1]) for r in csv.splitlines()[1:]]
        assert widths == [8, 12, 16, 20]

    def test_single_full_window(self, tmp_path, outdir):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(
            f"system: {{fcidump: {ROOT}/fixtures/h2.fcidump}}\n"
            "resources: {windows: [0]}\n"
        )
        assert run(["resources", "--config", cfg, "--out", outdir]) == 0
        csv = read(outdir / "resources.csv")
        assert csv.splitlines()[1].split(",")[1] == "4"  # 2 * NORB

    def test_table_and_csv_agree(self, outdir):
        assert run(["resources", "--config", CONFIGS / "h10_resources.yaml", "--out", outdir]) == 0
        table = read(outdir / "resources.txt")
        csv = read(outdir / "resources.csv")
        for row in csv.splitlines()[1:]:
            _, width, terms, _ = row.split(",")
            assert width in table and terms in table


class TestOracleCommand:
    def test_h2_oracle(self, outdir, h2):
        _, meta = h2
        cfg_path = CONFIGS / "h2_vqe_lbfgs.yaml"
        assert run(["oracle", "--config", cfg_path, "--out", outdir]) == 0
        text = read(outdir / "oracle_result.txt")
        energy = float(re.search(r"ground_energy=([-\d.e]+)", text).group(1))
        assert energy == pytest.approx(meta["fci_energy"], abs=1e-8)

    def test_molecule_oracle_is_full_ci_without_a_dense_matrix(self, tmp_path, outdir, h10,
                                                                h10_mf, monkeypatch):
        # H10 window 3 under Jordan-Wigner is 12 qubits: a 4,096 x 4,096 dense
        # matrix, against 400 determinants in the (3, 3) sector
        monkeypatch.setattr(QubitHamiltonian, "to_matrix", no_dense_matrix)
        cfg = tmp_path / "c.yaml"
        cfg.write_text(f"system: {{fcidump: {ROOT}/fixtures/h10.fcidump, window: 3}}\n"
                       "mapping: {kind: jordan_wigner}\n")
        assert run(["oracle", "--config", cfg, "--out", outdir]) == 0
        text = read(outdir / "oracle_result.txt")
        assert "n_qubits=12\n" in text
        energy = float(re.search(r"ground_energy=(\S+)", text).group(1))
        active, _ = active_space(h10[0], h10_mf, 3)
        assert abs(energy - full_ci_ground_energy(active)) < 1e-12

    def test_odd_electron_count_has_no_oracle(self, tmp_path, outdir, capsys):
        # full CI is closed-shell; the dense matrix would give the two-electron
        # energy, and the ansatz, which does not conserve particle number, a
        # lower one
        fcidump = tmp_path / "h2_odd.fcidump"
        fcidump.write_text(read(ROOT / "fixtures" / "h2.fcidump").replace("NELEC=2", "NELEC=1"))
        cfg = tmp_path / "c.yaml"
        cfg.write_text(f"system: {{fcidump: {fcidump}}}\nmapping: {{kind: jordan_wigner}}\n"
                       "optimizer: {kind: spsa, iterations: 5}\nvqe: {seed: 11}\n")
        for verb in ("oracle", "deparam", "vqe"):
            assert run([verb, "--config", cfg, "--out", outdir]) == 2, verb
            assert "system.fcidump" in capsys.readouterr().err, verb
            assert not outdir.exists(), verb


# Runs in a fresh interpreter: after each stage, which SciPy modules have
# been loaded.
FOOTPRINT_SCRIPT = """
import json, sys
import numpy as np
import vqemb.cli as cli
from vqemb.mitigation import M3GroupEstimator
from vqemb.pauli import PauliWord
from vqemb.simulator import ReadoutNoiseModel, sample
out, h2_resources, h4_windowed = sys.argv[1:]
loaded = lambda: sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

def cli_run(verb, config):
    return lambda stage: cli.main([verb, "--config", config, "--out", f"{out}/{stage}"]) == 0

def m3_many_outcomes(stage):
    n = 10
    state = np.random.default_rng(14).normal(size=1 << n)
    state /= np.linalg.norm(state)
    noise, basis = ReadoutNoiseModel.uniform(n, 0.02), PauliWord("Z" * n)
    M3GroupEstimator(noise, 4000, noise, np.random.default_rng(15)).estimate_group(
        state, basis, [(1.0, (1 << n) - 1)])
    return sample(state, basis, 4000, noise, rng=np.random.default_rng(15)).outcomes.size > 500

report = {"import": loaded()}
for stage, run in (
    ("dmet", cli_run("dmet", "configs/h4_dmet.yaml")),
    ("windowed_dmet", cli_run("dmet", h4_windowed)),
    ("resources", cli_run("resources", h2_resources)),
    ("oracle", cli_run("oracle", "configs/h2_vqe_lbfgs.yaml")),
    ("spsa", cli_run("vqe", "configs/h2_vqe_sampled.yaml")),
    ("m3_many_outcomes", m3_many_outcomes),
    ("quasi_newton", cli_run("vqe", "configs/h2_vqe_lbfgs.yaml")),
):
    assert run(stage), stage
    report[stage] = loaded()
print(json.dumps(report))
"""


class TestImportFootprint:
    def test_heavy_scipy_loads_only_where_used(self, tmp_path):
        cfg = tmp_path / "h2_resources.yaml"
        cfg.write_text(H2 + "resources: {windows: [0]}\n")
        windowed = tmp_path / "h4_windowed_dmet.yaml"
        windowed.write_text(H4 + "dmet: {fragments: [[0, 1], [2, 3]], window: 1}\n")
        proc = subprocess.run(
            [sys.executable, "-c", FOOTPRINT_SCRIPT, str(tmp_path), str(cfg), str(windowed)],
            cwd=ROOT,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.splitlines()[-1])
        # the exact sector solves, the shot-based SPSA path and M3 past 500 distinct
        # outcomes need no SciPy at all
        for stage in ("import", "dmet", "windowed_dmet", "resources", "oracle", "spsa",
                      "m3_many_outcomes"):
            assert report[stage] == [], stage
        # L-BFGS-B needs scipy.optimize, so the checks above are not vacuous
        assert "scipy.optimize" in report["quasi_newton"]
