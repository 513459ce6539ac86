"""Every committed ``out/`` directory is reproduced byte for byte by its CLI command."""

import importlib.util
from pathlib import Path

import pytest
import yaml

from vqemb.cli import main

ROOT = Path(__file__).resolve().parent.parent

# out/ directory -> (verb, config) that writes it
ARTIFACTS = {
    "chain5_deparam": ("deparam", "configs/chain5_deparam.yaml"),
    "h10_resources": ("resources", "configs/h10_resources.yaml"),
    "h2_dmet_vqe": ("dmet", "configs/h2_dmet_vqe.yaml"),
    "h2_vqe_lbfgs": ("vqe", "configs/h2_vqe_lbfgs.yaml"),
    "h2_vqe_sampled": ("vqe", "configs/h2_vqe_sampled.yaml"),
    "h2_vqe_spsa": ("vqe", "configs/h2_vqe_spsa.yaml"),
    "h4_dmet": ("dmet", "configs/h4_dmet.yaml"),
    "oracle_h2": ("oracle", "configs/h2_vqe_lbfgs.yaml"),
}


def test_every_out_directory_has_its_command():
    # a directory missing from ARTIFACTS would go unchecked
    assert sorted(p.name for p in (ROOT / "out").iterdir()) == sorted(ARTIFACTS)


@pytest.mark.parametrize("config", sorted(p.name for p in (ROOT / "configs").glob("*.yaml")))
def test_every_config_output_dir_is_pinned(config):
    # running a shipped config must not write an out/ directory that no row checks
    path = f"configs/{config}"
    name = Path(yaml.safe_load((ROOT / path).read_text())["output"]["dir"]).name
    assert name in ARTIFACTS and ARTIFACTS[name][1] == path


@pytest.mark.parametrize("name", sorted(ARTIFACTS))
def test_committed_artifacts_reproduce(name, tmp_path, monkeypatch, capsys):
    verb, config = ARTIFACTS[name]
    monkeypatch.chdir(ROOT)  # configs name their integral files relative to the repo
    out = tmp_path / name
    assert main([verb, "--config", config, "--out", str(out)]) == 0
    committed = ROOT / "out" / name
    expected = sorted(p.name for p in committed.iterdir())
    assert expected and sorted(p.name for p in out.iterdir()) == expected
    for file_name in expected:
        assert (out / file_name).read_bytes() == (committed / file_name).read_bytes(), file_name


def test_chain5_report_passes_the_benchmark_check(monkeypatch):
    # perfbench/checks.py imports its sibling ``workloads`` by bare name
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("perfbench_checks", ROOT / "perfbench" / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    checks.check_deparam((ROOT / "out" / "chain5_deparam" / "deparam_report.txt").read_text(),
                         (ROOT / "fixtures" / "chain5.ham").read_text())
