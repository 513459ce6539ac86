"""The benchmark's per-layer tracer still finds every function it times.

``perfbench/tracer.py`` patches vqemb functions and methods by name; a name
that stops resolving would break ``--trace 1`` runs only, which the tests
under ``tests/`` never start.  This loads the tracer from its file, installs
it, and checks that every target was wrapped and is restored afterwards, and
that each work count reads the value a traced call really returns.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module, path):
    owner = importlib.import_module(f"vqemb.{module}")
    if "." in path:
        cls_name, meth = path.split(".")
        return vars(getattr(owner, cls_name))[meth]
    return getattr(owner, path)


def test_every_target_is_patched_and_restored():
    tracer_module = _load_tracer()
    targets = tracer_module.TARGETS
    originals = {name: _resolve(module, path) for module, path, name in targets}
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        for module, path, name in targets:
            wrapped = _resolve(module, path)
            assert wrapped is not originals[name], f"{name} was not patched"
            assert wrapped.__wrapped__ is originals[name], name
    finally:
        tracer.uninstall()
    for module, path, name in targets:
        assert _resolve(module, path) is originals[name], f"{name} was not restored"


def _load_workloads(monkeypatch):
    path = TRACER.parent / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_work_counts_read_real_return_values(h10, tmp_path, monkeypatch):
    """Each ``COUNTS`` function, fed by the traced calls of one resources part."""
    from vqemb import cli, simulator
    from vqemb.chem import restricted_hartree_fock
    from vqemb.mapping import MappingSpec
    from vqemb.pauli import PauliWord
    from vqemb.resources import estimate

    workloads = _load_workloads(monkeypatch)
    m, _ = h10
    mf = restricted_hartree_fock(m)
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        mapped = 0
        for kind, reduced in workloads.RESOURCE_MAPPINGS.values():
            spec = MappingSpec(kind, reduced, m.n_electrons)
            mapped += sum(e.hamiltonian_terms
                          for e in estimate(m, mf, workloads.RESOURCE_WINDOWS, spec))
        simulator.sample(simulator.zero_state(2), PauliWord("ZZ"), 37, seed=0)
        cli.write_atomic(tmp_path / "out.txt", "énergie\n")
    finally:
        tracer.uninstall()
    # 31,520 fermion terms over windows 1-4, once per mapping
    assert tracer.counts["mapping.build_fermionic_hamiltonian.terms"] == 3 * 31520
    assert tracer.counts["mapping.map_to_qubits.terms"] == mapped
    assert tracer.counts["simulator.sample.shots"] == 37
    assert tracer.counts["cli.write_atomic.bytes"] == len("énergie\n".encode())
