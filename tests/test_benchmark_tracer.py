"""The benchmark's per-layer tracer still finds every function it times.

``perfbench/tracer.py`` patches vqemb functions and methods by name; a name
that stops resolving would break ``--trace 1`` runs only, which the tests
under ``tests/`` never start.  This loads the tracer from its file, installs
it, and checks that every target was wrapped and is restored afterwards.
"""

import importlib
import importlib.util
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
