"""The benchmark's tracer finds every library name it wraps.

``perfbench/tracer.py`` looks each traced method up in its class
namespace and each traced function in its module, so a renamed or
removed name fails its construction.  Constructing it installs nothing.
"""

import importlib.util
from pathlib import Path

import padicqm
import padicqm.cli  # noqa: F401  (the tracer reads padicqm.cli, .jsonio, .states)
import padicqm.jsonio  # noqa: F401
import padicqm.states  # noqa: F401

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_resolves_every_traced_name():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    t = tracer.Tracer(padicqm)
    patched = {(getattr(owner, "__name__", ""), name) for owner, name, _, _ in t._patches}
    assert ("CanonicalDecomposition", "reconstruct") in patched
    assert ("BasisRotation", "apply_inverse") in patched
