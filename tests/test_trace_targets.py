"""The benchmark's tracer (``perfbench/tracing.py``) replaces nkf attributes
by name, so renaming or removing one of them breaks only traced runs. This
checks, without patching anything, that every name it replaces exists where
its ``Patcher`` looks: in a class's own ``__dict__``, or on a module."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_name_the_tracer_patches_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing.patch_targets()
    assert targets
    missing = [f"{owner.__name__}.{attr}" for owner, attr in targets
               if not (attr in owner.__dict__ if isinstance(owner, type)
                       else hasattr(owner, attr))]
    assert not missing
