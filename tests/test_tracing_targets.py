"""The benchmark's tracer still finds every attribute it patches.

``perfbench/tracing.py`` wraps functions on the module attributes their
callers look up.  A refactor that moves or renames one of them does not
break the benchmark run: the attribute is reported as unwrapped and its
per-layer rows read zero.  This test makes such a change fail here.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_attribute_resolves():
    missing = [
        f"{module}.{attr}"
        for sites in _targets().values()
        for module, attr in sites
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def test_binary_op_call_is_traceable():
    from semiswitch.presemifield import BinaryOp

    assert callable(BinaryOp.__dict__.get("__call__"))
