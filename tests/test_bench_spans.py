"""The benchmark's traced run (`ddbench/run.py --trace 1`) wraps ddlab
functions by name; a name that no longer resolves breaks only that run."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "ddbench" / "tracer.py"


def test_every_traced_span_resolves():
    spec = importlib.util.spec_from_file_location("ddbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for name, module, attr, _, _ in tracer.SPANS:
        owner = importlib.import_module(module)
        *classes, leaf = attr.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        # as Tracer._patch reads them: methods from the class's own dict
        target = vars(owner)[leaf] if classes else getattr(owner, leaf)
        assert callable(getattr(target, "__func__", target)), name
