"""perfbench/tracer.py wraps gigkdv functions by name, so renaming or
deleting one of them must fail here, not in a traced benchmark run."""

import importlib.util
from pathlib import Path

from scipy import stats

import gigkdv
import gigkdv.cli  # noqa: F401  (imports every module that the tracer wraps)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = tracer.targets(gigkdv, stats)
    assert len(targets) >= 20
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in targets
               if not callable(getattr(owner, attr, None))]
    assert missing == []
