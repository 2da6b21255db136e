"""Every name the benchmark tracer (``perfbench/tracer.py``) wraps must
resolve in osptwist, so renaming a wrapped routine fails here instead of
in a later ``--trace 1`` benchmark run.  The tracer is only read."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    tracer = load_tracer()
    missing = []
    for target in tracer.TARGETS:
        modname, attr = target[:2]
        module = importlib.import_module("osptwist." + modname)
        if "." in attr:
            # the tracer patches the entry in the class's own namespace
            cls_name, member = attr.split(".")
            raw = vars(getattr(module, cls_name, object)).get(member)
            ok = raw is not None and (
                not isinstance(raw, property) or attr in tracer.CACHE_SLOTS
            )
        else:
            ok = callable(getattr(module, attr, None))
        if not ok:
            missing.append("%s.%s" % (modname, attr))
    assert missing == []
