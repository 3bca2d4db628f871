"""The benchmark's tracer (bench/spans.py) rebinds library functions by
name; every name it lists must exist, or its traced run breaks."""

import importlib
import importlib.util

from conftest import DATASETS

SPANS = DATASETS.parent / "bench" / "spans.py"


def test_every_traced_binding_site_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert ("lattice", "WeylElement.apply") in spans.TRACED
    for modname, attr in spans.TRACED:
        module = importlib.import_module(f"locmult.{modname}")
        if "." in attr:  # patched on the class that defines it
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(module, cls_name)), (modname, attr)
        else:
            assert callable(getattr(module, attr, None)), (modname, attr)
