"""The benchmark's span tracer patches canideal by name; every name must resolve.

`perfbench/spans.py` is loaded from its path and left unmodified.  Its
`install()` raises KeyError on a missing method, so a renamed or deleted
traced function would otherwise only show up when a traced benchmark run
crashes.
"""

import dataclasses
import importlib
import importlib.util
import inspect
import pathlib

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("canideal_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    spans = _load_spans()
    assert spans.TARGETS
    for name, mod_name, attr, cls_name in spans.TARGETS:
        module = importlib.import_module("canideal." + mod_name)
        if cls_name is None:
            assert callable(getattr(module, attr, None)), name
        else:
            cls = getattr(module, cls_name, None)
            assert cls is not None and callable(cls.__dict__.get(attr)), name


def test_round_counting_hook_fits_reduce_normal_form():
    # the tracer counts normal-form rounds by replacing rel.rhs through
    # dataclasses.replace and counting iterations of it
    from canideal.fibrealg import FibreRelation, reduce_normal_form

    assert "rhs" in {f.name for f in dataclasses.fields(FibreRelation)}
    assert list(inspect.signature(reduce_normal_form).parameters)[:2] == ["e", "rel"]
