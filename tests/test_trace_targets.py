"""The benchmark's span tracer patches canideal by name; every name must resolve.

`perfbench/spans.py` is loaded from its path and left unmodified.  Its
`install()` raises KeyError on a missing method, so a renamed or deleted
traced function would otherwise only show up when a traced benchmark run
crashes.  The same targets are the only functions of `src/` that nothing in
`src/` needs to name.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"


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


def test_every_function_in_src_is_named_in_src_or_traced():
    # a def that no module of the package names (as a name or an attribute,
    # the re-exports of __init__ not counted) is reached only by the tests
    paths = sorted((ROOT / "src" / "canideal").glob("*.py"))
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in paths if path.name != "__init__.py"]
    defs, named = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("__"):
                defs.add(node.name)
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    traced = {attr for _, _, attr, _ in _load_spans().TARGETS}
    unused = sorted(defs - named - traced)
    assert not unused, unused
