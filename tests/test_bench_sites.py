"""The bench's span recorder (bench/spans.py) wraps the functions its LAYERS
name as "module:attr.path" sites, and its counters read the wrapped calls'
arguments by name.  A rename in the package would break only the traced
bench run; these tests catch it.  bench/spans.py is read, never edited."""

import ast
import importlib
import importlib.util
import inspect
import os

import pytest

SPANS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench", "spans.py")


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = _spans().LAYERS


def _resolve(site: str):
    """The function a site names, looked up as the recorder installs it."""
    module_name, path = site.split(":")
    *owner_path, attr = path.split(".")
    owner = importlib.import_module(module_name)
    for part in owner_path:
        owner = getattr(owner, part)
    return owner.__dict__[attr]


def _counter_arguments() -> dict:
    """Per layer name, the argument names its counter reads: the string
    subscripts of the counter lambda's first parameter."""
    with open(SPANS) as fh:
        tree = ast.parse(fh.read())
    out = {}
    for call in ast.walk(tree):
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "Layer" \
                and len(call.args) == 4 and isinstance(call.args[3], ast.Lambda):
            counter = call.args[3]
            bound = counter.args.args[0].arg
            out[call.args[0].value] = {
                node.slice.value for node in ast.walk(counter.body)
                if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == bound
                and isinstance(node.slice, ast.Constant)
            }
    return out


COUNTER_ARGUMENTS = _counter_arguments()


def test_every_counter_is_parsed():
    assert set(COUNTER_ARGUMENTS) == {layer.name for layer in LAYERS if layer.counter}
    assert set().union(*COUNTER_ARGUMENTS.values()) >= {"inst", "vertices", "max_tries", "f"}


@pytest.mark.parametrize("layer", LAYERS, ids=[layer.name for layer in LAYERS])
def test_sites_resolve_and_counters_read_parameters(layer):
    for site in layer.sites:
        fn = _resolve(site)
        assert callable(fn), site
        params = inspect.signature(fn).parameters
        missing = COUNTER_ARGUMENTS.get(layer.name, set()) - set(params)
        assert not missing, f"{site} has no parameter {sorted(missing)}"
