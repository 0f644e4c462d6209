"""The benchmark's timing hooks still name real program functions.

``perfbench/spans.py`` wraps methods as ``vars(owner)[attr]`` — the
attribute must be defined in the class's own body, not inherited — and
free functions by module attribute. A refactor that renames, moves or
inherits one of them breaks the benchmark; this test breaks first.
"""

import importlib
import importlib.util
import os

import pytest

SPANS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "spans.py"
)


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _spans()
LAYERS = spans.SERVE_LAYERS + spans.BUILD_LAYERS + spans.TRAIN_LAYERS


@pytest.mark.parametrize(
    "module_name,qualname,name", LAYERS, ids=[entry[1] for entry in LAYERS]
)
def test_layer_resolves_like_install(module_name, qualname, name):
    module = importlib.import_module(module_name)
    owner_name, _, attr = qualname.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name)
        assert attr in vars(owner), f"{qualname} is not defined in {owner_name}'s body"
        assert callable(vars(owner)[attr])
    else:
        assert callable(getattr(module, attr))


def test_batch_hook_resolves():
    from repro.serve.engine import ForecastEngine

    assert callable(vars(ForecastEngine)["_answer"])
