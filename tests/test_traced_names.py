"""The names the benchmark's tracer and worker read from the package.

``perfbench/spans.py`` wraps every name in its ``LAYERS`` table by reading
it from its owner's ``__dict__``, and the worker records the kernel's
provenance, so deleting or moving one of those names breaks a traced
benchmark run.  This test reads the same table to keep them in place.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.LAYERS


@pytest.mark.parametrize("layer", sorted(_layers()))
def test_every_traced_name_is_in_its_owners_dict(layer):
    for module_name, class_name, names in _layers()[layer]:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = vars(owner)[class_name]
        missing = [name for name in names if name not in vars(owner)]
        assert not missing, (module_name, class_name, missing)


def test_the_provenance_names_exist():
    from diamondcgt import _kernel, kernel
    from diamondcgt.engine import Engine

    assert kernel.backend is _kernel
    assert isinstance(kernel.KERNEL_BACKEND, str)
    assert Engine().kernel_name == kernel.KERNEL_BACKEND
