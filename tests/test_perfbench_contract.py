"""Every attribute the serving benchmark wraps must exist as a plain method.

``perfbench/run.py --trace 1`` wraps the class attributes listed in
``perfbench.layers.LAYERS`` by name and fails on the first one that is
missing or not a plain callable in its owner's ``__dict__`` (a property,
an inherited method, a renamed method).  This test makes such a rename
fail here, in the unit suite, instead of only in the traced benchmark
run.
"""

from __future__ import annotations

import importlib

import pytest

from perfbench.layers import LAYERS

WRAPPED = [
    (module_name, qualname)
    for _, module_name, qualnames in LAYERS
    for qualname in qualnames
]


@pytest.mark.parametrize("module_name, qualname", WRAPPED)
def test_wrapped_attribute_is_a_plain_method(module_name, qualname):
    class_name, attribute = qualname.split(".")
    owner = getattr(importlib.import_module(module_name), class_name)
    assert isinstance(owner, type), f"{module_name}.{class_name} is not a class"
    original = owner.__dict__.get(attribute)
    assert original is not None, f"{module_name}.{qualname} is not defined on the class"
    assert callable(original), f"{module_name}.{qualname} is not a plain method"
