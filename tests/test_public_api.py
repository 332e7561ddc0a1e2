"""Public-API audit: what examples use must be importable from package roots.

Every name an example script imports from a ``repro.*`` module must also be
re-exported by the corresponding subpackage root (``repro.checkpoint``,
``repro.scheduler``, ...), so users can rely on the package-root namespaces
without knowing the internal module layout.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"

SUBPACKAGES = [
    "repro",
    "repro.api",
    "repro.autoscale",
    "repro.checkpoint",
    "repro.compiler",
    "repro.core",
    "repro.federation",
    "repro.hardware",
    "repro.middleware",
    "repro.runtime",
    "repro.scenarios",
    "repro.scheduler",
    "repro.security",
    "repro.serving",
    "repro.telemetry",
    "repro.telemetry.console",
    "repro.telemetry.profile",
    "repro.telemetry.trace",
    "repro.undervolting",
    "repro.usecases",
]


def example_imports():
    """(example, package root, imported name) triples from every example."""
    triples = []
    for path in sorted(EXAMPLES_DIR.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.module):
                continue
            if not node.module.startswith("repro"):
                continue
            parts = node.module.split(".")
            root = ".".join(parts[:2]) if len(parts) >= 2 else parts[0]
            for alias in node.names:
                triples.append((path.name, root, alias.name))
    return triples


def test_examples_exist():
    assert EXAMPLES_DIR.is_dir()
    assert example_imports(), "examples should import from repro"


@pytest.mark.parametrize(
    "example, package_root, name",
    example_imports(),
    ids=lambda value: str(value),
)
def test_example_name_importable_from_package_root(example, package_root, name):
    module = importlib.import_module(package_root)
    assert hasattr(module, name), (
        f"{example} imports {name!r}; re-export it from {package_root}/__init__.py"
    )


@pytest.mark.parametrize("package", SUBPACKAGES)
def test_all_names_resolve(package):
    """Every name in a subpackage's __all__ actually exists."""
    module = importlib.import_module(package)
    exported = getattr(module, "__all__", [])
    assert exported, f"{package} should declare __all__"
    for name in exported:
        assert hasattr(module, name), f"{package}.__all__ lists missing name {name!r}"


def test_benchmark_harness_all_names_resolve():
    """The benchmark harness is public tooling: audit its __all__ too.

    ``benchmarks/`` is not a package, so the module is loaded from its
    file path the same way the gate unit tests do.
    """
    import importlib.util

    path = Path(__file__).parent.parent / "benchmarks" / "harness.py"
    spec = importlib.util.spec_from_file_location("bench_harness_api", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    exported = getattr(module, "__all__", [])
    assert exported, "benchmarks/harness.py should declare __all__"
    for name in exported:
        assert hasattr(module, name), f"harness.__all__ lists missing name {name!r}"


#: The serving surface removed in 1.5: ``LegatoSystem.deploy(spec)`` is the
#: one serving entry point, and the score-cache knobs are gone for good.
REMOVED_SERVING_SURFACE = [
    ("repro.core.ecosystem", "LegatoSystem", "serve"),
    ("repro.core.ecosystem", "LegatoSystem", "federate"),
    ("repro.core.ecosystem", "LegatoSystem", "autoscaler"),
    ("repro.federation", "Federation", "serve"),
    ("repro.federation", "Federation", "base_seed"),
    ("repro.serving", "ServingReport", "cache_stats"),
    ("repro.scheduler", "heats", "warn_score_cache_ignored"),
]


@pytest.mark.parametrize(
    "module_name, owner, name",
    REMOVED_SERVING_SURFACE,
    ids=lambda value: str(value),
)
def test_removed_serving_surface_stays_removed(module_name, owner, name):
    holder = getattr(importlib.import_module(module_name), owner)
    assert not hasattr(holder, name), f"{owner}.{name} was removed in 1.5"
