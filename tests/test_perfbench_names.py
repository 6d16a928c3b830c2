"""Every library name the benchmark harness patches must exist.

perfbench/spans.py wraps library functions by (module, attribute) and reads
the sizes of module intern tables, and perfbench/child.py stubs the cli
functions that end a witness command's set-up.  A renamed or removed name
would otherwise surface only when a traced benchmark child dies on the
missing attribute.
"""

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PATCHED = [(module, attr) for module, attr, _ in _load("spans").WRAPPED]
PATCHED += [("cli", attr) for attr in _load("child").SETUP_ENDS]


@pytest.mark.parametrize("module,attr", PATCHED, ids=[f"{m}.{a}" for m, a in PATCHED])
def test_patched_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"treeharmonics.{module}"), attr, None))


# the module attributes Tracer.counters reads, e.g. modules["harmonic"]._FUNC_SPLITS
READ = sorted(set(re.findall(r'modules\["(\w+)"\]\.(\w+)', (PERFBENCH / "spans.py").read_text(encoding="utf-8"))))


def test_spans_reads_some_attribute():
    assert READ


@pytest.mark.parametrize("module,attr", READ, ids=[f"{m}.{a}" for m, a in READ])
def test_read_attribute_exists(module, attr):
    assert hasattr(importlib.import_module(f"treeharmonics.{module}"), attr)
