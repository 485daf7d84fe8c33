"""Suite-wide hypothesis settings, and the suite's relation helpers.

Examples are derived from each test rather than drawn at random, and no
example database is kept, so every run checks the same examples.  Per-test
settings such as max_examples and deadline still apply on top of this
profile.  Tests import bools and packed from here (`from conftest import
...`): a graph holds no bool array, so the suite reads a graph's bools
through bools alone.
"""

import importlib
import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from ordtop.preorder import _pack_rows, _unpack_rows

settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


def pytest_configure(config):
    # hypothesis also caches the constants it reads from the source files
    # under its storage directory: keep that out of the working tree
    storage = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.add_cleanup(storage.cleanup)
    set_hypothesis_home_dir(storage.name)


def bools(graph):
    """A graph's relation as a new n x n bool array, unpacked from its
    words."""
    return _unpack_rows(graph.packed, graph.n)


def packed(rel):
    """Bool rows as the packed '<u8' rows that validation gathers."""
    return _pack_rows(rel, -(-rel.shape[1] // 64))


@pytest.fixture
def unpacks(monkeypatch):
    """The '<u8' arrays that the package's modules pass _unpack_rows from
    here on, in call order (bools' own calls are not among them)."""
    calls = []

    def counting(packed, n):
        calls.append(packed)
        return _unpack_rows(packed, n)

    for name in ("preorder", "catalog", "compactify"):
        monkeypatch.setattr(importlib.import_module(f"ordtop.{name}"),
                            "_unpack_rows", counting)
    return calls
