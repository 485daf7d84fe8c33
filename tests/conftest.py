"""Suite-wide hypothesis settings.

Examples are derived from each test rather than drawn at random, and no
example database is kept, so every run checks the same examples.  Per-test
settings such as max_examples and deadline still apply on top of this
profile.
"""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


def pytest_configure(config):
    # hypothesis also caches the constants it reads from the source files
    # under its storage directory: keep that out of the working tree
    storage = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.add_cleanup(storage.cleanup)
    set_hypothesis_home_dir(storage.name)
