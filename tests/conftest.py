"""Test-wide hypothesis settings and fixtures.

The profile is loaded before the test modules are imported, so every
``@settings`` in them inherits it and overrides only what it names.
``print_blob`` makes a falsifying example print a ``@reproduce_failure``
blob that replays it exactly.
"""

import sys

import pytest
from hypothesis import settings

from lumascore import ingest, photometry

settings.register_profile("lumascore", print_blob=True)
settings.load_profile("lumascore")


@pytest.fixture
def thread_count(monkeypatch):
    """Call with a count to have ``extract_curves`` measure on that many
    threads.  The test runs under a 1 us thread switch interval, which makes
    the threads interleave often."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield lambda count: monkeypatch.setattr(photometry, "_thread_count", lambda: count)
    finally:
        sys.setswitchinterval(interval)


@pytest.fixture
def run_bytes(monkeypatch):
    """Call with a byte count to have a Y4M file claimed in runs of frames
    spanning at most that many bytes, so that a small test film holds
    several runs."""
    return lambda count: monkeypatch.setattr(ingest, "_RUN_BYTES", count)
