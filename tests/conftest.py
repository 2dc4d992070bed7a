"""Test-wide hypothesis settings.

The profile is loaded before the test modules are imported, so every
``@settings`` in them inherits it and overrides only what it names.
``print_blob`` makes a falsifying example print a ``@reproduce_failure``
blob that replays it exactly.
"""

from hypothesis import settings

settings.register_profile("lumascore", print_blob=True)
settings.load_profile("lumascore")
