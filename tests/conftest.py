"""Hypothesis runs derandomized with no example database, so each run of
the suite draws the same examples and leaves no ``.hypothesis/`` behind."""

from hypothesis import settings

settings.register_profile("suite", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("suite")
