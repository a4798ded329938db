"""A warning raised while a test runs fails that test, and every
Hypothesis test runs the same examples on every run.

The warning filter is set here, for the tests under this directory, and
not as ``filterwarnings`` in pyproject.toml: the pytest options there
also govern ``perfbench/selftest.py``, whose check of a diverging
``track`` expects the overflow warning that such a run prints.  Tests
set only their ``max_examples`` on top of the profile loaded here.
"""

import warnings

import pytest
from hypothesis import settings

settings.register_profile("voltrack", derandomize=True, deadline=None, database=None)
settings.load_profile("voltrack")


@pytest.fixture(autouse=True)
def warnings_are_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield
