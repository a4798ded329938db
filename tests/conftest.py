"""A warning raised while a test runs fails that test.

This is set here, for the tests under this directory, and not as
``filterwarnings`` in pyproject.toml: the pytest options there also
govern ``perfbench/selftest.py``, whose check of a diverging ``track``
expects the overflow warning that such a run prints.
"""

import warnings

import pytest


@pytest.fixture(autouse=True)
def warnings_are_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield
