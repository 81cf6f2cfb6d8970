import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))


@pytest.hookimpl(wrapper=True)
def pytest_pyfunc_call(pyfuncitem):
    """Fail a test that hits the recursion limit at once.

    Reporting a ``RecursionError`` makes pytest compare the locals of its
    ~1,000 frames with each other, and when they hold deep formulas that
    takes minutes; the ``AssertionError`` raised instead has no such frames.
    """
    try:
        return (yield)
    except RecursionError as error:
        raise AssertionError(f"RecursionError: {error}") from None
