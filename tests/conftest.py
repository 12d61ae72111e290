"""Fixtures shared by the test modules."""
import sys

import pytest


@pytest.fixture
def digit_limit():
    """sys.set_int_max_str_digits, with the interpreter's limit restored
    after the test."""
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this interpreter has no int-to-str digit limit")
    old = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(old)
