"""Shared field fixtures.

Contexts are session-scoped: table construction is the expensive part and
every module reuses the same handful of small fields.
"""

import pytest

from semiswitch import build_field

import _scoreboard


def pytest_terminal_summary(terminalreporter):
    # acceptance scoreboard: one line per criterion, printed outside capture
    for line in _scoreboard.LINES:
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def f5():
    # the prime field itself, m = n = 1: every element is an F_p value
    return build_field(5, 1, 1)


@pytest.fixture(scope="session")
def f7():
    return build_field(7, 1, 1)


@pytest.fixture(scope="session")
def f4():
    # F_4 = F_2[w]/(w^2+w+1)
    return build_field(2, 1, 2, modulus=(1, 1, 1))


@pytest.fixture(scope="session")
def f8():
    return build_field(2, 1, 3)


@pytest.fixture(scope="session")
def f9():
    # deterministic scan picks X^2+1; i = code 3 is a root
    return build_field(3, 1, 2)


@pytest.fixture(scope="session")
def f16_q4():
    # F_16 viewed as F_4^2
    return build_field(2, 2, 2)


@pytest.fixture(scope="session")
def f27():
    return build_field(3, 1, 3)


@pytest.fixture(scope="session")
def f64_q4():
    # F_64 viewed as F_4^3 with the fixed modulus; its root is primitive
    return build_field(2, 2, 3, modulus=(1, 1, 0, 1, 1, 0, 1))


@pytest.fixture(scope="session")
def f81_n4():
    # F_81 viewed as F_3^4
    return build_field(3, 1, 4)


@pytest.fixture(scope="session")
def f81_q9():
    # F_81 viewed as F_9^2
    return build_field(3, 2, 2)
