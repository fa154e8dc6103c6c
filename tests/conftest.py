import pytest

from circulant_elgamal import generate


@pytest.fixture(scope="session")
def params311():
    # the main desk-scale cell: group order divides 2^30 - 1
    return generate(3, 11, seed=7)


@pytest.fixture(scope="session")
def params15():
    return generate(1, 5, seed=7)


@pytest.fixture(scope="session")
def params4711_toy_budget():
    # 2^470 - 1 stays incomplete at budget 2^10, and A^D != 1 for the
    # certified divisor D of ord(A), so the order is not proven
    return generate(47, 11, seed=1, budget=1 << 10)
