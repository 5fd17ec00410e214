import random
from datetime import timedelta
from pathlib import Path

import pytest
import sympy as sp
from hypothesis import settings

from fwdflat import symcore
from fwdflat.sysfile import parse_system_file

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# every run draws the same examples, and keeps no example database
settings.register_profile("fwdflat", derandomize=True,
                          deadline=timedelta(seconds=30), database=None)
settings.load_profile("fwdflat")


@pytest.fixture(autouse=True)
def _fresh_session():
    symcore.configure(seed=0, samples=8)
    yield


@pytest.fixture(scope="session")
def running():
    return parse_system_file(FIXTURES / "running.sys")


@pytest.fixture(scope="session")
def academic():
    return parse_system_file(FIXTURES / "academic.sys")


@pytest.fixture(scope="session")
def vtol():
    return parse_system_file(FIXTURES / "vtol.sys")


@pytest.fixture(scope="session")
def nonflat():
    return parse_system_file(FIXTURES / "nonflat.sys")


def random_poly(rng: random.Random, syms, max_terms=3, max_coeff=4, max_deg=2):
    """Small random polynomial over the given sympy symbols."""
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        c = rng.randint(-max_coeff, max_coeff)
        if c == 0:
            c = 1
        t = sp.Integer(c)
        for _ in range(rng.randint(0, max_deg)):
            t *= rng.choice(syms)
        terms.append(t)
    e = sp.Add(*terms)
    return e if e != 0 else sp.Integer(1)
