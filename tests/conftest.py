import sys

import pytest

from twistdet import IntegersMod, RationalField, SeriesRing
from twistdet import matrices as matrices_module
from twistdet import rings as rings_module
from twistdet import series as series_module
from twistdet.selftest import REGISTRY, free_yz, m2_swap, m2_two_twists, qc2, qc4_inv


@pytest.fixture
def qq():
    return RationalField()


@pytest.fixture
def z6():
    return IntegersMod(6)


@pytest.fixture
def eliminations(monkeypatch):
    """A list that gets the rows of each `rings.fraction_free` call, the one
    elimination behind every inverse and invertibility test."""
    calls = []
    eliminate = rings_module.fraction_free

    def counted(rows):
        calls.append(rows)
        return eliminate(rows)
    monkeypatch.setattr(rings_module, "fraction_free", counted)
    return calls


@pytest.fixture
def kernel_calls(monkeypatch):
    """A list that gets ("product", sums) for each call of the product kernel
    `series.sums_of_products` (through series.py's name for it and through
    the one matrices.py imports), ("solve", q) for each solve pass of an
    inverse, `series._solve`, with the kernel rows of its n*n entries q
    (one list per entry, shortest first, each vector scaled as a left row),
    and ("power", theta) for each power-sum pass of a log or exp,
    `series._power_sum`, whose every Horner step has theta as its right
    operand."""
    calls = []
    kernel, solve, power = (series_module.sums_of_products, series_module._solve,
                            series_module._power_sum)

    def product(R, sums, *args, **kwargs):
        calls.append(("product", sums))
        return kernel(R, sums, *args, **kwargs)

    def solved(R, q, *args):
        calls.append(("solve", q))
        return solve(R, q, *args)

    def powered(theta, coeff):
        calls.append(("power", theta))
        return power(theta, coeff)
    monkeypatch.setattr(series_module, "sums_of_products", product)
    monkeypatch.setattr(matrices_module, "sums_of_products", product)
    monkeypatch.setattr(series_module, "_solve", solved)
    monkeypatch.setattr(series_module, "_power_sum", powered)
    return calls


m2 = pytest.fixture(m2_swap, name="m2")
qc2 = pytest.fixture(qc2, name="qc2")
qc4 = pytest.fixture(qc4_inv, name="qc4")
free_yz = pytest.fixture(free_yz, name="free_yz")
m2_two_twists = pytest.fixture(m2_two_twists, name="m2_two_twists")


def one_letter(coeff, order, twist=None):
    tw = {"x": twist} if twist else None
    return SeriesRing(coeff, alphabet=("x",), twist=tw, order=order)


def two_letter(coeff, order, twist=None):
    return SeriesRing(coeff, alphabet=("x", "y"), twist=twist, order=order)


# -- the property registry in tier-1 (tests/test_properties.py) ----------------------

SEED, ORDER = 42, 4
# requested trials per check, as `twistdet selftest --trials` takes them
TRIALS = {"ring-axioms": 20, "ldu-recompose": 18, "ldu-unique": 18, "mat-inverse": 20,
          "dieudonne-vs-cofactor": 32, "whitehead-2x2": 16, "rearrange-inverses": 16,
          "vaserstein": 16, "annihilation": 5, "additivity": 6,
          "commutator-inclusion": 12, "det-multiplicative-mod-C": 24,
          "det-cyclic-symmetry": 32, "endo-additivity": 48, "inverse-roundtrip": 18,
          "w1-additivity": 8, "series-inverse": 10, "log-exp-roundtrip": 8,
          "product-associative": 5, "parse-render-roundtrip": 10}


def tier1_trials(check):
    return TRIALS.get(check.prop, 10)


def _draws(check, shape):
    count = check.trials(tier1_trials(check))
    if shape is None:
        return count
    return sum(check.shapes[i % len(check.shapes)] == shape for i in range(count))


def _contains(big, small):
    # small is a subring of big: same coefficients, its letters (with their
    # twists) come first in big, and big is truncated no lower
    if isinstance(big, tuple):
        return any(_contains(ring, small) for ring in big)
    if not isinstance(small, SeriesRing):
        return big == small
    return (isinstance(big, SeriesRing) and big.coeff == small.coeff
            and big.twist_names[:len(small.alphabet)] == small.twist_names
            and big.letters_commute == small.letters_commute
            and big.order >= small.order)


def assert_folded(prop, rings, trials, shapes=(None,)):
    """A randomized test of this name now lives in the registry as `prop`:
    tier-1 must still draw `trials` samples of each shape over each ring."""
    for ring in rings:
        for shape in shapes:
            assert any(_contains(c.build(max(ORDER, c.min_order)), ring)
                       and _draws(c, shape) >= trials
                       for c in REGISTRY if c.prop == prop), (prop, ring, shape)


def pytest_terminal_summary(terminalreporter):
    mod = sys.modules.get("test_acceptance")
    if mod and getattr(mod, "VERDICTS", None):
        terminalreporter.section("acceptance criteria")
        for line in mod.VERDICTS:
            terminalreporter.write_line(line)
