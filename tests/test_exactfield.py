import math

import pytest

from stratisolve.exactfield import (
    Mat3,
    RealCyclotomicField,
    cyclotomic_polynomial,
    minimal_polynomial,
)


def _evaluate(F, a) -> float:
    """A field element as a float, with theta = 2cos(pi/L)."""
    theta = 2.0 * math.cos(math.pi / F.L)
    return sum(float(c) * theta**i for i, c in enumerate(a))


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


@pytest.mark.parametrize("L", [2, 3, 4, 5, 6, 7, 10, 12, 30])
def test_minimal_polynomial_kills_two_cos(L):
    poly = minimal_polynomial(L)
    x = 2 * math.cos(math.pi / L)
    val = sum(c * x**i for i, c in enumerate(poly))
    assert abs(val) < 1e-9
    assert poly[-1] == 1  # monic


@pytest.mark.parametrize("L", [2, 3, 5, 7, 12, 30])
def test_field_arithmetic(L):
    F = RealCyclotomicField(L)
    th = F.theta()
    # theta = 2 cos(pi/L) numerically
    assert abs(_evaluate(F, th) - 2 * math.cos(math.pi / L)) < 1e-9
    # ring laws on a few elements
    a = F.add(F.mul(th, th), F.from_int(-3))
    b = F.sub(th, F.one())
    assert F.mul(a, b) == F.mul(b, a)
    assert F.is_zero(F.sub(a, a))
    assert F.mul(a, F.one()) == a
    assert F.is_zero(F.mul(a, F.zero()))


def test_two_cos_pi_over_divisors():
    F = RealCyclotomicField(30)
    for k in (2, 3, 5, 6, 10, 15, 30):
        x = F.two_cos_pi_over(k)
        assert abs(_evaluate(F, x) - 2 * math.cos(math.pi / k)) < 1e-9


def test_exact_zero_detection():
    # 2cos(pi/5) satisfies x^2 - x - 1 = 0 exactly in Q(2cos(pi/5))
    F = RealCyclotomicField(5)
    th = F.theta()
    val = F.sub(F.sub(F.mul(th, th), th), F.one())
    assert F.is_zero(val)


def test_mat3_rotation_order():
    # rotation by 2*pi/5 in the plane has order 5; embed via exact 2cos values
    F = RealCyclotomicField(5)
    c = F.two_cos_pi_over(5)  # 2 cos(pi/5)
    # companion-style matrix of x -> (2cos(2pi/5)) x is awkward; instead use
    # the standard reflection product check: r = A*B with A, B involutions.
    one, zero = F.one(), F.zero()
    A = Mat3(F, [[F.neg(one), c, zero], [zero, one, zero], [zero, zero, one]])
    B = Mat3(F, [[one, zero, zero], [c, F.neg(one), zero], [zero, zero, one]])
    assert (A * A).is_identity()
    assert (B * B).is_identity()
    R = A * B
    assert not R.is_identity()
    assert R.pow(5).is_identity()
    for k in range(1, 5):
        assert not R.pow(k).is_identity()


def test_mat3_pow_edge_cases():
    F = RealCyclotomicField(3)
    c = F.two_cos_pi_over(3)
    one, zero = F.one(), F.zero()
    A = Mat3(F, [[F.neg(one), c, zero], [zero, one, zero], [zero, zero, one]])
    assert A.pow(0).is_identity()
    assert A.pow(2) == A * A
    with pytest.raises(ValueError):
        A.pow(-1)
