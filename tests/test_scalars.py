from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtetra.scalars import (
    MAX_EXPONENT,
    SYMBOLIC,
    ScalarError,
    SpecializationError,
    parse_text,
    specialized,
    to_text,
)

Q2 = specialized(2)


def test_q_int_small_values():
    assert SYMBOLIC.q_int(0) == SYMBOLIC.zero
    assert SYMBOLIC.q_int(1) == SYMBOLIC.one
    # [3]_q = (q^4 + q^2 + 1)/q^2, expanded by hand from (q^3-q^-3)/(q-q^-1)
    q = SYMBOLIC.q
    assert SYMBOLIC.q_int(3) == (q ** 4 + q ** 2 + 1) / q ** 2
    assert to_text(SYMBOLIC.q_int(3)) == '(q^4 + q^2 + 1)/(q^2)'


def test_q_int_defining_identity():
    q = SYMBOLIC.q
    for n in range(21):
        lhs = SYMBOLIC.q_int(n) * (q - 1 / q)
        assert lhs == SYMBOLIC.q_power(n) - SYMBOLIC.q_power(-n)


def test_q_int_rejects_negative():
    with pytest.raises(ScalarError):
        SYMBOLIC.q_int(-1)


def test_canonicalize_examples():
    # (q^2 - 1)/(q - 1) = q + 1
    assert parse_text('(q^2 - 1)/(q - 1)') == SYMBOLIC.q + 1
    # zero normal form
    z = parse_text('(0)/(q^5)')
    assert z == SYMBOLIC.zero
    assert not z
    assert to_text(z) == '0'
    # (2q)/4 and q/2 have one normal form, with integral coefficients
    assert parse_text('(2*q)/(4)') == parse_text('(q)/(2)') == SYMBOLIC.q / 2
    assert to_text(parse_text('(2*q)/(4)')) == '(q)/(2)'


def test_canonicalize_zero_denominator():
    with pytest.raises(ScalarError):
        parse_text('(1)/(0)')
    with pytest.raises(ScalarError):
        Q2.parse('1/0')


def _sample_scalars():
    ctx = SYMBOLIC
    q = ctx.q
    return [
        ctx.zero,
        ctx.one,
        q,
        1 / q,
        q + 1,
        ctx.q_int(3),
        (-2 * q ** 3 + 5) / (q ** 2 + q),
        (q - 1) / (q + 1),
        ctx.from_rational(Fraction(-7, 3)),
    ]


def test_field_axioms_on_samples():
    samples = _sample_scalars()
    one = SYMBOLIC.one
    for a in samples:
        for b in samples:
            assert a + b == b + a
            assert a * b == b * a
            for c in samples:
                assert a * (b + c) == a * b + a * c
                assert (a + b) + c == a + (b + c)
        if a:
            assert a * (one / a) == one


def test_specialize_examples():
    assert Q2.specialize(SYMBOLIC.q_int(3)) == Fraction(21, 4)
    assert specialized(5).specialize(SYMBOLIC.zero) == 0
    assert specialized(-2).specialize(SYMBOLIC.q + 1) == -1


def test_specialize_is_homomorphism():
    samples = _sample_scalars()
    for a in samples:
        for b in samples:
            assert Q2.specialize(a * b) == Q2.specialize(a) * Q2.specialize(b)
            assert Q2.specialize(a + b) == Q2.specialize(a) + Q2.specialize(b)


def test_specialize_vanishing_denominator():
    s = 1 / (SYMBOLIC.q - 2)
    with pytest.raises(SpecializationError) as err:
        Q2.specialize(s)
    assert 'q - 2' in str(err.value)


def test_specialized_context_validation():
    for bad in (0, 1, -1):
        with pytest.raises(ScalarError):
            specialized(bad)
    assert specialized(Fraction(2, 3)).q_value == Fraction(2, 3)


def test_text_round_trip():
    for s in _sample_scalars():
        text = to_text(s)
        assert parse_text(text) == s
        assert to_text(parse_text(text)) == text


def test_text_fixed_forms():
    assert to_text(SYMBOLIC.zero) == '0'
    assert to_text(SYMBOLIC.one) == '1'
    assert to_text(SYMBOLIC.q_power(-1)) == '(1)/(q)'
    assert to_text(2 * SYMBOLIC.q ** 3 - 1) == '2*q^3 - 1'
    s = (SYMBOLIC.q - 1) / (SYMBOLIC.q + 1)
    # -(q - 1)/(q + 1) normalizes with the sign inside the numerator
    assert to_text(-s) == '(-q + 1)/(q + 1)'
    assert parse_text('-(q - 1)/(q + 1)') == -s


def test_parse_tolerates_tight_spacing():
    assert parse_text('q+1') == SYMBOLIC.q + 1
    assert parse_text('(q^4+q^2+1)/(q^2)') == SYMBOLIC.q_int(3)


def test_parse_rejects_junk():
    for bad in ('q +', '3..', '(q', 'x + 1', '(q)/(0)', 'q^', '1/(q)'):
        with pytest.raises(ScalarError):
            parse_text(bad)


def test_parse_bounds_exponents():
    assert parse_text(f'q^{MAX_EXPONENT}') == SYMBOLIC.q ** MAX_EXPONENT
    for bad in (f'q^{MAX_EXPONENT + 1}', f'(1)/(q^{MAX_EXPONENT + 1})',
                'q^1000000'):
        with pytest.raises(ScalarError):
            parse_text(bad)


def test_specialized_context_text():
    val = Q2.specialize(SYMBOLIC.q_int(3))
    assert Q2.to_text(val) == '21/4'
    assert Q2.parse('21/4') == val
    with pytest.raises(ScalarError):
        Q2.parse('q + 1')


def test_specialized_arithmetic_matches_symbolic():
    # the context operators work uniformly in both modes
    for ctx in (SYMBOLIC, Q2):
        assert ctx.q_power(-2) * ctx.q_power(2) == ctx.one
        assert ctx.q_int(2) == ctx.q_power(1) + ctx.q_power(-1)


def test_specialized_literals_are_integers_decimals_or_ratios():
    assert Q2.parse('-3/4') == Fraction(-3, 4)
    assert Q2.parse(' 2.5 ') == Fraction(5, 2)
    assert specialized('3/2').q_value == Fraction(3, 2)
    # exponent notation would let the cost of a read grow with the exponent
    for bad in ('1e5', '2E-3', '1e2000000', '1.5e1'):
        with pytest.raises(ScalarError, match='exponent'):
            Q2.parse(bad)
        with pytest.raises(ScalarError, match='exponent'):
            specialized(bad)


def test_overlong_integer_literal_is_a_scalar_error():
    digits = '7' * 5000      # above Python's integer-string limit
    for ctx in (SYMBOLIC, Q2):
        with pytest.raises(ScalarError):
            ctx.parse(digits)
    with pytest.raises(ScalarError):
        parse_text(f'{digits}*q + 1')


def _poly(q, coeffs):
    return sum((c * q ** k for k, c in enumerate(coeffs)), SYMBOLIC.zero)


SMALL_POLYS = st.lists(st.integers(min_value=-20, max_value=20),
                       min_size=1, max_size=5)


@settings(max_examples=60, deadline=None)
@given(SMALL_POLYS, SMALL_POLYS, st.integers(min_value=-4, max_value=4))
def test_text_round_trip_property(num, den, shift):
    q = SYMBOLIC.q
    if not any(den):
        den = [1]
    s = _poly(q, num) / _poly(q, den) * SYMBOLIC.q_power(shift)
    assert parse_text(to_text(s)) == s
