from fractions import Fraction

import pytest

from qtetra.scalars import (
    MAX_EXPONENT,
    SYMBOLIC,
    ScalarError,
    SpecializationError,
    monic_parts,
    parse_text,
    specialized,
    to_text,
)

Q2 = specialized(2)


def test_q_int_small_values():
    assert SYMBOLIC.q_int(0) == SYMBOLIC.zero
    assert SYMBOLIC.q_int(1) == SYMBOLIC.one
    # [3]_q = (q^4 + q^2 + 1)/q^2, expanded by hand from (q^3-q^-3)/(q-q^-1)
    expected = SYMBOLIC.canonicalize({4: 1, 2: 1, 0: 1}, {2: 1})
    assert SYMBOLIC.q_int(3) == expected
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
    assert SYMBOLIC.canonicalize({2: 1, 0: -1}, {1: 1, 0: -1}) \
        == SYMBOLIC.q + 1
    # zero normal form
    z = SYMBOLIC.canonicalize(0, {5: 1})
    assert z == SYMBOLIC.zero
    assert not z
    # (2q)/4 and q/2 canonicalize identically
    assert SYMBOLIC.canonicalize({1: 2}, 4) == SYMBOLIC.canonicalize({1: 1}, 2)


def test_canonicalize_zero_denominator():
    with pytest.raises(ScalarError):
        SYMBOLIC.canonicalize(1, 0)


def test_monic_parts():
    num, den = monic_parts(SYMBOLIC.q_int(3))
    assert num == {4: 1, 2: 1, 0: 1}
    assert den == {2: 1}
    # q/2: monic scaling moves the 2 into the numerator coefficient
    num, den = monic_parts(SYMBOLIC.canonicalize({1: 2}, 4))
    assert num == {1: Fraction(1, 2)}
    assert den == {0: 1}


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
        ctx.canonicalize({3: -2, 0: 5}, {2: 1, 1: 1}),
        ctx.canonicalize({1: 1, 0: -1}, {1: 1, 0: 1}),
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
    s = SYMBOLIC.canonicalize(1, {1: 1, 0: -2})  # 1/(q - 2)
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
    s = SYMBOLIC.canonicalize({1: 1, 0: -1}, {1: 1, 0: 1})
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
