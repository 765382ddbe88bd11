"""Exact scalar arithmetic: the field Q(q) and its rational specializations.

All higher layers are generic over a ``FieldContext``, which comes in two
modes:

* ``symbolic`` -- elements are rational functions in the indeterminate q with
  rational coefficients.  We store them as sympy ``FracElement`` values from
  ``QQ.frac_field('q')``; sympy keeps them in a canonical normal form
  (numerator/denominator coprime, integer-primitive, denominator leading
  coefficient positive), so structural equality ``==`` is semantic equality.
  This mode is the ground truth everywhere.
* ``specialized`` -- q is pinned to a rational number that is not 0, 1 or -1
  (any other rational has infinite multiplicative order) and elements are
  plain ``fractions.Fraction`` values.  Useful as a fast cross-check; never
  the oracle.

Negative powers of q are ordinary field division, e.g. q^-3 is 1/q^3; there
is no separate Laurent representation.  The canonical text syntax (used by
every file format) is ``FieldContext.to_text`` / ``FieldContext.parse``.
A specialized literal is an integer, a plain decimal or 'a/b'; exponent
notation is rejected, so reading cost cannot grow with a written exponent.
"""

from __future__ import annotations

from fractions import Fraction

from sympy.polys.domains import QQ
from sympy.polys.fields import field

_FIELD, _Q = field('q', QQ)

SYMBOLIC_MODE = 'symbolic'
SPECIALIZED_MODE = 'specialized'
# Largest exponent of q in scalar text, so reading cost cannot grow with it;
# the highest qtetra writes itself is 49 (the reconstructed d = 5 x13).
MAX_EXPONENT = 1000


class ScalarError(ValueError):
    """Invalid scalar construction or arithmetic (e.g. zero denominator)."""


class SpecializationError(ScalarError):
    """A denominator vanished while evaluating at a specialized q."""


def _to_fraction(value) -> Fraction:
    """The one reader of rational literals: an int, a Fraction, or text."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if not isinstance(value, str):
        raise ScalarError(f'cannot interpret {value!r} as a rational number')
    if 'e' in value or 'E' in value:
        raise ScalarError(f'bad rational literal {value!r}: exponent '
                          f'notation is not accepted')
    try:
        return Fraction(value.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ScalarError(f'bad rational literal {value!r}: {exc}') from None


class FieldContext:
    """Arithmetic context for Q(q) (symbolic) or Q at a fixed q (specialized).

    Instances are immutable and safe to share.  ``zero``, ``one`` and ``q``
    are plain field elements of the backing representation; all arithmetic
    on elements uses the ordinary operators.
    """

    __slots__ = ('mode', 'q_value', 'zero', 'one', 'q')

    def __init__(self, mode: str = SYMBOLIC_MODE, q_value=None):
        if mode == SYMBOLIC_MODE:
            if q_value is not None:
                raise ScalarError('symbolic mode takes no q_value')
            object.__setattr__(self, 'zero', _FIELD(0))
            object.__setattr__(self, 'one', _FIELD(1))
            object.__setattr__(self, 'q', _Q)
        elif mode == SPECIALIZED_MODE:
            q_value = _to_fraction(q_value)
            if q_value in (0, 1, -1):
                raise ScalarError(
                    f'specialized q must avoid 0, 1, -1; got {q_value}')
            object.__setattr__(self, 'zero', Fraction(0))
            object.__setattr__(self, 'one', Fraction(1))
            object.__setattr__(self, 'q', q_value)
        else:
            raise ScalarError(f'unknown field mode {mode!r}')
        object.__setattr__(self, 'mode', mode)
        object.__setattr__(self, 'q_value',
                           q_value if mode == SPECIALIZED_MODE else None)

    def __setattr__(self, name, value):
        raise AttributeError('FieldContext is immutable')

    def __repr__(self):
        if self.mode == SYMBOLIC_MODE:
            return 'FieldContext(symbolic)'
        return f'FieldContext(specialized, q={self.q_value})'

    def __eq__(self, other):
        return (isinstance(other, FieldContext)
                and self.mode == other.mode and self.q_value == other.q_value)

    def __hash__(self):
        return hash((self.mode, self.q_value))

    @property
    def is_symbolic(self) -> bool:
        return self.mode == SYMBOLIC_MODE

    # -- constructors ------------------------------------------------------

    def q_power(self, k: int):
        """q^k for any integer k (negative powers via division)."""
        return self.q ** k if k >= 0 else self.one / self.q ** (-k)

    def q_int(self, n: int):
        """The q-integer [n]_q = (q^n - q^-n)/(q - q^-1); [0]_q = 0."""
        if n < 0:
            raise ScalarError(f'q_int needs n >= 0, got {n}')
        if n == 0:
            return self.zero
        num = self.q_power(n) - self.q_power(-n)
        return num / (self.q_power(1) - self.q_power(-1))

    def from_rational(self, value):
        """Embed a rational number (int, Fraction or 'a/b' string)."""
        c = _to_fraction(value)
        if self.is_symbolic:
            return _FIELD(QQ(c.numerator, c.denominator))
        return c

    def coerce(self, value):
        """Accept an element, rational, or canonical text as an element."""
        if isinstance(value, type(self.zero)):
            return value
        if isinstance(value, str):
            return self.parse(value)
        return self.from_rational(value)

    # -- specialization ----------------------------------------------------

    def specialize(self, s) -> Fraction:
        """Evaluate a symbolic scalar at this context's q (exact).

        Rationals pass through unchanged so specialized-mode values can be
        re-specialized harmlessly.
        """
        if self.is_symbolic:
            raise ScalarError('specialize requires a specialized context')
        if isinstance(s, (int, Fraction)):
            return _to_fraction(s)
        point = QQ(self.q_value.numerator, self.q_value.denominator)
        den = s.denom.evaluate(0, point)
        if not den:
            raise SpecializationError(
                f'denominator of {to_text(s)} vanishes at q = {self.q_value}')
        val = s.numer.evaluate(0, point) / den
        return Fraction(int(val.numerator), int(val.denominator))

    # -- text form ---------------------------------------------------------

    def to_text(self, s) -> str:
        if self.is_symbolic:
            return to_text(s)
        return str(_to_fraction(s))

    def parse(self, text: str):
        if self.is_symbolic:
            return parse_text(text)
        return _to_fraction(text)


SYMBOLIC = FieldContext(SYMBOLIC_MODE)


def specialized(q_value) -> FieldContext:
    return FieldContext(SPECIALIZED_MODE, q_value)


# -- canonical text: printer ----------------------------------------------

def _poly_text(p) -> str:
    """Render a PolyElement with integral coefficients, descending powers."""
    terms = sorted(((e[0], c) for e, c in p.terms()), reverse=True)
    if not terms:
        return '0'
    chunks = []
    for exp, coeff in terms:
        c = int(coeff)
        if exp == 0:
            body = str(abs(c))
        else:
            base = 'q' if exp == 1 else f'q^{exp}'
            body = base if abs(c) == 1 else f'{abs(c)}*{base}'
        if not chunks:
            chunks.append(('-' if c < 0 else '') + body)
        else:
            chunks.append((' - ' if c < 0 else ' + ') + body)
    return ''.join(chunks)


def to_text(s) -> str:
    """Canonical text of a symbolic scalar.

    Integer coefficients, '^' powers, descending exponents; a denominator
    other than 1 appears as '(num)/(den)'.
    """
    num = _poly_text(s.numer)
    if s.denom == 1:
        return num
    return f'({num})/({_poly_text(s.denom)})'


# -- canonical text: parser ------------------------------------------------

def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            try:
                tokens.append(('int', int(text[i:j])))
            except ValueError as exc:   # more digits than int() converts
                raise ScalarError(f'integer literal in scalar text: '
                                  f'{exc}') from None
            i = j
        elif ch == 'q':
            tokens.append(('q', None))
            i += 1
        elif ch in '+-*/^()':
            tokens.append((ch, None))
            i += 1
        else:
            raise ScalarError(f'unexpected character {ch!r} in scalar text')
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def take(self, kind=None):
        if self.pos >= len(self.tokens):
            raise ScalarError('unexpected end of scalar text')
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ScalarError(f'expected {kind!r}, found {tok[0]!r}')
        self.pos += 1
        return tok

    def parse_term(self):
        """One monomial: INT, INT*q^k, q^k, or q."""
        if self.peek() == 'int':
            coeff = self.take('int')[1]
            if self.peek() != '*':
                return _FIELD(coeff)
            self.take('*')
            self.take('q')
        elif self.peek() == 'q':
            coeff = 1
            self.take('q')
        else:
            raise ScalarError(f'expected a term, found {self.peek()!r}')
        exp = 1
        if self.peek() == '^':
            self.take('^')
            exp = self.take('int')[1]
            if exp > MAX_EXPONENT:
                raise ScalarError(f'exponent {exp} of q exceeds the bound '
                                  f'{MAX_EXPONENT}')
        return _FIELD(coeff) * _Q ** exp

    def parse_poly(self):
        sign = 1
        if self.peek() == '-':
            self.take('-')
            sign = -1
        acc = self.parse_term() * sign
        while self.peek() in ('+', '-'):
            op = self.take()[0]
            term = self.parse_term()
            acc = acc + term if op == '+' else acc - term
        return acc

    def parse_scalar(self):
        sign = 1
        if self.peek() == '-' and self.tokens[self.pos + 1:self.pos + 2] \
                and self.tokens[self.pos + 1][0] == '(':
            self.take('-')
            sign = -1
        if self.peek() == '(':
            self.take('(')
            num = self.parse_poly()
            self.take(')')
            if self.peek() is None:
                return num * sign
            self.take('/')
            self.take('(')
            den = self.parse_poly()
            self.take(')')
            if not den:
                raise ScalarError('zero denominator in scalar text')
            return sign * num / den
        return sign * self.parse_poly()


def parse_text(text: str):
    """Parse the canonical scalar syntax back into a symbolic element.

    Inverse of ``to_text`` (bit-exact on its output); also tolerates
    missing whitespace and a leading minus in front of a fraction.
    """
    parser = _Parser(_tokenize(text))
    value = parser.parse_scalar()
    if parser.peek() is not None:
        raise ScalarError(f'trailing input in scalar text {text!r}')
    return value
