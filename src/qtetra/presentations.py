"""Relation sets for the four presented algebras, plus the exact checker.

A relation is a formal linear combination of words in generator labels that
must evaluate to the zero matrix on any valid representation.  The four
algebras:

* ``BOXQ`` -- the q-tetrahedron algebra on the eight generators x_ij,
  i,j in Z_4 with j-i in {1,2}: four inverse relations between x_{i,i+2}
  and x_{i+2,i}, twelve q-Weyl relations, four cubic q-Serre relations.
* ``UQSL2_EQ`` -- the equitable presentation of U_q(sl2) on x, x^-1, y, z.
* ``LOOP_EQ`` -- the equitable presentation of the U_q(sl2) loop algebra on
  x_i, y_i, z_i for i in {0,1}.  A single relation x0*x1 = 1 carries both
  inverse orders (AB = I forces BA = I for square matrices).
* ``AQ`` -- the algebra on x, y with the two cubic q-Serre relations.

Relations are emitted in the displayed normalization (the q-Weyl relations
divide by q - q^-1, which is exact in the field), so residuals match the
usual form of the relations verbatim.  Relation identifiers are stable
strings such as ``boxq.weyl.h0.p11`` meant for reports and golden tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from qtetra.exactla import ExactMatrix
from qtetra.scalars import SYMBOLIC, FieldContext

BOXQ = 'BOXQ'
UQSL2_EQ = 'UQSL2_EQ'
LOOP_EQ = 'LOOP_EQ'
AQ = 'AQ'

GENERATORS = {
    BOXQ: ('x01', 'x12', 'x23', 'x30', 'x02', 'x13', 'x20', 'x31'),
    UQSL2_EQ: ('x', 'x_inv', 'y', 'z'),
    LOOP_EQ: ('x0', 'x1', 'y0', 'y1', 'z0', 'z1'),
    AQ: ('x', 'y'),
}

class PresentationError(ValueError):
    """Unknown algebra, missing generator, or malformed assignment."""


def require_boxq(mod, error) -> None:
    """Raise ``error(message)`` unless ``mod`` is a module for the
    eight-generator algebra; ``error`` builds the caller's exception."""
    if mod.algebra_id != BOXQ:
        raise error(f'need a {BOXQ} module, got {mod.algebra_id}')


def boxq_label(i: int, j: int) -> str:
    return f'x{i % 4}{j % 4}'


def boxq_indices(label: str) -> tuple[int, int]:
    return int(label[1]), int(label[2])


def rho_label(label: str, n: int = 1) -> str:
    """The automorphism rho on labels: x_ij -> x_{i+n,j+n} (indices mod 4)."""
    i, j = boxq_indices(label)
    return boxq_label(i + n, j + n)


_OMEGA = {
    'x01': 'x01', 'x12': 'x30', 'x23': 'x23', 'x30': 'x12',
    'x02': 'x31', 'x13': 'x20', 'x20': 'x13', 'x31': 'x02',
}


def omega_label(label: str) -> str:
    """The antiautomorphism omega on labels (an involution)."""
    return _OMEGA[label]


@dataclass(frozen=True)
class RelationWord:
    """One relation: sum of coefficient-weighted words equals zero.

    ``terms`` holds (coefficient, word) pairs, a word being a tuple of
    generator labels; the empty word stands for the identity.
    """

    rel_id: str
    terms: tuple


def _inverse(ctx, rel_id, a, b):
    return RelationWord(rel_id, ((ctx.one, (a, b)), (-ctx.one, ())))


def _weyl(ctx, rel_id, a, b):
    """(q*a*b - q^-1*b*a)/(q - q^-1) - 1 = 0."""
    denom = ctx.q_power(1) - ctx.q_power(-1)
    return RelationWord(rel_id, (
        (ctx.q_power(1) / denom, (a, b)),
        (-ctx.q_power(-1) / denom, (b, a)),
        (-ctx.one, ()),
    ))


def _serre(ctx, rel_id, a, b):
    """a^3 b - [3]_q a^2 b a + [3]_q a b a^2 - b a^3 = 0."""
    three = ctx.q_int(3)
    return RelationWord(rel_id, (
        (ctx.one, (a, a, a, b)),
        (-three, (a, a, b, a)),
        (three, (a, b, a, a)),
        (-ctx.one, (b, a, a, a)),
    ))


def _boxq_relations(ctx):
    rels = []
    for i, j in ((0, 2), (2, 0), (1, 3), (3, 1)):
        rels.append(_inverse(ctx, f'boxq.inv.{i}{j}',
                             boxq_label(i, j), boxq_label(j, i)))
    for h in range(4):
        # (i-h, j-i) patterns (1,1), (1,2), (2,1) from the defining relations
        for pat, (a, b) in (
            ('11', (boxq_label(h, h + 1), boxq_label(h + 1, h + 2))),
            ('12', (boxq_label(h, h + 1), boxq_label(h + 1, h + 3))),
            ('21', (boxq_label(h, h + 2), boxq_label(h + 2, h + 3))),
        ):
            rels.append(_weyl(ctx, f'boxq.weyl.h{h}.p{pat}', a, b))
    for h in range(4):
        rels.append(_serre(ctx, f'boxq.serre.h{h}',
                           boxq_label(h, h + 1), boxq_label(h + 2, h + 3)))
    return rels


def _uqsl2_relations(ctx):
    return [
        _inverse(ctx, 'uq.inv.xxinv', 'x', 'x_inv'),
        _inverse(ctx, 'uq.inv.xinvx', 'x_inv', 'x'),
        _weyl(ctx, 'uq.weyl.xy', 'x', 'y'),
        _weyl(ctx, 'uq.weyl.yz', 'y', 'z'),
        _weyl(ctx, 'uq.weyl.zx', 'z', 'x'),
    ]


def _loop_relations(ctx):
    rels = [_inverse(ctx, 'loop.inv.x0x1', 'x0', 'x1')]
    for i in (0, 1):
        rels.append(_weyl(ctx, f'loop.weyl.xy.{i}', f'x{i}', f'y{i}'))
        rels.append(_weyl(ctx, f'loop.weyl.yz.{i}', f'y{i}', f'z{i}'))
        rels.append(_weyl(ctx, f'loop.weyl.zx.{i}', f'z{i}', f'x{i}'))
    for i, j in ((0, 1), (1, 0)):
        rels.append(_weyl(ctx, f'loop.weyl.zy.{i}{j}', f'z{i}', f'y{j}'))
    for i, j in ((0, 1), (1, 0)):
        rels.append(_serre(ctx, f'loop.serre.y.{i}{j}', f'y{i}', f'y{j}'))
    for i, j in ((0, 1), (1, 0)):
        rels.append(_serre(ctx, f'loop.serre.z.{i}{j}', f'z{i}', f'z{j}'))
    return rels


def _aq_relations(ctx):
    return [
        _serre(ctx, 'aq.serre.x', 'x', 'y'),
        _serre(ctx, 'aq.serre.y', 'y', 'x'),
    ]


_BUILDERS = {
    BOXQ: _boxq_relations,
    UQSL2_EQ: _uqsl2_relations,
    LOOP_EQ: _loop_relations,
    AQ: _aq_relations,
}


def relations(algebra_id: str, ctx: FieldContext = SYMBOLIC):
    """The defining relations of an algebra over the given context."""
    try:
        builder = _BUILDERS[algebra_id]
    except KeyError:
        raise PresentationError(f'unknown algebra {algebra_id!r}') from None
    return builder(ctx)


def _word_product(word, matrices, ident, cache):
    """Product of the word's matrices, sharing prefixes across relations."""
    if not word:
        return ident
    hit = cache.get(word)
    if hit is not None:
        return hit
    product = _word_product(word[:-1], matrices, ident, cache) \
        * matrices[word[-1]]
    cache[word] = product
    return product


def evaluate_relation(rel: RelationWord, matrices, cache=None) -> ExactMatrix:
    """The residual matrix of a relation on a generator assignment."""
    first = next(iter(matrices.values()))
    ctx, n = first.ctx, first.rows
    ident = ExactMatrix.identity(ctx, n)
    if cache is None:
        cache = {}
    residual = ExactMatrix.zeros(ctx, n)
    for coeff, word in rel.terms:
        residual = residual + _word_product(word, matrices, ident, cache) \
            .scale(coeff)
    return residual


def _residual_degree(residual: ExactMatrix):
    """Largest numerator/denominator degree over the nonzero entries."""
    if not residual.ctx.is_symbolic:
        return None
    best = None
    for row in residual.data:
        for e in row:
            if e:
                deg = max(int(e.numer.degree()), int(e.denom.degree()))
                best = deg if best is None else max(best, deg)
    return best


@dataclass(frozen=True)
class RelationResult:
    rel_id: str
    passed: bool
    residual_degree: int | None


@dataclass(frozen=True)
class CheckReport:
    """Per-relation residual verdicts for one generator assignment."""

    algebra_id: str
    dimension: int
    results: tuple

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def failing(self) -> tuple:
        return tuple(r.rel_id for r in self.results if not r.passed)

    def to_dict(self) -> dict:
        return {
            'algebra_id': self.algebra_id,
            'dimension': self.dimension,
            'passed': self.passed,
            'failing': list(self.failing),
            'relations': [
                {'id': r.rel_id, 'passed': r.passed,
                 'residual_degree': r.residual_degree}
                for r in self.results
            ],
        }


def check_representation(algebra_id: str, assignment) -> CheckReport:
    """Evaluate every defining relation on the given matrices.

    ``assignment`` maps each generator label of the algebra to a square
    matrix; all matrices must share the size and field context.
    """
    labels = GENERATORS.get(algebra_id)
    if labels is None:
        raise PresentationError(f'unknown algebra {algebra_id!r}')
    missing = [g for g in labels if g not in assignment]
    if missing:
        raise PresentationError(f'missing generator matrices: {missing}')
    extra = [g for g in assignment if g not in labels]
    if extra:
        raise PresentationError(f'unexpected generator labels: {extra}')
    first = assignment[labels[0]]
    ctx, n = first.ctx, first.rows
    for g in labels:
        m = assignment[g]
        if not m.is_square() or m.rows != n:
            raise PresentationError(
                f'generator {g} must be square of size {n}')
        if m.ctx != ctx:
            raise PresentationError('mixed field contexts in assignment')
    cache = {}
    results = []
    for rel in relations(algebra_id, ctx):
        residual = evaluate_relation(rel, assignment, cache)
        passed = residual.is_zero()
        results.append(RelationResult(
            rel.rel_id, passed,
            None if passed else _residual_degree(residual)))
    return CheckReport(algebra_id, n, tuple(results))
