"""Constructors for concrete modules over the presented algebras.

The chain of constructions:

* a highest-weight ladder gives Chevalley-style matrices K, K^-1, e^+, e^-
  of size d+1 (``StandardUqData``);
* the equitable substitution x = K, y = K^-1 + e^-,
  z = K^-1 - K^-1 e^+ q(q - q^-1)^2 turns the ladder into a module for the
  equitable presentation (``uqsl2_equitable_module``);
* an evaluation parameter t produces a second Chevalley family
  K_0 = K^-1, e_0^+ = t e^-, e_0^- = t^-1 e^+, and applying the equitable
  substitution to both families yields a six-generator loop module
  (``evaluation_module``);
* loop modules tensor through the comultiplication
  Delta(K) = K (x) K, Delta(e^+) = e^+ (x) 1 + K (x) e^+,
  Delta(e^-) = e^- (x) K^-1 + 1 (x) e^-, applied family by family before
  the equitable substitution (``tensor_modules``);
* the matrices of y1 and y0 form a pair satisfying the two cubic q-Serre
  relations (``aq_pair_of``); such pairs are the reconstruction input.

Every constructor's output is certified by ``check_representation``; the
builders raise if a construction ever fails its own relations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from qtetra.exactla import ExactMatrix
from qtetra.presentations import LOOP_EQ, UQSL2_EQ, check_representation
from qtetra.scalars import SYMBOLIC, FieldContext


class RepError(ValueError):
    """Invalid construction parameters or a failed self-check."""


@dataclass(frozen=True)
class StandardUqData:
    """Chevalley-style ladder matrices for highest weight d (size d+1)."""

    d: int
    K: ExactMatrix
    K_inv: ExactMatrix
    e_plus: ExactMatrix
    e_minus: ExactMatrix


@dataclass(frozen=True)
class EvaluationParams:
    """Evaluation-module parameters: highest weight d and parameter t.

    ``t`` may be anything the field context coerces (int, Fraction, scalar
    text, or a field element); it must be nonzero.
    """

    d: int
    t: object = 1


@dataclass
class MatrixRep:
    """A concrete module: one square matrix per generator label.

    ``provenance`` is a JSON-ready description of how the module was built.
    ``aux`` carries non-serialized construction data; builders that start
    from ladders store per-family Chevalley matrices there so that tensor
    products can be formed later.
    """

    algebra_id: str
    ctx: FieldContext
    gens: dict
    provenance: dict = field(default_factory=dict)
    aux: dict = field(default_factory=dict)

    @property
    def dimension(self) -> int:
        return next(iter(self.gens.values())).rows

    def check(self):
        return check_representation(self.algebra_id, self.gens)


def certify(rep: MatrixRep, error: type = RepError) -> MatrixRep:
    """``rep`` itself once every relation holds on it; else raise ``error``."""
    report = rep.check()
    if not report.passed:
        kind = rep.provenance.get('kind')
        named = f'{kind} ' if isinstance(kind, str) else ''
        raise error(f'{named}{rep.algebra_id} module fails relations: '
                    f'{list(report.failing)}')
    return rep


def standard_uq_data(ctx: FieldContext, d: int) -> StandardUqData:
    """The (d+1)-dimensional ladder: K v_n = q^(d-2n) v_n,
    e^+ v_n = [n] v_(n-1), e^- v_n = [d-n] v_(n+1)."""
    if d < 0:
        raise RepError('highest weight d must be nonnegative')
    size = d + 1
    K = ExactMatrix.diagonal(ctx, [ctx.q_power(d - 2 * n)
                                   for n in range(size)])
    K_inv = ExactMatrix.diagonal(ctx, [ctx.q_power(2 * n - d)
                                       for n in range(size)])
    ep = ExactMatrix.zeros(ctx, size)
    em = ExactMatrix.zeros(ctx, size)
    for n in range(1, size):
        ep.data[n - 1][n] = ctx.q_int(n)
    for n in range(size - 1):
        em.data[n + 1][n] = ctx.q_int(d - n)
    return StandardUqData(d, K, K_inv, ep, em)


def _equitable_triple(ctx, K, K_inv, ep, em):
    """x = K, y = K^-1 + e^-, z = K^-1 - K^-1 e^+ q(q-q^-1)^2."""
    w = ctx.q_power(1) - ctx.q_power(-1)
    y = K_inv + em
    z = K_inv - (K_inv * ep).scale(ctx.q_power(1) * w * w)
    return K, y, z


def uqsl2_equitable_module(d: int, ctx: FieldContext = SYMBOLIC) -> MatrixRep:
    """The (d+1)-dimensional equitable module on generators x, x_inv, y, z."""
    data = standard_uq_data(ctx, d)
    x, y, z = _equitable_triple(ctx, data.K, data.K_inv,
                                data.e_plus, data.e_minus)
    rep = MatrixRep(
        UQSL2_EQ, ctx,
        {'x': x, 'x_inv': data.K_inv, 'y': y, 'z': z},
        provenance={'kind': 'uqsl2_equitable', 'd': d},
        aux={'chevalley': data})
    return certify(rep)


def _loop_from_families(ctx, families, provenance) -> MatrixRep:
    """Apply the equitable substitution to both Chevalley families."""
    gens = {}
    for i in (0, 1):
        K, K_inv, ep, em = families[i]
        x, y, z = _equitable_triple(ctx, K, K_inv, ep, em)
        gens[f'x{i}'] = x
        gens[f'y{i}'] = y
        gens[f'z{i}'] = z
    rep = MatrixRep(LOOP_EQ, ctx, gens, provenance=provenance,
                    aux={'families': families})
    return certify(rep)


def evaluation_module(params: EvaluationParams,
                      ctx: FieldContext = SYMBOLIC) -> MatrixRep:
    """Loop module from one ladder and an evaluation parameter t.

    Family 1 is the ladder itself; family 0 applies the substitution
    K_0 = K^-1, e_0^+ = t e^-, e_0^- = t^-1 e^+.
    """
    t = ctx.coerce(params.t)
    if not t:
        raise RepError('evaluation parameter t must be nonzero')
    data = standard_uq_data(ctx, params.d)
    t_inv = ctx.one / t
    families = {
        1: (data.K, data.K_inv, data.e_plus, data.e_minus),
        0: (data.K_inv, data.K, data.e_minus.scale(t),
            data.e_plus.scale(t_inv)),
    }
    provenance = {'kind': 'evaluation', 'd': params.d, 't': ctx.to_text(t)}
    return _loop_from_families(ctx, families, provenance)


def _tensor_family(ident_a, ident_b, fam_a, fam_b):
    """Comultiplication on one Chevalley family, a-index major."""
    Ka, Ka_inv, epa, ema = fam_a
    Kb, Kb_inv, epb, emb = fam_b
    K = Ka.kron(Kb)
    K_inv = Ka_inv.kron(Kb_inv)
    ep = epa.kron(ident_b) + Ka.kron(epb)
    em = ema.kron(Kb_inv) + ident_a.kron(emb)
    return K, K_inv, ep, em


def tensor_modules(a: MatrixRep, b: MatrixRep) -> MatrixRep:
    """Tensor product of two loop modules carrying Chevalley data."""
    for rep in (a, b):
        if rep.algebra_id != LOOP_EQ:
            raise RepError('tensor factors must be loop modules')
        if 'families' not in rep.aux:
            raise RepError('tensor factor lacks Chevalley data')
    if a.ctx != b.ctx:
        raise RepError('tensor factors use different field contexts')
    ctx = a.ctx
    ident_a = ExactMatrix.identity(ctx, a.dimension)
    ident_b = ExactMatrix.identity(ctx, b.dimension)
    families = {
        i: _tensor_family(ident_a, ident_b,
                          a.aux['families'][i], b.aux['families'][i])
        for i in (0, 1)
    }
    provenance = {'kind': 'tensor',
                  'factors': [a.provenance, b.provenance]}
    return _loop_from_families(ctx, families, provenance)


def aq_pair_of(m: MatrixRep) -> tuple:
    """The (X, Y) pair of a loop module: the matrices of y1 and y0.

    Under the embedding of the loop algebra that sends y1 and y0 to the
    generators x01 and x23, this pair carries exactly the information the
    reconstruction pipeline consumes; the two cubic q-Serre relations for
    the pair are among the loop relations, so they hold automatically.
    """
    if m.algebra_id != LOOP_EQ:
        raise RepError('pair extraction requires a loop module')
    return m.gens['y1'], m.gens['y0']
