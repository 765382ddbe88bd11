"""The three workloads: the inputs each pass runs on and how to check them.

A workload is a list of pipelines.  A pipeline is a fixed list of
``qtetra`` command lines run on files in one work directory, and a check
that reads what they wrote.  Inputs are made from the seed before any
timing starts; the program only ever sees the files.

Why these inputs (the README has the full table):

* ``symbolic-analyze`` loads the symbolic ``FracElement`` arithmetic, the
  eigenspace kernels and ``analyze``'s type detections;
* ``q2-dualities`` stays at q = 2, so it bypasses symbolic arithmetic and
  nearly all of the analysis, and loads the transforms, their relation
  re-certification and the intertwiner solves;
* ``conjugated-pairs`` feeds dense conjugated pairs to ``reconstruct`` and
  carries the file parsing and early-exit rejection paths.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from sympy.polys.domains import QQ
from sympy.polys.fields import field as fraction_field

import checks as C

# Q(q): symbolic inputs are built over it with the builders of checks.py
QQ_Q, Q = fraction_field('q', QQ)

WORKLOADS = ('symbolic-analyze', 'q2-dualities', 'conjugated-pairs')


@dataclass(frozen=True)
class Op:
    """One command line and the outcome it must have.

    ``fault`` marks an operation the program gets wrong today on every
    run; it is counted as failed, and its expected outcome is the correct
    one.
    """

    argv: tuple
    rc: int = 0
    stage: str = ''
    fault: str = ''


@dataclass
class Pipeline:
    name: str
    ops: list
    check: object = None          # callable(work_dir) -> list of problems
    files: dict = field(default_factory=dict)   # name -> text written first
    # (pair file, its text, module file): an unconjugated pair that is
    # reconstructed once, before timing, for the check to compare against
    base: tuple = None


@dataclass
class Plan:
    pipelines: list
    largest: str                  # name of the pipeline on the largest input
    warmup: Pipeline


def _dump(blob) -> str:
    return json.dumps(blob, sort_keys=True, indent=2) + '\n'


def _points(rng) -> tuple:
    """Three distinct sample points a/b with a prime a: integer
    polynomials with small coefficients have no root there."""
    pts = set()
    while len(pts) < 3:
        pts.add(Fraction(rng.choice((11, 13, 17, 19, 23, 29)),
                         rng.choice((2, 3, 5, 7))))
    return tuple(sorted(pts))


def _path(work, name):
    return os.path.join(work, name)


# -- symbolic-analyze --------------------------------------------------------

def _evaluation_build(name, d, t, q=None):
    qargs = ('--q', q) if q else ()
    return [Op(('build', 'evaluation', '--d', str(d), '--t', t) + qargs
               + ('--out', f'{name}.ev.json'))]


def _module_pipeline(name, builds, points, tail, check_tail):
    """``builds`` (the last writes ``<name>.ev.json``) -> reconstruct ->
    the ``tail`` ops on the module.  The check covers the built module,
    the reconstruction and, through ``check_tail``, the tail's outputs."""
    ops = builds + [Op(('reconstruct', f'{name}.ev.json', '--out',
                        f'{name}.mod.json'))] + tail(name)

    def check(work):
        ev = C.load(_path(work, f'{name}.ev.json'))
        mod = C.load(_path(work, f'{name}.mod.json'))
        problems = C.check_loop_file(ev, points)
        problems += C.check_pair_reconstructed(
            mod, ev['field'], ev['generators']['y1'], ev['generators']['y0'],
            points)
        problems += C.check_boxq_file(mod, points)
        return problems + check_tail(work, mod)
    return Pipeline(name, ops, check)


def _no_check(_work, _mod):
    return []


def _analyze_tail(name):
    return [Op(('analyze', f'{name}.mod.json', '--format', 'json', '--out',
                f'{name}.an.json')),
            Op(('verify-relations', f'{name}.mod.json', '--format', 'json',
                '--out', f'{name}.vr.json'))]


def _analyze_check(name, d, shape):
    def check(work, _mod):
        return (C.check_analysis(C.load(_path(work, f'{name}.an.json')),
                                 d, shape)
                + C.check_verify_report(
                    C.load(_path(work, f'{name}.vr.json'))))
    return check


def symbolic_analyze(rng) -> Plan:
    points = _points(rng)
    pipes = []
    for d, t in ((1, '1'), (1, 'q'), (1, 'q + 1'), (2, 'q')):
        name = f'd{d}-t{t.replace(" ", "")}'
        pipes.append(_module_pipeline(
            name, _evaluation_build(name, d, t), points, _analyze_tail,
            _analyze_check(name, d, (1,) * (d + 1))))
    tensor = (_evaluation_build('ta', 1, '1')
              + _evaluation_build('tb', 1, 'q + 1')
              + [Op(('build', 'tensor', 'ta.ev.json', 'tb.ev.json', '--out',
                     'tensor.ev.json'))])
    pipes.append(_module_pipeline('tensor', tensor, points, _analyze_tail,
                                  _analyze_check('tensor', 2, (1, 2, 1))))
    rng.shuffle(pipes)
    warm = _module_pipeline('warm', _evaluation_build('warm', 1, '1'),
                            points, _analyze_tail, _no_check)
    return Plan(pipes, 'tensor', warm)


# -- q2-dualities ------------------------------------------------------------

def _dualities_tail(name):
    mod = f'{name}.mod.json'
    ops = []
    for n in (1, 2, 3):
        ops.append(Op(('dualities', 'twist', mod, '--n', str(n), '--out',
                       f'{name}.tw{n}.json')))
        ops.append(Op(('dualities', 'twist', f'{name}.tw{n}.json', '--n',
                       str(4 - n), '--out', f'{name}.tw{n}back.json')))
    ops += [Op(('dualities', 'dual', mod, '--out', f'{name}.dual.json')),
            Op(('dualities', 'dual', f'{name}.dual.json', '--out',
                f'{name}.dualback.json')),
            Op(('dualities', 'eightfold', mod, '--format', 'json', '--out',
                f'{name}.eight.json')),
            Op(('dualities', 'omega-form', mod, '--format', 'json', '--out',
                f'{name}.omega.json'))]
    return ops


def _dualities_check(name, points):
    def check(work, mod):
        problems = []
        for n in (1, 2, 3):
            tw = C.load(_path(work, f'{name}.tw{n}.json'))
            back = C.load(_path(work, f'{name}.tw{n}back.json'))
            problems += C.check_same_generators(tw, C.twisted(mod, n),
                                                f'twist {n}')
            problems += C.check_same_generators(back, mod['generators'],
                                                f'twist {n} then {4 - n}')
            problems += C.check_boxq_file(tw, points)
        dual = C.load(_path(work, f'{name}.dual.json'))
        back = C.load(_path(work, f'{name}.dualback.json'))
        problems += C.check_same_generators(dual, C.dualized(mod), 'dual')
        problems += C.check_same_generators(back, mod['generators'],
                                            'dual twice')
        problems += C.check_boxq_file(dual, points)
        table = C.load(_path(work, f'{name}.eight.json'))
        problems += C.check_eightfold(table, mod, points)
        problems += C.check_omega(
            C.load(_path(work, f'{name}.omega.json')), table, mod, points)
        return problems
    return check


def q2_dualities(rng) -> Plan:
    points = _points(rng)
    pipes = [_module_pipeline(f'd{d}',
                              _evaluation_build(f'd{d}', d, '3', '2'),
                              points, _dualities_tail,
                              _dualities_check(f'd{d}', points))
             for d in (3, 4, 5)]
    rng.shuffle(pipes)
    warm = _module_pipeline('warm', _evaluation_build('warm', 1, '3', '2'),
                            points, _dualities_tail, _no_check)
    return Plan(pipes, 'd5', warm)


# -- conjugated-pairs --------------------------------------------------------

def evaluation_pair(d: int, t, q):
    """(y1, y0) of the evaluation module V_d(t) at q: the pair (X, Y)
    that ``reconstruct`` takes."""
    gens = C.loop_generators(C.evaluation_families(d, t, q), q)
    return gens['y1'], gens['y0']


def _poly_text(poly, scale) -> str:
    terms = sorted(((e, int(c * scale)) for (e,), c in poly.terms()),
                   reverse=True)
    chunks = []
    for exp, c in terms:
        if exp == 0:
            body = str(abs(c))
        else:
            base = 'q' if exp == 1 else f'q^{exp}'
            body = base if abs(c) == 1 else f'{abs(c)}*{base}'
        if not chunks:
            chunks.append(('-' if c < 0 else '') + body)
        else:
            chunks.append((' - ' if c < 0 else ' + ') + body)
    return ''.join(chunks) or '0'


def scalar_text(s) -> str:
    """An element of Q(q) in the program's scalar syntax:
    ``(num)/(den)`` with integer coefficients, or a bare polynomial."""
    s = QQ_Q(s)
    num, den = s.numer, s.denom
    scale = lcm(*(int(c.denominator) for p in (num, den)
                  for _, c in p.terms()))
    if den == 1:
        return _poly_text(num, scale)
    return f'({_poly_text(num, scale)})/({_poly_text(den, scale)})'


def _int_det(rows) -> int:
    """Determinant of an integer matrix by fraction-free elimination."""
    m = [list(r) for r in rows]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def random_unimodular(rng, n):
    """A seeded integer matrix with entries in -2..2 and determinant +-1.

    With an integral inverse the conjugated entries keep integer
    coefficients.
    """
    while True:
        P = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if abs(_int_det(P)) == 1:
            return [[Fraction(x) for x in row] for row in P]


def conjugate(P, M):
    """P^-1 M P for a matrix M and a rational matrix P."""
    return C.mat_mul(C.mat_mul(C.inverse(P), M), P)


def pair_document(X, Y, q_value=None) -> dict:
    """A pair file: symbolic when ``q_value`` is None, else the entries
    are the values at q = ``q_value``."""
    if q_value is None:
        rows = [[[scalar_text(x) for x in row] for row in m] for m in (X, Y)]
        field_blob = {'mode': 'symbolic'}
    else:
        rows = [[[str(Fraction(x)) for x in row] for row in m]
                for m in (X, Y)]
        field_blob = {'mode': 'specialized', 'q_value': str(q_value)}
    return {'schema_version': 1, 'kind': 'aq_pair', 'dimension': len(X),
            'field': field_blob, 'matrices': {'X': rows[0], 'Y': rows[1]}}


def typical_conjugator(rng, X, Y, q=None):
    """A seeded unimodular P whose conjugated pair has the typical size.

    The cost of reconstructing a conjugated pair follows the size of its
    entries, which varies by a factor of two between conjugators.  P is
    drawn until the pair document's length is within 3% of the median
    length over 15 draws from a fixed stream, so that the work of a pass
    hardly depends on the seed.
    """
    def length(P):
        return len(_dump(pair_document(conjugate(P, X), conjugate(P, Y),
                                       q)))
    fixed = random.Random(len(X))
    lengths = sorted(length(random_unimodular(fixed, len(X)))
                     for _ in range(15))
    target = lengths[7]
    while True:
        P = random_unimodular(rng, len(X))
        if abs(length(P) - target) <= 0.03 * target:
            return P


def _accepted(name, X, Y, q, P, points):
    doc = pair_document(conjugate(P, X), conjugate(P, Y), q)
    base = pair_document(X, Y, q)
    ops = [Op(('reconstruct', f'{name}.pair.json', '--out',
               f'{name}.mod.json')),
           Op(('verify-relations', f'{name}.mod.json', '--format', 'json',
               '--out', f'{name}.vr.json'))]

    def read_back(pair, module):
        return C.check_pair_reconstructed(module, pair['field'],
                                          pair['matrices']['X'],
                                          pair['matrices']['Y'], points)

    def check(work):
        mod = C.load(_path(work, f'{name}.mod.json'))
        base_mod = C.load(_path(work, f'{name}.base.json'))
        return (read_back(doc, mod) + read_back(base, base_mod)
                + C.check_conjugate(mod, base_mod, P, points)
                + C.check_boxq_file(mod, points)
                + C.check_verify_report(
                    C.load(_path(work, f'{name}.vr.json'))))
    return Pipeline(name, ops, check,
                    files={f'{name}.pair.json': _dump(doc)},
                    base=(f'{name}.basepair.json', _dump(base),
                          f'{name}.base.json'))


def _rejected(name, text, rc, stage, command='reconstruct', fault=''):
    op = Op((command, f'{name}.json', '--out', f'{name}.out.json'), rc,
            stage, fault)
    return Pipeline(name, [op], None, files={f'{name}.json': text})


def conjugated_pairs(rng) -> Plan:
    points = _points(rng)
    two, three = Fraction(2), Fraction(3)
    pipes = []
    for d in (1, 2):
        X, Y = evaluation_pair(d, Q, Q)
        pipes.append(_accepted(f'sym-d{d}', X, Y, None,
                               typical_conjugator(rng, X, Y), points))
    for d in (3, 4, 5):
        X, Y = evaluation_pair(d, three, two)
        pipes.append(_accepted(f'q2-d{d}', X, Y, two,
                               typical_conjugator(rng, X, Y, two), points))

    X, Y = evaluation_pair(3, three, two)
    P = random_unimodular(rng, 4)
    scaled = pair_document(conjugate(P, C.mat_scale(2, X)), conjugate(P, Y),
                           two)
    pipes.append(_rejected('scaled-x', _dump(scaled), 2,
                           'spectrum mismatch'))

    # not conjugated: on a dense reducible pair every sample point of the
    # Burnside certificate fails, and the symbolic fallback's cost then
    # swings by a factor of two with the conjugating matrix
    tensor = C.loop_generators(
        C.tensor_families(C.evaluation_families(1, QQ_Q(1), Q),
                          C.evaluation_families(1, Q ** 2, Q)), Q)
    reducible = pair_document(tensor['y1'], tensor['y0'])
    pipes.append(_rejected('reducible', _dump(reducible), 2,
                           'irreducibility'))

    # X diagonal with spectrum q^2, 1, q^-2 and Y = U^-1 X U for a
    # unipotent U: both spectra pass, but Y has an entry between the
    # q^2 and q^-2 eigenspaces of X, which the cubic relations forbid
    X = [[Q ** 2, 0, 0], [0, 1, 0], [0, 0, Q ** -2]]
    U = [[int(i == j or (i, j) == (0, 2)) for j in range(3)]
         for i in range(3)]
    Y = conjugate(U, X)
    P = typical_conjugator(rng, X, Y)
    bad = pair_document(conjugate(P, X), conjugate(P, Y))
    pipes.append(_rejected('not-aq', _dump(bad), 2, 'aq relations'))

    good = _dump(pair_document(*evaluation_pair(1, Q, Q)))
    pipes.append(_rejected('malformed', good[:len(good) // 2], 1,
                           'not valid JSON'))

    # an eight-generator module is a module of the wrong algebra here
    one = [['1']]
    boxq = {'schema_version': 1, 'algebra_id': 'BOXQ', 'dimension': 1,
            'field': {'mode': 'symbolic'},
            'generators': {g: one for g in C.BOXQ_LABELS}, 'provenance': {}}
    pipes.append(_rejected('wrong-algebra', _dump(boxq), 1,
                           'reconstruct needs a pair file'))

    # a Python bool is an int, so these pass the type checks today
    unit = {'schema_version': 1, 'kind': 'aq_pair', 'dimension': True,
            'field': {'mode': 'symbolic'},
            'matrices': {'X': one, 'Y': one}}
    pipes.append(_rejected('bool-dimension', _dump(unit), 1, 'dimension',
                           fault='"dimension": true is accepted'))
    loop = {'schema_version': True, 'algebra_id': 'LOOP_EQ', 'dimension': 1,
            'field': {'mode': 'symbolic'},
            'generators': {g: one for g in C.LOOP_LABELS},
            'provenance': {}}
    pipes.append(_rejected('bool-schema', _dump(loop), 1, 'schema_version',
                           command='verify-relations',
                           fault='"schema_version": true is accepted'))
    rng.shuffle(pipes)
    warm = _accepted('warm', *evaluation_pair(1, Q, Q), None,
                     random_unimodular(rng, 2), points)
    return Plan(pipes, 'q2-d5', warm)


PLANS = {'symbolic-analyze': symbolic_analyze,
         'q2-dualities': q2_dualities,
         'conjugated-pairs': conjugated_pairs}


def make_plan(workload: str, seed: int) -> Plan:
    return PLANS[workload](random.Random(f'{workload}/{seed}'))
