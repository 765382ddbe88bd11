"""Output checks for the benchmark, derived apart from the program.

Nothing here imports ``qtetra``.  Scalars are read from their canonical
text and evaluated at rational points of q, so every check is a plain
``Fraction`` computation:

* relations: the twenty defining relations of the q-tetrahedron algebra,
  written out from the definition, hold on the evaluated matrices;
* modules built by the program equal the evaluation modules and tensor
  products built here from the ladder formulas;
* transforms, analysis reports and the eightfold table satisfy the
  properties the mathematics forces on them.

Each ``check_*`` function returns a list of problems; empty means pass.
The matrix helpers and the module builders take any scalars that form a
field with Python's operators: ``Fraction`` values at a point here, and
elements of sympy's Q(q) where ``workloads.py`` writes symbolic inputs.
"""

from __future__ import annotations

import ast
import json
import operator
from fractions import Fraction

BOXQ_LABELS = ('x01', 'x12', 'x23', 'x30', 'x02', 'x13', 'x20', 'x31')
LOOP_LABELS = ('x0', 'x1', 'y0', 'y1', 'z0', 'z1')

# omega reverses words and fixes x01, x23; see the paper's antiautomorphism
_OMEGA = {'x01': 'x01', 'x12': 'x30', 'x23': 'x23', 'x30': 'x12',
          'x02': 'x31', 'x13': 'x20', 'x20': 'x13', 'x31': 'x02'}


def label(i: int, j: int) -> str:
    return f'x{i % 4}{j % 4}'


def rho(lab: str, n: int) -> str:
    return label(int(lab[1]) + n, int(lab[2]) + n)


def omega(lab: str) -> str:
    return _OMEGA[lab]


# -- scalar text at a point ------------------------------------------------

_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv}


def _value(node, q: Fraction) -> Fraction:
    """The value at q of a parsed scalar: integers, q, + - * / and
    integer powers, nothing else."""
    if isinstance(node, ast.BinOp):
        left = _value(node.left, q)
        if isinstance(node.op, ast.Pow):
            exp = node.right
            if not (isinstance(exp, ast.Constant) and type(exp.value) is int):
                raise ValueError('exponent is not an integer literal')
            return left ** exp.value
        return _BINARY[type(node.op)](left, _value(node.right, q))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_value(node.operand, q)
    if isinstance(node, ast.Name) and node.id == 'q':
        return q
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return Fraction(node.value)
    raise ValueError(f'unexpected {ast.dump(node)} in scalar text')


class Evaluator:
    """Evaluates scalar texts at fixed rational points, caching parses.

    Scalar text such as ``(q^2 - 1)/(3*q)`` is Python syntax once ``^``
    is read as ``**``; it is parsed as such and evaluated over
    ``Fraction``.  A specialized document stores plain rationals; they
    are the values at its one point.
    """

    def __init__(self, points, specialized=False):
        self.points = tuple(Fraction(p) for p in points)
        self.specialized = specialized
        self._parsed = {}

    def values(self, text: str) -> tuple:
        if self.specialized:
            return (Fraction(text),) * len(self.points)
        tree = self._parsed.get(text)
        if tree is None:
            tree = ast.parse(text.replace('^', '**'), mode='eval').body
            self._parsed[text] = tree
        return tuple(_value(tree, q) for q in self.points)

    def matrices(self, rows) -> list:
        """One Fraction matrix per point from a matrix of scalar texts."""
        vals = [[self.values(t) for t in row] for row in rows]
        return [[[v[k] for v in row] for row in vals]
                for k in range(len(self.points))]


def evaluator(field_blob: dict, points) -> Evaluator:
    """Evaluates a document's scalars at ``points``, or at its own q."""
    if field_blob.get('mode') == 'specialized':
        return Evaluator([Fraction(field_blob['q_value'])], True)
    return Evaluator(points)


# -- Fraction matrices -----------------------------------------------------

def identity(n: int):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols]
            for row in a]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c, a):
    return [[c * x for x in row] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def trace(a):
    return sum(a[i][i] for i in range(len(a)))


def kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def inverse(a):
    """Gauss-Jordan inverse of a square Fraction matrix, or None."""
    n = len(a)
    rows = [list(r) + [Fraction(int(i == j)) for j in range(n)]
            for i, r in enumerate(a)]
    for c in range(n):
        p = next((i for i in range(c, n) if rows[i][c]), None)
        if p is None:
            return None
        rows[c], rows[p] = rows[p], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [x * inv for x in rows[c]]
        for i in range(n):
            if i != c and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return [r[n:] for r in rows]


# -- the q-tetrahedron relations -------------------------------------------

def boxq_relation_failures(gens: dict, q: Fraction) -> list:
    """Names of the defining relations that fail on Fraction matrices.

    Inverse pairs x_{i,i+2} x_{i+2,i} = 1; q-Weyl
    q x_ij x_jk - q^-1 x_jk x_ij = (q - q^-1) 1 for distinct i, j, k with
    j - i, k - j in {1, 2}; cubic q-Serre for (x_{h,h+1}, x_{h+2,h+3}).
    """
    n = len(gens['x01'])
    one = identity(n)
    failures = []
    for i in range(4):
        a, b = gens[label(i, i + 2)], gens[label(i + 2, i)]
        if mat_mul(a, b) != one:
            failures.append(f'inverse {label(i, i + 2)}')
    for i in range(4):
        for s, t in ((1, 1), (1, 2), (2, 1)):
            a, b = gens[label(i, i + s)], gens[label(i + s, i + s + t)]
            lhs = mat_add(mat_scale(q, mat_mul(a, b)),
                          mat_scale(-1 / q, mat_mul(b, a)))
            if lhs != mat_scale(q - 1 / q, one):
                failures.append(f'weyl {label(i, i + s)} '
                                f'{label(i + s, i + s + t)}')
    three = q * q + 1 + 1 / (q * q)
    for h in range(4):
        a, b = gens[label(h, h + 1)], gens[label(h + 2, h + 3)]
        a2 = mat_mul(a, a)
        a3 = mat_mul(a2, a)
        total = mat_add(mat_mul(a3, b), mat_scale(-1, mat_mul(b, a3)))
        total = mat_add(total, mat_scale(-three, mat_mul(mat_mul(a2, b), a)))
        total = mat_add(total, mat_scale(three, mat_mul(mat_mul(a, b), a2)))
        if any(any(row) for row in total):
            failures.append(f'serre {label(h, h + 1)}')
    return failures


# -- independent evaluation modules ----------------------------------------

def ladder(d: int, q):
    """K, K^-1, e^+, e^- of the (d+1)-dimensional ladder at q."""
    def qint(m):
        return sum(q ** (m - 1 - 2 * k) for k in range(m))
    size = d + 1
    K = [[q ** (d - 2 * i) if i == j else 0 for j in range(size)]
         for i in range(size)]
    K_inv = [[q ** (2 * i - d) if i == j else 0 for j in range(size)]
             for i in range(size)]
    ep = [[0] * size for _ in range(size)]
    em = [[0] * size for _ in range(size)]
    for m in range(1, size):
        ep[m - 1][m] = qint(m)
    for m in range(size - 1):
        em[m + 1][m] = qint(d - m)
    return K, K_inv, ep, em


def evaluation_families(d: int, t, q) -> dict:
    """The two Chevalley families of V_d(t); t and q are field elements,
    not Python ints, so that 1 / t stays exact."""
    K, K_inv, ep, em = ladder(d, q)
    return {1: (K, K_inv, ep, em),
            0: (K_inv, K, mat_scale(t, em), mat_scale(1 / t, ep))}


def tensor_families(fa: dict, fb: dict) -> dict:
    out = {}
    for i in (0, 1):
        Ka, Ka_inv, epa, ema = fa[i]
        Kb, Kb_inv, epb, emb = fb[i]
        ia, ib = identity(len(Ka)), identity(len(Kb))
        out[i] = (kron(Ka, Kb), kron(Ka_inv, Kb_inv),
                  mat_add(kron(epa, ib), kron(Ka, epb)),
                  mat_add(kron(ema, Kb_inv), kron(ia, emb)))
    return out


def loop_generators(families: dict, q) -> dict:
    """The equitable substitution x = K, y = K^-1 + e^-,
    z = K^-1 - K^-1 e^+ q (q - q^-1)^2, family by family."""
    w = q - 1 / q
    gens = {}
    for i in (0, 1):
        K, K_inv, ep, em = families[i]
        gens[f'x{i}'] = K
        gens[f'y{i}'] = mat_add(K_inv, em)
        gens[f'z{i}'] = mat_add(K_inv,
                                mat_scale(-q * w * w, mat_mul(K_inv, ep)))
    return gens


def expected_loop(provenance: dict, q: Fraction) -> dict:
    """Chevalley families at q described by evaluation/tensor provenance."""
    if provenance.get('kind') == 'evaluation':
        t = Evaluator([q]).values(provenance['t'])[0]
        return evaluation_families(int(provenance['d']), t, q)
    fa, fb = (expected_loop(f, q) for f in provenance['factors'])
    return tensor_families(fa, fb)


# -- document-level checks -------------------------------------------------

def load(path):
    with open(path, encoding='utf-8') as handle:
        return json.load(handle)


def check_loop_file(doc: dict, points) -> list:
    """A built evaluation or tensor module equals the one built here."""
    ev = evaluator(doc['field'], points)
    problems = []
    for k, q in enumerate(ev.points):
        want = loop_generators(expected_loop(doc['provenance'], q), q)
        for g in LOOP_LABELS:
            if ev.matrices(doc['generators'][g])[k] != want[g]:
                problems.append(f'{g} differs from the ladder formula '
                                f'at q = {q}')
    return problems


def boxq_at_points(doc: dict, points):
    ev = evaluator(doc['field'], points)
    per_label = {g: ev.matrices(doc['generators'][g]) for g in BOXQ_LABELS}
    return ev.points, [{g: per_label[g][k] for g in BOXQ_LABELS}
                       for k in range(len(ev.points))]


def check_boxq_file(doc: dict, points) -> list:
    """Every defining relation holds at every sample point."""
    if doc.get('algebra_id') != 'BOXQ' or set(doc['generators']) != set(
            BOXQ_LABELS):
        return ['not an eight-generator module document']
    pts, mats = boxq_at_points(doc, points)
    return [f'{name} fails at q = {q}'
            for q, gens in zip(pts, mats)
            for name in boxq_relation_failures(gens, q)]


def check_pair_reconstructed(module: dict, field_blob: dict, x_rows, y_rows,
                             points) -> list:
    """x01 and x23 of a reconstruction equal the input pair (X, Y), at
    every sample point: the input may be written in other terms than the
    program's canonical text."""
    got = evaluator(module['field'], points)
    want = evaluator(field_blob, points)
    problems = []
    for g, rows, name in (('x01', x_rows, 'X'), ('x23', y_rows, 'Y')):
        if got.matrices(module['generators'][g]) != want.matrices(rows):
            problems.append(f'{g} differs from the input {name}')
    return problems


def check_conjugate(module: dict, base: dict, P, points) -> list:
    """Every generator of ``module`` equals P^-1 M P, M from ``base``."""
    P_inv = inverse(P)
    pts, got = boxq_at_points(module, points)
    _, want = boxq_at_points(base, pts)
    problems = []
    for q, g_mats, b_mats in zip(pts, got, want):
        for g in BOXQ_LABELS:
            if g_mats[g] != mat_mul(mat_mul(P_inv, b_mats[g]), P):
                problems.append(f'{g} is not P^-1 M P at q = {q}')
    return problems


def check_analysis(report: dict, d: int, shape) -> list:
    problems = []
    if report.get('passed') is not True:
        problems.append('analysis did not pass')
    if report.get('epsilon') != 1:
        problems.append(f'epsilon {report.get("epsilon")!r}, expected 1')
    if report.get('d') != d:
        problems.append(f'diameter {report.get("d")!r}, expected {d}')
    if report.get('shape') != list(shape):
        problems.append(f'shape {report.get("shape")!r}, expected '
                        f'{list(shape)}')
    return problems


def check_verify_report(report: dict) -> list:
    rels = report.get('relations', [])
    if report.get('passed') is not True or len(rels) != 20 or not all(
            r.get('passed') is True for r in rels):
        return ['verify-relations did not report 20 passing relations']
    return []


def twisted(doc: dict, n: int) -> dict:
    """Generator texts of the twist by rho^n: new x_ij is old x_{i+n,j+n}."""
    return {g: doc['generators'][rho(g, n)] for g in BOXQ_LABELS}


def dualized(doc: dict) -> dict:
    """Generator texts of the dual: x_ij acts as the transpose of
    omega(x_ij)."""
    return {g: transpose(doc['generators'][omega(g)]) for g in BOXQ_LABELS}


def check_same_generators(doc: dict, gens: dict, what: str) -> list:
    bad = [g for g in BOXQ_LABELS if doc['generators'][g] != gens[g]]
    return [f'{what}: generators {bad} differ'] if bad else []


def check_eightfold(table: dict, module: dict, points) -> list:
    """Equivalence-relation axioms, and equal generator traces for every
    pair reported isomorphic."""
    rows = table.get('isomorphic')
    size = 8
    if not (isinstance(rows, list) and len(rows) == size
            and all(isinstance(r, list) and len(r) == size for r in rows)):
        return ['eightfold table is not 8x8']
    problems = []
    for i in range(size):
        if rows[i][i] is not True:
            problems.append(f'not reflexive at {i}')
        for j in range(size):
            if rows[i][j] != rows[j][i]:
                problems.append(f'not symmetric at {i},{j}')
            for k in range(size):
                if rows[i][j] and rows[j][k] and not rows[i][k]:
                    problems.append(f'not transitive at {i},{j},{k}')
    pts, mats = boxq_at_points(module, points)
    for gens in mats:
        # member n < 4 is V rho^n, member 4 + n is V* rho^n
        traces = []
        for member in range(size):
            n = member % 4
            traces.append(tuple(
                trace(gens[rho(g, n)] if member < 4
                      else gens[omega(rho(g, n))])
                for g in BOXQ_LABELS))
        for i in range(size):
            for j in range(size):
                if rows[i][j] and traces[i] != traces[j]:
                    problems.append(f'members {i} and {j} reported '
                                    f'isomorphic but traces differ')
    return problems


def check_omega(report: dict, table: dict, module: dict, points) -> list:
    """A nondegenerate omega-form exists exactly when V is isomorphic to
    V* (cell [0][4] of the eightfold table, as V is irreducible), and its
    Gram matrix G satisfies transpose(M(x_ij)) G = G M(omega(x_ij)) for
    all eight generators."""
    try:
        self_dual = table['isomorphic'][0][4]
    except (KeyError, IndexError, TypeError):
        return ['the eightfold table has no cell [0][4]']
    if report.get('nondegenerate') is not self_dual:
        return [f'nondegenerate is {report.get("nondegenerate")!r} but '
                f'V ~ V* is {self_dual!r} in the eightfold table']
    if not report['nondegenerate']:
        return []
    gram = report.get('gram')
    if gram is None:
        return ['nondegenerate form without a Gram matrix']
    ev = evaluator(module['field'], points)
    grams = ev.matrices(gram)
    pts, mats = boxq_at_points(module, points)
    problems = []
    for q, G, gens in zip(pts, grams, mats):
        for g in BOXQ_LABELS:
            if mat_mul(transpose(gens[g]), G) != mat_mul(G, gens[omega(g)]):
                problems.append(f'omega identity fails for {g} at q = {q}')
    return problems
