"""The ten acceptance checks, exact arithmetic, one verdict line each.

Every check runs at zero tolerance: equalities are equalities in the
field, never approximations.  Heavy objects (reconstructed modules,
spectra of their generators) are cached per field so the checks share
them.  The final check reruns the whole battery at q = 2 and compares
verdicts.  Run with ``pytest -s`` to see the per-criterion lines.
"""

from __future__ import annotations

import time
from fractions import Fraction
from functools import lru_cache

from qtetra.dualities import (
    dual_module,
    isomorphic,
    negate,
    omega_form,
    twist_rho,
)
from qtetra.modanalysis import (
    CHAIN,
    Flag,
    ModuleSpectra,
    check_action_tables,
    check_dimension_chain,
    check_key_containment,
    check_opposite,
    check_qweyl3,
    decomposition_ij,
    shape_of,
)
from qtetra.reconstruct import (
    irreducible_pair,
    reconstruct_boxq,
    roundtrip_verify,
)
from qtetra.repbuilder import (
    EvaluationParams,
    aq_pair_of,
    evaluation_module,
    tensor_modules,
)
from qtetra.scalars import SYMBOLIC, specialized

DIAMETERS = tuple(range(6))
SYMBOLIC_KEY = 'symbolic'
ORDERED_LABELS = tuple((i, (i + k) % 4) for k in (1, 2) for i in range(4))


def field_ctx(qkey):
    if qkey == SYMBOLIC_KEY:
        return SYMBOLIC
    return specialized(Fraction(qkey))


def t_values(qkey):
    """The three evaluation parameters 1, q, q+1 in the given field."""
    if qkey == SYMBOLIC_KEY:
        return ('1', 'q', 'q + 1')
    q = Fraction(qkey)
    return (str(Fraction(1)), str(q), str(q + 1))


def module_keys(qkey):
    return [(d, t) for d in DIAMETERS for t in t_values(qkey)]


@lru_cache(maxsize=None)
def loop_module(qkey, d, t):
    return evaluation_module(EvaluationParams(d, t), field_ctx(qkey))


@lru_cache(maxsize=None)
def built(qkey, d, t):
    X, Y = aq_pair_of(loop_module(qkey, d, t))
    return reconstruct_boxq(X, Y)


@lru_cache(maxsize=None)
def spectra(qkey, d, t):
    return ModuleSpectra(built(qkey, d, t))


def dec(qkey, d, t, i, j):
    return decomposition_ij(spectra(qkey, d, t), i, j)


@lru_cache(maxsize=None)
def tensor_built(qkey):
    """Generic 4-dim tensor module: parameters 1 and q+1."""
    t1, t2 = t_values(qkey)[0], t_values(qkey)[2]
    product = tensor_modules(loop_module(qkey, 1, t1),
                             loop_module(qkey, 1, t2))
    return reconstruct_boxq(*aq_pair_of(product))


@lru_cache(maxsize=None)
def tensor_spectra(qkey):
    return ModuleSpectra(tensor_built(qkey))


def tensor_dec(qkey, i, j):
    return decomposition_ij(tensor_spectra(qkey), i, j)


@lru_cache(maxsize=None)
def symbolic_outcome(number):
    """(verdict, note or exception, seconds) of criterion ``number`` over
    Q(q); run on first use, so any test may ask for any criterion."""
    start = time.perf_counter()
    try:
        ok, extra = CRITERIA[number](SYMBOLIC_KEY)
    except Exception as exc:
        return False, exc, time.perf_counter() - start
    return ok, extra, time.perf_counter() - start


def _run_symbolic(number, name):
    ok, extra, _ = symbolic_outcome(number)
    if isinstance(extra, Exception):
        print(f'criterion {number:2d} [{name}]: FAIL (exception)')
        raise extra
    note = f'  ({extra})' if extra else ''
    print(f'criterion {number:2d} [{name}]: '
          f'{"PASS" if ok else "FAIL"}{note}')
    assert ok, f'criterion {number} ({name}) failed'


# -- 1: every defining relation, zero residual -----------------------------

def crit_relations(qkey):
    start = time.perf_counter()
    ok = True
    for d, t in module_keys(qkey):
        report = built(qkey, d, t).aux['relations']
        ok = ok and report.passed and len(report.results) == 20
    elapsed = time.perf_counter() - start
    if qkey == SYMBOLIC_KEY:
        ok = ok and elapsed < 60.0
    return ok, f'18 modules in {elapsed:.1f}s'


def test_criterion_01_relations():
    _run_symbolic(1, 'relation exactness')


# -- 2: all 8 generators semisimple with the stated spectrum ---------------

def crit_spectra(qkey):
    ok = True
    for d, t in module_keys(qkey):
        for i, j in ORDERED_LABELS:
            try:
                dc = dec(qkey, d, t, i, j)
            except Exception:
                ok = False
                continue
            ok = (ok and dc.d == d and len(dc.dims) == d + 1
                  and all(r >= 1 for r in dc.dims))
    return ok, '8 generators x 18 modules'


def test_criterion_02_spectra():
    _run_symbolic(2, 'generator spectra')


# -- 3: one palindromic shape shared by all generators ---------------------

def crit_shape(qkey):
    ok = True
    for d, t in module_keys(qkey):
        dims = [dec(qkey, d, t, i, j).dims for i, j in ORDERED_LABELS]
        ok = ok and all(v == dims[0] for v in dims)
        ok = ok and dims[0] == tuple(reversed(dims[0]))
    report = shape_of(tensor_spectra(qkey))
    ok = ok and report.passed and report.epsilon == 1
    ok = ok and report.shape == (1, 2, 1)
    return ok, 'tensor shape (1, 2, 1)'


def test_criterion_03_shape():
    _run_symbolic(3, 'shape palindrome')


# -- 4: both action tables, every row, every i, every n --------------------

def crit_tables(qkey):
    ok = True
    for d, t in module_keys(qkey):
        ok = ok and check_action_tables(spectra(qkey, d, t)).passed
    ok = ok and check_action_tables(tensor_spectra(qkey)).passed
    return ok, '12 rows x 4 corners x (d+1) weights, 19 modules'


def test_criterion_04_action_tables():
    _run_symbolic(4, 'action tables')


# -- 5: flags pairwise opposite; intersections recover decompositions ------

def _flag_recovery(get_dec):
    flags = [Flag.from_decomposition(get_dec(i, (i + 1) % 4))
             for i in range(4)]
    for i, j in ORDERED_LABELS:
        derived = check_opposite(flags[i], flags[j])
        if derived is None or derived != get_dec(i, j):
            return False
    return True


def crit_flags(qkey):
    ok = True
    for d, t in module_keys(qkey):
        ok = ok and _flag_recovery(
            lambda i, j: dec(qkey, d, t, i, j))
    ok = ok and _flag_recovery(lambda i, j: tensor_dec(qkey, i, j))
    return ok, '6 flag pairs and 8 recovered decompositions per module'


def test_criterion_05_flags():
    _run_symbolic(5, 'flag recovery')


# -- 6: module -> pair -> module round trip is the identity ----------------

def crit_roundtrip(qkey):
    ok = True
    for d, t in module_keys(qkey):
        report = roundtrip_verify(built(qkey, d, t))
        ok = ok and report.passed and not report.mismatched
    report = roundtrip_verify(tensor_built(qkey))
    ok = ok and report.passed
    return ok, 'entrywise equality of all 8 generators'


def test_criterion_06_roundtrip():
    _run_symbolic(6, 'round trip')


# -- 7: Burnside certificates: full for the test modules, not full at
#       the resonant tensor parameters --------------------------------------

def crit_irreducibility(qkey):
    ok = True
    for d, t in module_keys(qkey):
        cert = built(qkey, d, t).aux['irreducibility']
        ok = (ok and cert.full and cert.stabilized
              and cert.closure_dim == (d + 1) ** 2)
    resonant_t2 = 'q^2' if qkey == SYMBOLIC_KEY else str(Fraction(qkey) ** 2)
    resonant = tensor_modules(loop_module(qkey, 1, t_values(qkey)[0]),
                              loop_module(qkey, 1, resonant_t2))
    cert = irreducible_pair(*aq_pair_of(resonant))
    ok = ok and not cert.full
    return ok, f'resonant closure dim {cert.closure_dim} < 16'


def test_criterion_07_irreducibility():
    _run_symbolic(7, 'irreducibility')


# -- 8: chain identities: dimension equalities, subspace-sum identity
#       per arrow, three-eigenspace containment ----------------------------

def crit_chain(qkey):
    ok = True
    for d, t in module_keys(qkey):
        mod = built(qkey, d, t)
        ctx = mod.ctx
        theta = ctx.q_power(d)
        ok = ok and check_dimension_chain(mod, theta).passed
        for a, b in zip(CHAIN, CHAIN[1:] + CHAIN[:1]):
            ok = ok and check_qweyl3(mod.gens[a], mod.gens[b], theta)
        for n in range(d + 1):
            ok = ok and check_key_containment(
                mod.gens['x01'], mod.gens['x23'], ctx.q_power(d - 2 * n))
    return ok, '8 arrows at theta = q^d; key containment at every eigenvalue'


def test_criterion_08_chain():
    _run_symbolic(8, 'chain identities')


# -- 9: twists and duals stay modules; trivial twists have invertible
#       intertwiners; the invariant-form search reports its findings -------

def crit_dualities(qkey):
    ok = True
    omega_dims = set()
    mods = [built(qkey, d, t) for d, t in module_keys(qkey)]
    mods.append(tensor_built(qkey))
    for mod in mods:
        try:
            for n in (1, 2, 3):
                twist_rho(mod, n)       # constructors certify relations
            negate(mod)
            dual = dual_module(mod)
        except Exception:
            ok = False
            continue
        # rho^4 and the double dual reproduce the module entrywise, so
        # the identity map is an invertible intertwiner; the solver is
        # cross-checked on the smaller modules
        ok = ok and twist_rho(mod, 4).gens == mod.gens
        double = dual_module(dual)
        ok = ok and double.gens == mod.gens
        if mod.dimension <= 4:
            ok = ok and isomorphic(twist_rho(mod, 4), mod) is not None
            ok = ok and isomorphic(double, mod) is not None
        candidate = omega_form(mod)     # report-only: no asserted value
        omega_dims.add((candidate.solution_space_dim,
                        candidate.symmetric, candidate.nondegenerate))
    observed = sorted(omega_dims)
    return ok, f'omega-form (dim, symmetric, nondegenerate): {observed}'


def test_criterion_09_dualities():
    _run_symbolic(9, 'duality transforms')


# -- 10: the whole battery again at q = 2, same verdicts, fast -------------

CRITERIA = {
    1: crit_relations,
    2: crit_spectra,
    3: crit_shape,
    4: crit_tables,
    5: crit_flags,
    6: crit_roundtrip,
    7: crit_irreducibility,
    8: crit_chain,
    9: crit_dualities,
}


def test_criterion_10_performance():
    outcomes = {n: symbolic_outcome(n) for n in CRITERIA}
    symbolic_total = sum(seconds for _, _, seconds in outcomes.values())
    start = time.perf_counter()
    disagree = []
    for number, fn in CRITERIA.items():
        try:
            verdict, _ = fn('2')
        except Exception:
            verdict = False
        if verdict is not outcomes[number][0]:
            disagree.append(number)
    specialized_elapsed = time.perf_counter() - start
    ok = (not disagree and specialized_elapsed < 30.0
          and symbolic_total < 600.0)
    print(f'criterion 10 [performance envelope]: '
          f'{"PASS" if ok else "FAIL"}  '
          f'(symbolic battery {symbolic_total:.0f}s, '
          f'q=2 rerun {specialized_elapsed:.1f}s, '
          f'verdicts disagree on: {disagree or "none"})')
    assert ok, 'criterion 10 (performance envelope) failed'
