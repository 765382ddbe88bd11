"""The benchmark's own checks accept real outputs and reject corrupted ones.

    python3 -m pytest perfbench/test_checks.py

Each test makes real documents with the program, confirms the check
passes on them, then changes one entry and confirms the check fails.
"""

import contextlib
import copy
import io
import os
import random
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), 'src'))

import checks as C  # noqa: E402
import workloads as W  # noqa: E402
from qtetra.cli import main  # noqa: E402

POINTS = (Fraction(11, 3), Fraction(13, 5))


def _cli(tmp_path, *argv):
    argv = [str(tmp_path / a) if a.endswith('.json') else a for a in argv]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0


@pytest.fixture(scope='module')
def symbolic(tmp_path_factory):
    tmp = tmp_path_factory.mktemp('symbolic')
    _cli(tmp, 'build', 'evaluation', '--d', '1', '--t', 'q', '--out',
         'ev.json')
    _cli(tmp, 'reconstruct', 'ev.json', '--out', 'mod.json')
    _cli(tmp, 'analyze', 'mod.json', '--format', 'json', '--out', 'an.json')
    return {name: C.load(tmp / f'{name}.json') for name in ('ev', 'mod', 'an')}


@pytest.fixture(scope='module')
def at_two(tmp_path_factory):
    tmp = tmp_path_factory.mktemp('at_two')
    _cli(tmp, 'build', 'evaluation', '--d', '2', '--t', '3', '--q', '2',
         '--out', 'ev.json')
    _cli(tmp, 'reconstruct', 'ev.json', '--out', 'mod.json')
    _cli(tmp, 'dualities', 'twist', 'mod.json', '--n', '1', '--out',
         'tw.json')
    _cli(tmp, 'dualities', 'eightfold', 'mod.json', '--format', 'json',
         '--out', 'eight.json')
    _cli(tmp, 'dualities', 'omega-form', 'mod.json', '--format', 'json',
         '--out', 'omega.json')
    return {name: C.load(tmp / f'{name}.json')
            for name in ('ev', 'mod', 'tw', 'eight', 'omega')}


def _corrupt_symbolic(doc, label):
    doc = copy.deepcopy(doc)
    rows = doc['generators'][label]
    rows[0][0] = f'{rows[0][0]} + 1'
    return doc


def _corrupt_rational(doc, label):
    doc = copy.deepcopy(doc)
    rows = doc['generators'][label]
    rows[0][0] = str(Fraction(rows[0][0]) + 1)
    return doc


def test_relations(symbolic, at_two):
    assert C.check_boxq_file(symbolic['mod'], POINTS) == []
    assert C.check_boxq_file(at_two['mod'], POINTS) == []
    assert C.check_boxq_file(_corrupt_symbolic(symbolic['mod'], 'x13'),
                             POINTS)
    assert C.check_boxq_file(_corrupt_rational(at_two['mod'], 'x30'),
                             POINTS)


def test_built_module(symbolic, at_two):
    assert C.check_loop_file(symbolic['ev'], POINTS) == []
    assert C.check_loop_file(at_two['ev'], POINTS) == []
    assert C.check_loop_file(_corrupt_symbolic(symbolic['ev'], 'z0'), POINTS)
    assert C.check_loop_file(_corrupt_rational(at_two['ev'], 'y1'), POINTS)


def _swapped(mod):
    """The reconstruction relabelled by rho^2, which keeps every relation
    but swaps x01 and x23."""
    return {**mod, 'generators': C.twisted(mod, 2)}


def test_reconstruction_matches_pair(symbolic):
    ev, mod = symbolic['ev'], symbolic['mod']
    y1, y0 = ev['generators']['y1'], ev['generators']['y0']
    assert C.check_pair_reconstructed(mod, ev['field'], y1, y0, POINTS) == []
    bad = _corrupt_symbolic(mod, 'x23')
    assert C.check_pair_reconstructed(bad, ev['field'], y1, y0, POINTS)
    assert C.check_boxq_file(_swapped(mod), POINTS) == []
    assert C.check_pair_reconstructed(_swapped(mod), ev['field'], y1, y0,
                                      POINTS)


@pytest.mark.parametrize('q_value', [None, Fraction(2)])
def test_conjugated_pair_reconstruction(tmp_path, q_value):
    q = W.Q if q_value is None else q_value
    X, Y = W.evaluation_pair(2, q, q)
    P = W.random_unimodular(random.Random(0), 3)
    doc = W.pair_document(W.conjugate(P, X), W.conjugate(P, Y), q_value)
    (tmp_path / 'pair.json').write_text(W._dump(doc))
    _cli(tmp_path, 'reconstruct', 'pair.json', '--out', 'mod.json')
    mod = C.load(tmp_path / 'mod.json')
    X_rows, Y_rows = doc['matrices']['X'], doc['matrices']['Y']
    assert C.check_pair_reconstructed(mod, doc['field'], X_rows, Y_rows,
                                      POINTS) == []
    assert C.check_pair_reconstructed(_swapped(mod), doc['field'], X_rows,
                                      Y_rows, POINTS)


def test_conjugate(at_two):
    mod = at_two['mod']
    P = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    assert C.check_conjugate(mod, mod, P, POINTS) == []
    assert C.check_conjugate(_corrupt_rational(mod, 'x02'), mod, P, POINTS)


def test_analysis(symbolic):
    report = symbolic['an']
    assert C.check_analysis(report, 1, (1, 1)) == []
    assert C.check_analysis(dict(report, d=2), 1, (1, 1))
    assert C.check_analysis(dict(report, shape=[2]), 1, (1, 1))


def test_transforms(at_two):
    mod, tw = at_two['mod'], at_two['tw']
    assert C.check_same_generators(tw, C.twisted(mod, 1), 'twist') == []
    assert C.check_same_generators(_corrupt_rational(tw, 'x12'),
                                   C.twisted(mod, 1), 'twist')
    twice = {'generators': C.dualized({'generators': C.dualized(mod)})}
    assert C.check_same_generators(twice, mod['generators'], 'dual') == []


def test_eightfold(at_two):
    mod, table = at_two['mod'], at_two['eight']
    assert C.check_eightfold(table, mod, POINTS) == []
    bad = copy.deepcopy(table)
    bad['isomorphic'][0][1] = not bad['isomorphic'][0][1]
    assert C.check_eightfold(bad, mod, POINTS)


def test_omega(at_two):
    mod, report, table = at_two['mod'], at_two['omega'], at_two['eight']
    assert report['nondegenerate']
    assert C.check_omega(report, table, mod, POINTS) == []
    bad = copy.deepcopy(report)
    bad['gram'][0][0] = str(Fraction(bad['gram'][0][0]) + 1)
    assert C.check_omega(bad, table, mod, POINTS)
    assert C.check_omega(dict(report, nondegenerate=False), table, mod,
                         POINTS)


def test_pair_text_round_trip():
    """Symbolic pair texts evaluate to the pair built at each point."""
    P = W.random_unimodular(random.Random(0), 3)
    conj = W.conjugate(P, W.evaluation_pair(2, W.Q, W.Q)[0])
    doc = W.pair_document(conj, conj)
    ev = C.Evaluator(POINTS)
    for k, q in enumerate(POINTS):
        want = W.conjugate(P, W.evaluation_pair(2, q, q)[0])
        assert ev.matrices(doc['matrices']['X'])[k] == want


if __name__ == '__main__':
    sys.exit(pytest.main([__file__, '-q']))
