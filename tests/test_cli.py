"""Command-line interface: exit codes, file round trips, report output."""

from __future__ import annotations

import json
import os
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qtetra.modanalysis as modanalysis
from qtetra.cli import main
from qtetra.dualities import negate
from qtetra.exactla import ExactMatrix
from qtetra.fileformat import ModuleFile, PairFile, parse_document
from qtetra.presentations import GENERATORS
from qtetra.repbuilder import MatrixRep
from qtetra.scalars import MAX_EXPONENT, SYMBOLIC, FieldContext, specialized


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope='module')
def files(tmp_path_factory):
    """Prebuilt artifacts shared by the read-only tests."""
    root = tmp_path_factory.mktemp('cli')
    ev = str(root / 'ev.json')
    mod = str(root / 'mod.json')
    assert run('build', 'evaluation', '--d', '1', '--t', 'q',
               '--out', ev) == 0
    assert run('reconstruct', ev, '--out', mod) == 0
    return {'root': root, 'ev': ev, 'mod': mod}


def read_json(path):
    with open(path) as handle:
        return json.load(handle)


def write_json(path, doc):
    with open(path, 'w') as handle:
        json.dump(doc, handle, sort_keys=True, indent=2)
        handle.write('\n')


def test_build_evaluation_file(files):
    doc = read_json(files['ev'])
    assert doc['schema_version'] == 1
    assert doc['algebra_id'] == 'LOOP_EQ'
    assert doc['dimension'] == 2
    assert doc['field'] == {'mode': 'symbolic'}
    assert doc['generators']['x1'] == [['q', '0'], ['0', '(1)/(q)']]
    assert doc['provenance'] == {'kind': 'evaluation', 'd': 1, 't': 'q'}


def test_build_trivial(tmp_path):
    out = str(tmp_path / 'triv.json')
    assert run('build', 'evaluation', '--d', '0', '--t', '1',
               '--out', out) == 0
    doc = read_json(out)
    assert doc['dimension'] == 1
    assert all(m == [['1']] for m in doc['generators'].values())


def test_byte_identical_round_trip(files):
    for key in ('ev', 'mod'):
        text = open(files[key]).read()
        parsed = parse_document(text)
        assert parsed.to_json() == text
        assert ModuleFile.from_module(parsed.to_module()).to_json() == text


def test_build_uqsl2(tmp_path):
    out = str(tmp_path / 'uq.json')
    assert run('build', 'uqsl2', '--d', '1', '--out', out) == 0
    doc = read_json(out)
    assert doc['algebra_id'] == 'UQSL2_EQ'
    assert sorted(doc['generators']) == ['x', 'x_inv', 'y', 'z']


def test_build_specialized(tmp_path):
    out = str(tmp_path / 'evq2.json')
    assert run('build', 'evaluation', '--d', '1', '--t', '3',
               '--q', '2', '--out', out) == 0
    doc = read_json(out)
    assert doc['field'] == {'mode': 'specialized', 'q_value': '2'}
    assert doc['generators']['x1'] == [['2', '0'], ['0', '1/2']]


def test_build_tensor(files, tmp_path):
    out = str(tmp_path / 'tensor.json')
    assert run('build', 'tensor', files['ev'], files['ev'],
               '--out', out) == 0
    doc = read_json(out)
    assert doc['dimension'] == 4
    assert doc['provenance']['kind'] == 'tensor'
    assert [f['t'] for f in doc['provenance']['factors']] == ['q', 'q']


def test_build_tensor_rejects_stale_provenance(files, tmp_path):
    doc = read_json(files['ev'])
    doc['generators']['y1'][0][0] = '7'
    bad = str(tmp_path / 'stale.json')
    write_json(bad, doc)
    assert run('build', 'tensor', bad, files['ev']) == 1


def test_build_tensor_rejects_wrong_algebra(files, tmp_path):
    assert run('build', 'tensor', files['mod'], files['ev']) == 1


@pytest.mark.parametrize('provenance, reason', [
    ({'kind': 'evaluation', 'd': 'abc', 't': 'q'}, '"d" must be an integer'),
    ({'kind': 'evaluation', 'd': True, 't': 'q'}, '"d" must be an integer'),
    ({'kind': 'evaluation', 'd': [1], 't': 'q'}, '"d" must be an integer'),
    ({'kind': 'evaluation', 'd': 1}, '"t" must be scalar text'),
    ({'kind': 'evaluation', 'd': 10 ** 9, 't': 'q'}, 'does not fit'),
    ({'kind': 'tensor', 'factors': 'ab'}, 'exactly two factors'),
    ({'kind': 'tensor', 'factors': [1, 2]}, 'must be an object'),
])
def test_build_tensor_rejects_malformed_provenance(files, tmp_path, capsys,
                                                   provenance, reason):
    doc = read_json(files['ev'])
    doc['provenance'] = provenance
    bad = str(tmp_path / 'provenance.json')
    write_json(bad, doc)
    start = time.perf_counter()
    assert run('build', 'tensor', bad, files['ev']) == 1
    assert time.perf_counter() - start < 5
    assert reason in capsys.readouterr().err


def test_build_bad_params():
    assert run('build', 'evaluation', '--d', '-1') == 1
    assert run('build', 'evaluation', '--d', '1', '--t', '0') == 1
    assert run('build', 'evaluation', '--d', '1', '--q', '0') == 1


def test_reconstruct_output(files):
    doc = read_json(files['mod'])
    assert doc['algebra_id'] == 'BOXQ'
    assert doc['dimension'] == 2
    assert doc['provenance'] == {'kind': 'reconstructed', 'd': 1}
    ev = read_json(files['ev'])
    # x01 is the first pair member, which the loop file stores as y1
    assert doc['generators']['x01'] == ev['generators']['y1']
    assert doc['generators']['x23'] == ev['generators']['y0']


def test_reconstruct_from_pair_file(files, tmp_path):
    ev = read_json(files['ev'])
    pair = {'schema_version': 1, 'kind': 'aq_pair', 'dimension': 2,
            'field': {'mode': 'symbolic'},
            'matrices': {'X': ev['generators']['y1'],
                         'Y': ev['generators']['y0']}}
    path = str(tmp_path / 'pair.json')
    write_json(path, pair)
    out = str(tmp_path / 'mod.json')
    assert run('reconstruct', path, '--out', out) == 0
    assert read_json(out)['generators'] == read_json(files['mod'])['generators']


def test_reconstruct_trivial_pair(tmp_path):
    pair = {'schema_version': 1, 'kind': 'aq_pair', 'dimension': 1,
            'field': {'mode': 'symbolic'},
            'matrices': {'X': [['1']], 'Y': [['1']]}}
    path = str(tmp_path / 'pair.json')
    write_json(path, pair)
    out = str(tmp_path / 'triv.json')
    assert run('reconstruct', path, '--out', out) == 0
    doc = read_json(out)
    assert all(m == [['1']] for m in doc['generators'].values())


def test_reconstruct_structural_failure(tmp_path, capsys):
    pair = {'schema_version': 1, 'kind': 'aq_pair', 'dimension': 2,
            'field': {'mode': 'symbolic'},
            'matrices': {'X': [['0', '1'], ['0', '0']],
                         'Y': [['q', '0'], ['0', '(1)/(q)']]}}
    path = str(tmp_path / 'nil.json')
    write_json(path, pair)
    assert run('reconstruct', path) == 2
    assert 'spectrum mismatch' in capsys.readouterr().err


@pytest.mark.parametrize('key', ['schema_version', 'dimension'])
def test_boolean_integer_fields_rejected(key, tmp_path, capsys):
    # JSON true is a Python bool and True == 1, yet it is no integer
    pair = {'schema_version': 1, 'kind': 'aq_pair', 'dimension': 1,
            'field': {'mode': 'symbolic'},
            'matrices': {'X': [['1']], 'Y': [['1']]}}
    pair[key] = True
    path = str(tmp_path / 'pair.json')
    write_json(path, pair)
    assert run('reconstruct', path) == 1
    assert key in capsys.readouterr().err
    triv = str(tmp_path / 'triv.json')
    pair[key] = 1
    write_json(path, pair)
    assert run('reconstruct', path, '--out', triv) == 0
    doc = read_json(triv)
    doc[key] = True
    write_json(triv, doc)
    assert run('verify-relations', triv) == 1
    assert key in capsys.readouterr().err


def test_exponent_above_bound_rejected_fast(files, tmp_path, capsys):
    doc = read_json(files['mod'])
    doc['generators']['x01'][0][1] = f'q^{MAX_EXPONENT + 1}'
    path = str(tmp_path / 'huge.json')
    write_json(path, doc)
    start = time.process_time()
    assert run('verify-relations', path) == 1
    assert time.process_time() - start < 5.0
    assert 'exceeds the bound' in capsys.readouterr().err


def _q2_pair(tmp_path, x_entry):
    pair = {'schema_version': 1, 'kind': 'aq_pair', 'dimension': 1,
            'field': {'mode': 'specialized', 'q_value': '2'},
            'matrices': {'X': [[x_entry]], 'Y': [['1']]}}
    path = str(tmp_path / 'pair.json')
    write_json(path, pair)
    return path


@pytest.mark.parametrize('entry', [2, 0.5])
def test_scalar_entries_must_be_strings(entry, tmp_path, capsys):
    assert run('build', 'evaluation', '--d', '0', '--q', '2', '--out',
               str(tmp_path / 'ev.json')) == 0
    doc = read_json(tmp_path / 'ev.json')
    doc['generators']['y1'] = [[entry]]
    path = str(tmp_path / 'typed.json')
    write_json(path, doc)
    assert run('verify-relations', path) == 1
    assert 'generator y1' in capsys.readouterr().err
    assert run('reconstruct', _q2_pair(tmp_path, entry)) == 1
    assert 'matrix X' in capsys.readouterr().err


def test_q_value_must_be_a_string(tmp_path, capsys):
    path = _q2_pair(tmp_path, '1')
    doc = read_json(path)
    doc['field']['q_value'] = 2
    write_json(path, doc)
    assert run('reconstruct', path) == 1
    assert 'q_value' in capsys.readouterr().err


def test_algebra_id_of_another_json_type_rejected(files, tmp_path, capsys):
    doc = read_json(files['ev'])
    doc['algebra_id'] = ['LOOP_EQ']
    path = str(tmp_path / 'listed.json')
    write_json(path, doc)
    assert run('verify-relations', path) == 1
    assert 'unknown algebra_id' in capsys.readouterr().err


def test_exponent_notation_rejected_fast(tmp_path, capsys):
    start = time.process_time()
    assert run('reconstruct', _q2_pair(tmp_path, '1e2000000')) == 1
    assert time.process_time() - start < 1.0
    assert 'exponent notation' in capsys.readouterr().err
    assert run('build', 'evaluation', '--d', '0', '--q', '2e0') == 1
    assert '--q' in capsys.readouterr().err


def test_overlong_literal_named_error(tmp_path, capsys):
    pair = {'schema_version': 1, 'kind': 'aq_pair', 'dimension': 1,
            'field': {'mode': 'symbolic'},
            'matrices': {'X': [['9' * 5000]], 'Y': [['1']]}}
    path = str(tmp_path / 'long.json')
    write_json(path, pair)
    assert run('reconstruct', path) == 1
    err = capsys.readouterr().err
    assert err.startswith('error: bad scalar in matrix X')
    assert 'Traceback' not in err


def test_each_scalar_parsed_once_per_read(files, monkeypatch, capsys):
    calls = []
    parse = FieldContext.parse

    def counted(ctx, text):
        calls.append(text)
        return parse(ctx, text)
    monkeypatch.setattr(FieldContext, 'parse', counted)
    # a d = 1 loop file: six 2 x 2 generators, 24 entries
    assert run('verify-relations', files['ev']) == 0
    assert len(calls) == 24


def _scalars(ctx):
    if ctx.is_symbolic:
        q = ctx.q
        coeffs = st.integers(min_value=-9, max_value=9)
        return st.builds(lambda a, b, c, k: (a * q * q + b) / (c * q + 1)
                         * ctx.q_power(k), coeffs, coeffs, coeffs,
                         st.integers(min_value=-3, max_value=3))
    return st.fractions(max_denominator=50)


@st.composite
def small_modules(draw):
    ctx = draw(st.sampled_from([SYMBOLIC, specialized(2)]))
    algebra = draw(st.sampled_from(sorted(GENERATORS)))
    n = draw(st.integers(min_value=1, max_value=2))
    gens = {g: ExactMatrix(ctx, [[draw(_scalars(ctx)) for _ in range(n)]
                                 for _ in range(n)])
            for g in GENERATORS[algebra]}
    return MatrixRep(algebra, ctx, gens, provenance={'kind': 'random'})


@settings(max_examples=30, deadline=None)
@given(small_modules())
def test_document_round_trips_property(mod):
    text = ModuleFile.from_module(mod).to_json()
    doc = parse_document(text)
    assert doc.to_json() == text
    assert ModuleFile.from_module(doc.to_module()).to_json() == text
    pair = PairFile.from_pair(*list(mod.gens.values())[:2]).to_json()
    doc = parse_document(pair)
    assert doc.to_json() == pair
    assert PairFile.from_pair(*doc.to_pair()).to_json() == pair


def test_reconstructed_symbolic_file_round_trips(tmp_path):
    ev = str(tmp_path / 'ev3.json')
    mod = str(tmp_path / 'mod3.json')
    assert run('build', 'evaluation', '--d', '3', '--t', 'q + 1',
               '--out', ev) == 0
    assert run('reconstruct', ev, '--out', mod) == 0
    text = open(mod).read()
    assert parse_document(text).to_json() == text


def test_reconstruct_rejects_boxq_input(files):
    assert run('reconstruct', files['mod']) == 1


def test_reconstruct_ignores_word_cap_env(files, tmp_path, monkeypatch):
    # the closure search runs until its span stops growing; no variable
    # bounds its word length
    plain = str(tmp_path / 'plain.json')
    assert run('reconstruct', files['ev'], '--out', plain) == 0
    monkeypatch.setenv('QTETRA_WORD_CAP', '1')
    capped = str(tmp_path / 'capped.json')
    assert run('reconstruct', files['ev'], '--out', capped) == 0
    assert open(capped).read() == open(plain).read()


def test_analyze_pass(files, capsys):
    assert run('analyze', files['mod']) == 0
    out = capsys.readouterr().out
    assert 'epsilon: 1' in out
    assert 'diameter d: 1' in out
    assert 'shape: [1, 1]' in out
    assert 'overall: PASS' in out


def test_analyze_corrupted(files, tmp_path, capsys):
    doc = read_json(files['mod'])
    doc['generators']['x01'][0][1] = '5'
    bad = str(tmp_path / 'bad.json')
    write_json(bad, doc)
    assert run('analyze', bad) == 2
    out = capsys.readouterr().out
    assert 'overall: FAIL' in out
    assert 'x01' in out


def test_analyze_json_format(files, capsys):
    assert run('analyze', files['mod'], '--format', 'json') == 0
    report = json.loads(capsys.readouterr().out)
    for key in ('epsilon', 'd', 'shape', 'table_check',
                'flag_oppositeness', 'dimension_chains', 'passed'):
        assert key in report
    assert report['table_check']['violations'] == []
    assert report['passed'] is True


def test_analyze_rejects_wrong_algebra(files):
    assert run('analyze', files['ev']) == 1


GOLDEN = os.path.join(os.path.dirname(__file__), 'golden')


@pytest.mark.parametrize('name, code', [('boxq_d2', 0),
                                        ('boxq_d2_x13x2', 2)])
@pytest.mark.parametrize('fmt, suffix', [('json', 'json'), ('text', 'txt')])
def test_analyze_golden(tmp_path, name, code, fmt, suffix):
    # reports written before the spectra were shared: a reconstructed
    # d = 2 module, and a copy with x13 scaled by 2
    out = str(tmp_path / 'report')
    assert run('analyze', os.path.join(GOLDEN, f'{name}.json'),
               '--format', fmt, '--out', out) == code
    with open(os.path.join(GOLDEN, f'{name}.analyze.{suffix}'), 'rb') as f:
        expected = f.read()
    with open(out, 'rb') as handle:
        assert handle.read() == expected


def test_analyze_chain_of_negated_module(tmp_path, capsys):
    # a type -1 module's chain is taken at theta = -q^d, where its
    # eigenspaces are, not at q^d, where all eight are zero
    with open(os.path.join(GOLDEN, 'boxq_d2.json')) as handle:
        mod = parse_document(handle.read()).to_module()
    path = str(tmp_path / 'negated.json')
    with open(path, 'w') as handle:
        handle.write(ModuleFile.from_module(negate(mod)).to_json())
    assert run('analyze', path, '--format', 'json') == 2
    chain = json.loads(capsys.readouterr().out)['dimension_chains']
    assert chain['theta'] == '-q^2'
    assert chain['dims'] == [1] * 8
    assert chain['passed'] is True
    assert run('analyze', path) == 2
    assert ('dimension chain at theta = -q^2: pass'
            in capsys.readouterr().out.splitlines())


def test_analyze_detects_each_generator_once(monkeypatch, capsys):
    calls = []
    detect = modanalysis.detect_type_diameter

    def counting(m):
        calls.append(m)
        return detect(m)
    monkeypatch.setattr(modanalysis, 'detect_type_diameter', counting)
    assert run('analyze', os.path.join(GOLDEN, 'boxq_d2.json'),
               '--format', 'json') == 0
    assert json.loads(capsys.readouterr().out)['d'] == 2
    assert len(calls) == 8


def test_verify_relations_pass(files, capsys):
    assert run('verify-relations', files['mod']) == 0
    assert 'result: 20/20 relations hold' in capsys.readouterr().out


def test_verify_relations_failure(files, tmp_path, capsys):
    doc = read_json(files['ev'])
    doc['generators']['y1'][0][0] = '5'
    bad = str(tmp_path / 'broken.json')
    write_json(bad, doc)
    assert run('verify-relations', bad) == 2
    out = capsys.readouterr().out
    assert 'FAIL' in out


def test_verify_relations_json(files, capsys):
    assert run('verify-relations', files['ev'], '--format', 'json') == 0
    report = json.loads(capsys.readouterr().out)
    assert report['passed'] is True
    assert len(report['relations']) == 13


def test_verify_specialized_flag(files, capsys):
    assert run('verify-relations', files['mod'], '--q', '2') == 0
    capsys.readouterr()
    # a file already specialized at 2 cannot be moved to 3
    assert run('build', 'evaluation', '--d', '0', '--q', '2',
               '--out', str(files['root'] / 'q2.json')) == 0
    assert run('verify-relations', str(files['root'] / 'q2.json'),
               '--q', '3') == 1


def test_twist_relabels(files, tmp_path):
    out = str(tmp_path / 'tw.json')
    assert run('dualities', 'twist', files['mod'], '--n', '1',
               '--out', out) == 0
    doc = read_json(out)
    base = read_json(files['mod'])
    assert doc['generators']['x01'] == base['generators']['x12']
    assert doc['provenance']['kind'] == 'rho_twist'


def test_dual_is_involutive(files, tmp_path):
    once = str(tmp_path / 'dual.json')
    twice = str(tmp_path / 'dual2.json')
    assert run('dualities', 'dual', files['mod'], '--out', once) == 0
    assert run('dualities', 'dual', once, '--out', twice) == 0
    assert (read_json(twice)['generators']
            == read_json(files['mod'])['generators'])


def test_eightfold_report(files, capsys):
    assert run('dualities', 'eightfold', files['mod']) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == '0: V rho^0'
    assert lines[7] == '7: V* rho^3'
    grid = lines[8:]
    assert len(grid) == 8
    assert all(row.split()[1][int(row.split()[0])] == '#' for row in grid)


def test_omega_form_report(files, capsys):
    assert run('dualities', 'omega-form', files['mod']) == 0
    out = capsys.readouterr().out
    assert 'solution space dimension: 1' in out
    assert 'symmetric: yes' in out
    assert 'nondegenerate: yes' in out
    assert run('dualities', 'omega-form', files['mod'],
               '--format', 'json') == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob['gram'][0][0] == '1'


INVALID = os.path.join(GOLDEN, 'boxq_d2_x13x2.json')
TRANSFORMS = [('twist', '--n', '1'), ('dual',), ('eightfold',)]


@pytest.mark.parametrize('argv', TRANSFORMS)
def test_transforms_reject_module_failing_relations(argv, capsys):
    # relations are certified once, on the module read from the file
    assert run('dualities', argv[0], INVALID, *argv[1:]) == 1
    captured = capsys.readouterr()
    assert captured.out == ''
    assert 'fails relations' in captured.err


@pytest.mark.parametrize('argv', TRANSFORMS)
def test_failing_module_without_provenance_names_no_kind(argv, tmp_path,
                                                         capsys):
    doc = read_json(INVALID)
    del doc['provenance']
    bare = str(tmp_path / 'bare.json')
    write_json(bare, doc)
    assert run('dualities', argv[0], bare, *argv[1:]) == 1
    err = capsys.readouterr().err
    assert err.startswith('error: BOXQ module fails relations: [')
    assert 'None' not in err


def test_omega_form_reports_on_module_failing_relations(capsys):
    # the form search is a report: it does not certify its input
    assert run('dualities', 'omega-form', INVALID) == 0
    assert 'solution space dimension:' in capsys.readouterr().out


def test_dualities_reject_wrong_algebra(files):
    assert run('dualities', 'twist', files['ev'], '--n', '1') == 1
    assert run('dualities', 'omega-form', files['ev']) == 1


def test_stdout_default_output(files, capsys):
    assert run('dualities', 'twist', files['mod'], '--n', '2') == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc['algebra_id'] == 'BOXQ'


def test_no_temp_files_left_behind(files):
    leftovers = [name for name in os.listdir(files['root'])
                 if name.startswith('.qtetra-')]
    assert leftovers == []


def test_bad_command_line_exit_code():
    with pytest.raises(SystemExit) as info:
        run('frobnicate')
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        run('build', 'evaluation')      # --d is required
    assert info.value.code == 1
