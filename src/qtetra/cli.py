"""Command-line front end: build, analyze, reconstruct, verify, dualities.

Exit codes are a stable scripting contract: 0 when every requested check
passes, 1 for input problems (bad arguments, malformed files), 2 for
structural or relation failures found in well-formed input.
"""

from __future__ import annotations

import argparse
import json
import sys

from qtetra.dualities import (
    DualityError,
    dual_module,
    eightfold_comparison,
    omega_form,
    twist_rho,
)
from qtetra.exactla import specialize_matrix
from qtetra.fileformat import (
    FileFormatError,
    ModuleFile,
    PairFile,
    read_document,
    write_text,
)
from qtetra.modanalysis import (
    AnalysisError,
    ModuleSpectra,
    check_action_tables,
    check_dimension_chain,
    check_opposite,
    flag_of,
    shape_of,
)
from qtetra.presentations import (
    LOOP_EQ,
    PresentationError,
    require_boxq,
)
from qtetra.reconstruct import ReconstructError, reconstruct_boxq
from qtetra.repbuilder import (
    EvaluationParams,
    MatrixRep,
    RepError,
    aq_pair_of,
    certify,
    evaluation_module,
    tensor_modules,
    uqsl2_equitable_module,
)
from qtetra.scalars import (
    SYMBOLIC,
    ScalarError,
    SpecializationError,
    specialized,
)

EXIT_PASS = 0
EXIT_INPUT = 1
EXIT_STRUCTURAL = 2


class CliError(ValueError):
    """A problem with arguments, files, or environment configuration."""


# -- small helpers ---------------------------------------------------------

def _yn(flag: bool) -> str:
    return 'yes' if flag else 'no'


def _emit(text: str, out_path) -> None:
    if out_path:
        write_text(out_path, text)
    else:
        sys.stdout.write(text)


def _emit_module(mod: MatrixRep, out_path) -> None:
    _emit(ModuleFile.from_module(mod).to_json(), out_path)


def _json_text(blob: dict) -> str:
    return json.dumps(blob, sort_keys=True, indent=2) + '\n'


def _build_ctx(q_text):
    if q_text is None:
        return SYMBOLIC
    try:
        return specialized(q_text)
    except ScalarError as exc:
        raise CliError(f'bad --q value: {exc}') from None


def _at_q(matrices: list, q_text) -> list:
    """Evaluate loaded matrices at the --q value; a file already
    specialized there passes unchanged."""
    if q_text is None:
        return matrices
    ctx, have = _build_ctx(q_text), matrices[0].ctx
    if have.is_symbolic:
        return [specialize_matrix(m, ctx) for m in matrices]
    if have.q_value != ctx.q_value:
        raise CliError(
            f'file is specialized at q = {have.q_value}, '
            f'cannot re-specialize at q = {ctx.q_value}')
    return matrices


def _load_module(path: str, q_text=None) -> MatrixRep:
    """Read a module file, decode its scalars once and apply --q."""
    doc = read_document(path)
    if not isinstance(doc, ModuleFile):
        raise CliError(f'{path} holds a generator pair, not a module')
    mod = doc.to_module()
    if q_text is None:
        return mod
    matrices = _at_q(list(mod.gens.values()), q_text)
    return MatrixRep(mod.algebra_id, matrices[0].ctx,
                     dict(zip(mod.gens, matrices)), provenance=mod.provenance)


def _load_boxq(args) -> MatrixRep:
    mod = _load_module(args.file, getattr(args, 'q', None))
    require_boxq(mod, CliError)
    return mod


# -- build -----------------------------------------------------------------

def cmd_build_evaluation(args) -> int:
    ctx = _build_ctx(args.q)
    mod = evaluation_module(EvaluationParams(args.d, args.t), ctx)
    _emit_module(mod, args.out)
    return EXIT_PASS


def cmd_build_uqsl2(args) -> int:
    ctx = _build_ctx(args.q)
    _emit_module(uqsl2_equitable_module(args.d, ctx), args.out)
    return EXIT_PASS


def cmd_build_tensor(args) -> int:
    factors = []
    for path in args.factors:
        stated = _load_module(path)
        if stated.algebra_id != LOOP_EQ:
            raise CliError(
                f'{path}: tensor factors must be {LOOP_EQ} modules, '
                f'got {stated.algebra_id}')
        factors.append(
            certify(stated, lambda msg: CliError(f'{path}: {msg}')))
    _emit_module(tensor_modules(*factors), args.out)
    return EXIT_PASS


# -- analyze ---------------------------------------------------------------

def _analyze_report(mod: MatrixRep) -> dict:
    spectra = ModuleSpectra(mod)
    report = {}
    passed = True
    theta = None
    try:
        shape = shape_of(spectra)
        report['epsilon'] = shape.epsilon
        report['d'] = shape.d
        report['shape'] = list(shape.shape)
        report['shape_uniform'] = shape.uniform
        report['shape_palindromic'] = shape.palindromic
        passed = passed and shape.passed
        theta = shape.epsilon * mod.ctx.q_power(shape.d)
    except AnalysisError as exc:
        report['shape_error'] = str(exc)
        passed = False

    table = check_action_tables(spectra)
    report['table_check'] = table.to_dict()
    passed = passed and table.passed

    pairs = {}
    flags_ok = True
    try:
        flags = [flag_of(spectra, i) for i in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                opposite = check_opposite(flags[i], flags[j]) is not None
                pairs[f'{i},{j}'] = opposite
                flags_ok = flags_ok and opposite
    except AnalysisError as exc:
        pairs['error'] = str(exc)
        flags_ok = False
    report['flag_oppositeness'] = {'pairs': pairs, 'passed': flags_ok}
    passed = passed and flags_ok

    if theta is None:
        report['dimension_chains'] = {'skipped': 'diameter unknown'}
    else:
        try:
            chain = check_dimension_chain(mod, theta)
            report['dimension_chains'] = chain.to_dict()
            passed = passed and chain.passed
        except AnalysisError as exc:
            report['dimension_chains'] = {'error': str(exc)}
            passed = False

    report['passed'] = passed
    return report


def _analyze_text(report: dict) -> str:
    lines = []
    if 'shape_error' in report:
        lines.append(f'shape detection failed: {report["shape_error"]}')
    else:
        lines.append(f'epsilon: {report["epsilon"]}')
        lines.append(f'diameter d: {report["d"]}')
        lines.append(f'shape: {report["shape"]}')
        lines.append(f'shape uniform: {_yn(report["shape_uniform"])}')
        lines.append(
            f'shape palindromic: {_yn(report["shape_palindromic"])}')
    table = report['table_check']
    if table['passed']:
        lines.append('action tables: pass')
    else:
        lines.append(
            f'action tables: FAIL ({len(table["violations"])} violations, '
            f'{len(table["spectrum_failures"])} spectrum failures)')
        for tno, row, i, n in table['violations']:
            lines.append(f'  table {tno} row {row} i={i} n={n}')
        for label in table['spectrum_failures']:
            lines.append(f'  no clean spectrum for {label}')
    flags = report['flag_oppositeness']
    lines.append(
        f'flag oppositeness: {"pass" if flags["passed"] else "FAIL"}')
    if not flags['passed']:
        for key, value in sorted(flags['pairs'].items()):
            lines.append(f'  pair {key}: {value}')
    chains = report['dimension_chains']
    if 'passed' in chains:
        verdict = 'pass' if chains['passed'] else 'FAIL'
        lines.append(
            f'dimension chain at theta = {chains["theta"]}: {verdict}')
    elif 'error' in chains:
        lines.append(f'dimension chain: failed ({chains["error"]})')
    else:
        lines.append('dimension chain: skipped')
    lines.append(f'overall: {"PASS" if report["passed"] else "FAIL"}')
    return '\n'.join(lines) + '\n'


def cmd_analyze(args) -> int:
    mod = _load_boxq(args)
    report = _analyze_report(mod)
    if args.format == 'json':
        _emit(_json_text(report), args.out)
    else:
        _emit(_analyze_text(report), args.out)
    return EXIT_PASS if report['passed'] else EXIT_STRUCTURAL


# -- reconstruct -----------------------------------------------------------

def cmd_reconstruct(args) -> int:
    doc = read_document(args.file)
    if isinstance(doc, PairFile):
        X, Y = doc.to_pair()
    else:
        mod = doc.to_module()
        if mod.algebra_id != LOOP_EQ:
            raise CliError(
                f'reconstruct needs a pair file or a {LOOP_EQ} module '
                f'file, got a {mod.algebra_id} module')
        X, Y = aq_pair_of(mod)
    X, Y = _at_q([X, Y], args.q)
    _emit_module(reconstruct_boxq(X, Y), args.out)
    return EXIT_PASS


# -- verify-relations ------------------------------------------------------

def _check_text(blob: dict) -> str:
    lines = [f'algebra: {blob["algebra_id"]}',
             f'dimension: {blob["dimension"]}']
    for result in blob['relations']:
        if result['passed']:
            lines.append(f'PASS {result["id"]}')
        else:
            note = ''
            if result['residual_degree'] is not None:
                note = f' (residual degree {result["residual_degree"]})'
            lines.append(f'FAIL {result["id"]}{note}')
    total = len(blob['relations'])
    held = total - len(blob['failing'])
    lines.append(f'result: {held}/{total} relations hold')
    return '\n'.join(lines) + '\n'


def cmd_verify(args) -> int:
    report = _load_module(args.file, args.q).check().to_dict()
    if args.format == 'json':
        _emit(_json_text(report), args.out)
    else:
        _emit(_check_text(report), args.out)
    return EXIT_PASS if report['passed'] else EXIT_STRUCTURAL


# -- dualities -------------------------------------------------------------

def cmd_twist(args) -> int:
    mod = certify(_load_boxq(args), CliError)
    _emit_module(twist_rho(mod, args.n), args.out)
    return EXIT_PASS


def cmd_dual(args) -> int:
    mod = certify(_load_boxq(args), CliError)
    _emit_module(dual_module(mod), args.out)
    return EXIT_PASS


def _eightfold_text(blob: dict) -> str:
    lines = []
    for index, label in enumerate(blob['labels']):
        lines.append(f'{index}: {label}')
    for index, row in enumerate(blob['isomorphic']):
        cells = ''.join('#' if cell else '.' for cell in row)
        lines.append(f'{index}  {cells}')
    return '\n'.join(lines) + '\n'


def cmd_eightfold(args) -> int:
    mod = certify(_load_boxq(args), CliError)
    table = eightfold_comparison(mod).to_dict()
    if args.format == 'json':
        _emit(_json_text(table), args.out)
    else:
        _emit(_eightfold_text(table), args.out)
    return EXIT_PASS


def _omega_text(blob: dict) -> str:
    lines = [f'solution space dimension: {blob["solution_space_dim"]}',
             f'symmetric: {_yn(blob["symmetric"])}',
             f'nondegenerate: {_yn(blob["nondegenerate"])}']
    if blob['gram'] is None:
        lines.append('gram: none')
    else:
        lines.append('gram:')
        for row in blob['gram']:
            lines.append('  ' + '  '.join(row))
    return '\n'.join(lines) + '\n'


def cmd_omega(args) -> int:
    candidate = omega_form(_load_boxq(args)).to_dict()
    if args.format == 'json':
        _emit(_json_text(candidate), args.out)
    else:
        _emit(_omega_text(candidate), args.out)
    return EXIT_PASS


# -- parser ----------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse with exit code 1 (not 2) for bad command lines."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f'error: {message}\n')


def _add_out(parser) -> None:
    parser.add_argument('--out', metavar='FILE',
                        help='write output here (default: stdout)')


def _add_format(parser) -> None:
    parser.add_argument('--format', choices=('text', 'json'),
                        default='text', help='report format')


def _add_q(parser) -> None:
    parser.add_argument('--q', metavar='RATIONAL',
                        help='work at this rational q instead of symbolic q')


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog='qtetra',
        description='Exact modules for the q-tetrahedron algebra: '
                    'construction, structural analysis, reconstruction.')
    sub = parser.add_subparsers(dest='command', required=True)

    build = sub.add_parser('build',
                           help='construct a module and write it as JSON')
    kinds = build.add_subparsers(dest='kind', required=True)

    ev = kinds.add_parser('evaluation',
                          help='loop module from a weight and a parameter')
    ev.add_argument('--d', type=int, required=True,
                    help='highest weight (diameter), d >= 0')
    ev.add_argument('--t', default='1',
                    help='evaluation parameter, nonzero scalar text')
    _add_q(ev)
    _add_out(ev)
    ev.set_defaults(handler=cmd_build_evaluation)

    uq = kinds.add_parser('uqsl2',
                          help='equitable-presentation module of weight d')
    uq.add_argument('--d', type=int, required=True)
    _add_q(uq)
    _add_out(uq)
    uq.set_defaults(handler=cmd_build_uqsl2)

    tensor = kinds.add_parser('tensor',
                              help='tensor product of two loop modules')
    tensor.add_argument('factors', nargs=2, metavar='FILE')
    _add_out(tensor)
    tensor.set_defaults(handler=cmd_build_tensor)

    analyze = sub.add_parser('analyze',
                             help='spectra, shape, tables, flags, chains')
    analyze.add_argument('file')
    _add_q(analyze)
    _add_format(analyze)
    _add_out(analyze)
    analyze.set_defaults(handler=cmd_analyze)

    rec = sub.add_parser('reconstruct',
                         help='full module from a generator pair')
    rec.add_argument('file', help='pair file, or a loop module file')
    _add_q(rec)
    _add_out(rec)
    rec.set_defaults(handler=cmd_reconstruct)

    verify = sub.add_parser('verify-relations',
                            help='evaluate every defining relation')
    verify.add_argument('file')
    _add_q(verify)
    _add_format(verify)
    _add_out(verify)
    verify.set_defaults(handler=cmd_verify)

    dualities = sub.add_parser('dualities',
                               help='twists, duals, and form candidates')
    ops = dualities.add_subparsers(dest='operation', required=True)

    twist = ops.add_parser('twist', help='relabel generators cyclically')
    twist.add_argument('file')
    twist.add_argument('--n', type=int, required=True,
                       help='number of quarter turns')
    _add_out(twist)
    twist.set_defaults(handler=cmd_twist)

    dual = ops.add_parser('dual', help='dual module on transposes')
    dual.add_argument('file')
    _add_out(dual)
    dual.set_defaults(handler=cmd_dual)

    eight = ops.add_parser('eightfold',
                           help='isomorphism table of twists and duals')
    eight.add_argument('file')
    _add_format(eight)
    _add_out(eight)
    eight.set_defaults(handler=cmd_eightfold)

    omega = ops.add_parser('omega-form',
                           help='search for an invariant bilinear form')
    omega.add_argument('file')
    _add_format(omega)
    _add_out(omega)
    omega.set_defaults(handler=cmd_omega)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ReconstructError as exc:
        print(f'error: reconstruction failed — {exc}', file=sys.stderr)
        return EXIT_STRUCTURAL
    except AnalysisError as exc:
        print(f'error: {exc}', file=sys.stderr)
        return EXIT_STRUCTURAL
    except (CliError, FileFormatError, RepError, PresentationError,
            DualityError, SpecializationError, ScalarError,
            OSError) as exc:
        print(f'error: {exc}', file=sys.stderr)
        return EXIT_INPUT


if __name__ == '__main__':
    sys.exit(main())
