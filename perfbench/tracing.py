"""The traced mode: spans around each layer's calls, seen from outside.

Wrappers are installed where the callers look the functions up: in the
namespace of the calling module for module-level functions, on the class
for methods.  Each call records a span (id, parent, name, start, end,
operation id) in memory; nothing is written until the run ends.  The
program's code is not changed.

Self times follow the benchmark's timing rule.  A span's wall-clock self
time (its duration minus the part its child spans cover) is converted to
reference-scaled CPU time with the ratio of its operation's scaled CPU
time to the operation's wall time.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter, defaultdict

_now = time.perf_counter


class Tracer:
    """Span recorder plus the counters that need the call's arguments."""

    def __init__(self):
        self.spans = []        # [id, parent, name, start, end, op, tag]
        self.stack = []
        self.op = None
        self.counts = Counter()
        self.modules_checked = set()
        self._undo = []

    # -- recording ---------------------------------------------------------

    def begin_op(self, op_id, name):
        self.op = op_id
        return self._open(name, None)

    def _open(self, name, tag):
        span = [len(self.spans), self.stack[-1][0] if self.stack else None,
                name, _now(), None, self.op, tag]
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span):
        span[4] = _now()
        self.stack.pop()

    def wrap(self, fn, name, tag=None, before=None, after=None):
        """``fn`` inside a span; ``before(args)`` may return a tag,
        ``after(args, result)`` counts what the call produced."""
        def traced(*args, **kwargs):
            span = self._open(name, before(args) if before else tag)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if after:
                after(args, result)
            return result
        return traced

    # -- installation ------------------------------------------------------

    def patch(self, owner, attr, name, **hooks):
        original = vars(owner)[attr]
        if isinstance(original, (classmethod, staticmethod)):
            wrapped = staticmethod(self.wrap(getattr(owner, attr), name,
                                             **hooks))
        else:
            wrapped = self.wrap(original, name, **hooks)
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def install(self):
        """Wrap the public entry points of every ``qtetra`` layer."""
        import qtetra.cli as cli
        import qtetra.dualities as dualities
        import qtetra.exactla as exactla
        import qtetra.fileformat as fileformat
        import qtetra.modanalysis as modanalysis
        import qtetra.reconstruct as reconstruct
        import qtetra.repbuilder as repbuilder
        import qtetra.scalars as scalars

        for attr, layer in (('cmd_build_evaluation', 'build'),
                            ('cmd_build_uqsl2', 'build'),
                            ('cmd_build_tensor', 'build'),
                            ('cmd_reconstruct', 'reconstruct'),
                            ('cmd_analyze', 'analyze'),
                            ('cmd_verify', 'verify'),
                            ('cmd_twist', 'dualities'),
                            ('cmd_dual', 'dualities'),
                            ('cmd_eightfold', 'dualities'),
                            ('cmd_omega', 'dualities')):
            self.patch(cli, attr, f'cli.{layer}')

        # fileformat: the read path and the write path
        self.patch(cli, 'read_document', 'fileformat.read',
                   after=self._count_read)
        self.patch(fileformat.ModuleFile, 'to_module', 'fileformat.decode')
        self.patch(fileformat.PairFile, 'to_pair', 'fileformat.decode')
        self.patch(fileformat.ModuleFile, 'from_module', 'fileformat.write')
        self.patch(fileformat.ModuleFile, 'to_json', 'fileformat.write')
        self.patch(cli, 'write_text', 'fileformat.write',
                   after=self._count_write)

        self.patch(scalars.FieldContext, 'parse', 'scalars.parse')
        self.patch(scalars.FieldContext, 'specialize', 'scalars.specialize')

        matmul = vars(exactla.ExactMatrix)['__mul__']
        traced_matmul = self.wrap(matmul, 'exactla.matmul')

        def mul(a, b):
            if isinstance(b, exactla.ExactMatrix):
                return traced_matmul(a, b)
            return matmul(a, b)
        exactla.ExactMatrix.__mul__ = mul
        self._undo.append((exactla.ExactMatrix, '__mul__', matmul))
        self.patch(exactla, '_rref', 'exactla.rref')
        self.patch(exactla.ExactMatrix, 'inverse', 'exactla.inverse')
        self.patch(exactla.ExactMatrix, 'rank', 'exactla.rank')
        self.patch(exactla, 'kernel', 'exactla.kernel')
        self.patch(exactla, 'subspace_intersect', 'exactla.intersect')
        self.patch(reconstruct, 'algebra_closure_dim', 'exactla.closure',
                   before=self._closure_field)
        self.patch(exactla, '_closure_span', 'exactla.closure_span',
                   before=self._count_points)
        self.patch(dualities, 'intertwiner_space', 'exactla.intertwiner',
                   before=self._count_unknowns)
        self.patch(dualities, 'invertible_witness', 'exactla.witness',
                   after=self._count_witness)

        for owner in (repbuilder, reconstruct):
            self.patch(owner, 'check_representation', 'presentations.check',
                       before=self._check_tag)

        for owner in (modanalysis, reconstruct):
            self.patch(owner, 'detect_type_diameter', 'modanalysis.detect',
                       after=self._count_detect)
        self.patch(modanalysis, 'spectrum_decompose', 'modanalysis.decompose')
        for attr, name in (('shape_of', 'modanalysis.shape'),
                           ('check_action_tables', 'modanalysis.tables'),
                           ('flag_of', 'modanalysis.flags'),
                           ('check_opposite', 'modanalysis.opposite'),
                           ('check_dimension_chain', 'modanalysis.chain'),
                           ('reconstruct_boxq', 'reconstruct.total'),
                           ('twist_rho', 'dualities.transform'),
                           ('dual_module', 'dualities.transform'),
                           ('eightfold_comparison', 'dualities.eightfold'),
                           ('omega_form', 'dualities.omega'),
                           ('evaluation_module', 'repbuilder.build'),
                           ('tensor_modules', 'repbuilder.build'),
                           ('uqsl2_equitable_module', 'repbuilder.build')):
            self.patch(cli, attr, name)

        self.patch(reconstruct, 'pair_profile', 'reconstruct.spectrum')
        self.patch(reconstruct, 'irreducible_pair', 'reconstruct.irreducible')
        self.patch(reconstruct, 'check_opposite', 'modanalysis.opposite',
                   tag='reconstruct.flags')
        self.patch(reconstruct, '_matrix_with_eigenvalues',
                   'reconstruct.eigenvalues')
        for attr in ('twist_rho', 'dual_module', 'negate'):
            self.patch(dualities, attr, 'dualities.transform')
        self.patch(dualities, 'isomorphic', 'dualities.isomorphic')

    # -- counting hooks ----------------------------------------------------

    def _count_read(self, args, doc):
        self.counts['fileformat.bytes_read'] += os.path.getsize(args[0])
        blobs = getattr(doc, 'generators', None) or doc.matrices
        self.counts['scalars.read'] += sum(
            len(row) for rows in blobs.values() for row in rows)

    def _count_write(self, args, _result):
        self.counts['fileformat.bytes_written'] += len(
            args[1].encode('utf-8'))

    @staticmethod
    def _closure_field(args):
        return 'symbolic' if args[0][0].ctx.is_symbolic else None

    def _count_points(self, args):
        # a specialized span inside a symbolic closure is one sample point
        parent = self.stack[-1] if self.stack else None
        if (not args[0][0].ctx.is_symbolic and parent is not None
                and parent[2] == 'exactla.closure'
                and parent[6] == 'symbolic'):
            self.counts['exactla.closure.points_tried'] += 1
        return None

    def _count_unknowns(self, args):
        first = next(iter(args[0].values()))
        self.counts['exactla.intertwiner.unknowns'] += first.rows ** 2
        return None

    def _count_witness(self, _args, result):
        if result is not None:
            self.counts['exactla.witness.found'] += 1

    def _check_tag(self, args):
        algebra_id, assignment = args
        key = (algebra_id,) + tuple(
            (g, tuple(map(tuple, assignment[g].data)))
            for g in sorted(assignment))
        self.modules_checked.add(hash(key))
        if self.stack and self.stack[-1][2] == 'reconstruct.total':
            return 'reconstruct.aq' if algebra_id == 'AQ' \
                else 'reconstruct.relations'
        return None

    def _count_detect(self, _args, _result):
        self.counts['modanalysis.detect.found'] += 1


def span_times(spans, factors):
    """Reference-scaled self and inclusive time per span name, and
    inclusive time per tag; ``factors`` maps an operation id to its scaled
    CPU seconds per wall second."""
    covered = defaultdict(float)
    for span in spans:
        if span[1] is not None:
            covered[span[1]] += span[4] - span[3]
    self_s = defaultdict(float)
    inclusive = defaultdict(float)
    for span in spans:
        factor = factors[span[5]]
        duration = span[4] - span[3]
        self_s[span[2]] += (duration - covered[span[0]]) * factor
        inclusive[span[2]] += duration * factor
        if span[6]:
            inclusive[span[6]] += duration * factor
    return self_s, inclusive


def _self_s(self_s, *names):
    return sum(self_s.get(n, 0.0) for n in names)


def layer_metrics(tracer, first_span, factors, pass_s):
    """The per-layer metrics of the spans from index ``first_span`` on;
    ``pass_s`` is the scaled CPU time they cover."""
    spans = tracer.spans[first_span:]
    self_s, incl = span_times(spans, factors)
    calls = Counter(span[2] for span in spans)
    counts = tracer.counts
    parse_in_read = sum(
        1 for s in spans if s[2] == 'scalars.parse' and s[1] is not None
        and tracer.spans[s[1]][2].startswith('fileformat.'))
    witness_trials = sum(
        1 for s in spans if s[2] == 'exactla.rank' and s[1] is not None
        and tracer.spans[s[1]][2] == 'exactla.witness')

    def ratio(num, den):
        return num / den if den else float(num)

    return {
        'cli.build.s': self_s['cli.build'],
        'cli.reconstruct.s': self_s['cli.reconstruct'],
        'cli.analyze.s': self_s['cli.analyze'],
        'cli.verify.s': self_s['cli.verify'],
        'cli.dualities.s': self_s['cli.dualities'],
        'fileformat.read.calls': calls['fileformat.read'],
        'fileformat.read.s': _self_s(self_s, 'fileformat.read',
                                     'fileformat.decode'),
        'fileformat.write.s': self_s['fileformat.write'],
        'fileformat.bytes_read': counts['fileformat.bytes_read'],
        'fileformat.bytes_written': counts['fileformat.bytes_written'],
        'scalars.parse.calls': calls['scalars.parse'],
        'scalars.parse.s': self_s['scalars.parse'],
        'scalars.specialize.calls': calls['scalars.specialize'],
        'scalars.specialize.s': self_s['scalars.specialize'],
        'scalars.parse_per_entry': ratio(parse_in_read,
                                         counts['scalars.read']),
        'exactla.matmul.calls': calls['exactla.matmul'],
        'exactla.matmul.s': self_s['exactla.matmul'],
        'exactla.rref.calls': calls['exactla.rref'],
        'exactla.rref.s': self_s['exactla.rref'],
        'exactla.inverse.calls': calls['exactla.inverse'],
        'exactla.kernel.calls': calls['exactla.kernel'],
        'exactla.kernel.s': self_s['exactla.kernel'],
        'exactla.intersect.calls': calls['exactla.intersect'],
        'exactla.intersect.s': self_s['exactla.intersect'],
        'exactla.closure.calls': calls['exactla.closure'],
        'exactla.closure.s': _self_s(self_s, 'exactla.closure',
                                     'exactla.closure_span'),
        'exactla.closure.points_tried':
            counts['exactla.closure.points_tried'],
        'exactla.intertwiner.calls': calls['exactla.intertwiner'],
        'exactla.intertwiner.unknowns':
            counts['exactla.intertwiner.unknowns'],
        'exactla.intertwiner.s': self_s['exactla.intertwiner'],
        'exactla.witness.trials_per_found':
            ratio(witness_trials, counts['exactla.witness.found']),
        'presentations.check.calls': calls['presentations.check'],
        'presentations.check.s': self_s['presentations.check'],
        'presentations.checks_per_module':
            ratio(calls['presentations.check'], len(tracer.modules_checked)),
        'modanalysis.detect.calls': calls['modanalysis.detect'],
        'modanalysis.detect.s': self_s['modanalysis.detect'],
        'modanalysis.shape.s': self_s['modanalysis.shape'],
        'modanalysis.tables.s': self_s['modanalysis.tables'],
        'modanalysis.flags.s': self_s['modanalysis.flags'],
        'modanalysis.opposite.calls': calls['modanalysis.opposite'],
        'modanalysis.opposite.s': self_s['modanalysis.opposite'],
        'modanalysis.chain.s': self_s['modanalysis.chain'],
        'modanalysis.decompose_per_detect':
            ratio(calls['modanalysis.decompose'],
                  counts['modanalysis.detect.found']),
        'reconstruct.spectrum.s': incl['reconstruct.spectrum'],
        'reconstruct.aq.s': incl['reconstruct.aq'],
        'reconstruct.irreducible.s': incl['reconstruct.irreducible'],
        'reconstruct.flags.s': incl['reconstruct.flags'],
        'reconstruct.eigenvalues.s': incl['reconstruct.eigenvalues'],
        'reconstruct.relations.s': incl['reconstruct.relations'],
        'reconstruct.total.s': incl['reconstruct.total'],
        'dualities.transform.calls': calls['dualities.transform'],
        'dualities.transform.s': self_s['dualities.transform'],
        'dualities.isomorphic.calls': calls['dualities.isomorphic'],
        'dualities.isomorphic.s': self_s['dualities.isomorphic'],
        'dualities.eightfold.s': self_s['dualities.eightfold'],
        'dualities.omega.s': self_s['dualities.omega'],
        'repbuilder.build.s': self_s['repbuilder.build'],
        'trace.spans': len(spans),
        'trace.pass_s': pass_s,
        'trace.overhead_s': 0.0,
    }


def unit(name):
    if name.endswith('.s') or name.endswith('_s'):
        return 's'
    if name.startswith('fileformat.bytes'):
        return 'bytes'
    if '_per_' in name:
        return 'ratio'
    return 'count'


def write_spans(path, spans, origin):
    """One JSON object per line: id, parent, name, start, end (seconds
    since the run started) and the operation id."""
    with open(path, 'w', encoding='utf-8') as handle:
        for sid, parent, name, start, end, op, _tag in spans:
            handle.write(json.dumps({
                'id': sid, 'parent': parent, 'name': name,
                'start': round(start - origin, 6),
                'end': round(end - origin, 6), 'op': op}) + '\n')
