"""Benchmark of the ``qtetra`` command-line pipelines.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/`` directory and driven in-process through ``qtetra.cli.main`` on
files in a temporary directory under ``.perfbench/``.  Every pass runs the
same operations on inputs made from the seed, and passes repeat until
``--seconds`` have gone by.  Every output is checked by ``checks.py``,
which does not import ``qtetra``.

Timing rule: each operation's process CPU time is scaled by
``reference.NOMINAL_S`` over the reference kernel's CPU time measured just
before and just after it.  Raw CPU and wall seconds are printed on the
line before the result as reference figures.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run
also writes its spans as JSON lines to ``.perfbench/spans-<workload>.jsonl``.
"""

import time

_START_WALL = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, 'src')
OUT_DIR = os.path.join(ROOT, '.perfbench')


def _die(message):
    print(f'perfbench: {message}', file=sys.stderr)
    sys.exit(2)


def _import_program():
    """Import ``qtetra.cli`` from this checkout's ``src/``, nowhere else."""
    if not os.path.isfile(os.path.join(SRC, 'qtetra', 'cli.py')):
        _die(f'no qtetra sources under {SRC}; run from a checkout root')
    sys.path.insert(0, SRC)
    import qtetra
    import qtetra.cli
    if not os.path.abspath(qtetra.__file__).startswith(SRC + os.sep):
        _die(f'qtetra was imported from {qtetra.__file__}, not {SRC}')
    return qtetra.cli


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    parser.add_argument('--workload', required=True)
    parser.add_argument('--seed', type=int, required=True)
    parser.add_argument('--seconds', type=float, required=True)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Runner:
    """Runs operations through ``cli.main`` and times them."""

    def __init__(self, cli, reference, nominal):
        self.cli = cli
        self.reference = reference
        self.nominal = nominal
        self.tracer = None
        self.factors = {}
        self.op_count = 0
        self.last_ref = None

    def start_measuring(self):
        self.reference()      # the first run in a process is a cold one
        self.last_ref = self._ref()

    def _ref(self):
        """The mean of two kernel runs: one alone is often caught by a
        short change of the host's speed."""
        gc.collect()
        return (self.reference() + self.reference()) / 2

    def run(self, argv, work, measure=True):
        """(exit code, stderr text, scaled CPU s, raw CPU s, wall s).

        Without ``measure`` the reference kernel is not run and the scaled
        time is 0: for set-up work, which is timed as a whole.
        """
        argv = [a if not a.endswith('.json') else os.path.join(work, a)
                for a in argv]
        err = io.StringIO()
        gc.collect()
        span = None
        if self.tracer is not None:
            span = self.tracer.begin_op(self.op_count, 'cli.main')
        cpu0, wall0 = time.process_time(), time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
        cpu = time.process_time() - cpu0
        wall = time.perf_counter() - wall0
        if span is not None:
            self.tracer.close(span)
        if not measure:
            return rc, err.getvalue(), 0.0, cpu, wall
        ref = self._ref()
        scaled = cpu * self.nominal / ((self.last_ref + ref) / 2)
        self.last_ref = ref
        self.factors[self.op_count] = scaled / wall if wall > 0 else 0.0
        self.op_count += 1
        return rc, err.getvalue(), scaled, cpu, wall


def _write_files(work, files):
    for name, text in files.items():
        with open(os.path.join(work, name), 'w', encoding='utf-8') as fh:
            fh.write(text)


def _run_pass(runner, plan, root, name):
    """One pass over the plan in a fresh directory ``root/name``.

    Returns (totals, largest, attempted, failed, faults, problems) where
    totals and largest are (scaled, raw CPU, wall) sums.
    """
    totals = [0.0, 0.0, 0.0]
    largest = [0.0, 0.0, 0.0]
    attempted = failed = 0
    faults, problems = [], []
    work = os.path.join(root, name)
    os.makedirs(work)
    for pipe in plan.pipelines:
        _write_files(work, pipe.files)
        if pipe.base is not None:
            shutil.copy(os.path.join(root, pipe.base[2]), work)
        ok = True
        for op in pipe.ops:
            rc, err, scaled, cpu, wall = runner.run(op.argv, work)
            for acc in ([totals, largest] if pipe.name == plan.largest
                        else [totals]):
                acc[0] += scaled
                acc[1] += cpu
                acc[2] += wall
            attempted += 1
            if rc != op.rc or op.stage not in err:
                failed += 1
                ok = False
                if op.fault:
                    faults.append(op.fault)
                else:
                    problems.append(f'{pipe.name}: {" ".join(op.argv)} '
                                    f'exited {rc}, expected {op.rc} '
                                    f'{op.stage!r}: {err.strip()[:200]}')
        if ok and pipe.check is not None:
            problems += [f'{pipe.name}: {p}' for p in pipe.check(work)]
    shutil.rmtree(work)
    return totals, largest, attempted, failed, faults, problems


def _prepare(runner, pipelines, work):
    """Reconstruct each unconjugated base pair once, before timing."""
    for pipe in pipelines:
        if pipe.base is None:
            continue
        pair_name, text, module_name = pipe.base
        _write_files(work, {pair_name: text})
        rc, err, *_ = runner.run(('reconstruct', pair_name, '--out',
                                  module_name), work, measure=False)
        if rc != 0:
            _die(f'base pair of {pipe.name} was rejected: {err.strip()}')


def _median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None):
    args = _parse_args(argv)
    if args.seconds <= 0:
        _die('--seconds must be positive')
    # set-up is the CPU time from the process's start to the end of one
    # warm-up pipeline, less the benchmark's own imports and inputs: the
    # interpreter's start, the import of qtetra.cli (scaled by the
    # reference runs right after it) and the warm-up's commands (scaled
    # like every other operation)
    cli = _import_program()
    import_cpu = time.process_time()
    sys.path.insert(0, HERE)
    import reference
    runner = Runner(cli, reference.reference_cpu, reference.NOMINAL_S)
    runner.start_measuring()
    import_s = import_cpu * reference.NOMINAL_S / runner.last_ref

    import workloads
    if args.workload not in workloads.WORKLOADS:
        _die(f'unknown workload {args.workload!r}; choose from '
             f'{", ".join(workloads.WORKLOADS)}')
    plan = workloads.make_plan(args.workload, args.seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix='work-', dir=OUT_DIR)
    try:
        _write_files(work, plan.warmup.files)
        warm = [runner.run(op.argv, work) for op in plan.warmup.ops]
        setup_s = import_s + sum(w[2] for w in warm)
        setup_cpu = import_cpu + sum(w[3] for w in warm)
        setup_wall = time.perf_counter() - _START_WALL

        _prepare(runner, plan.pipelines, work)
        runner.start_measuring()
        if args.trace:
            result = _traced(runner, plan, work, args)
        else:
            result = _untraced(runner, plan, work, args, setup_s, setup_cpu,
                               setup_wall)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _loop(runner, plan, work, seconds, after_pass=None, start=None):
    """Whole passes in a window of ``seconds`` from ``start``; per-pass
    records.

    A pass is started only while at least half of a pass of the mean
    length so far still fits in the window, so a run overshoots its window
    by at most half a pass.
    """
    records = []
    start = time.perf_counter() if start is None else start
    mean = 0.0
    while not records or time.perf_counter() - start + mean / 2 < seconds:
        began = time.perf_counter()
        first_span = len(runner.tracer.spans) if runner.tracer else 0
        records.append(_run_pass(runner, plan, work, f'pass{len(records)}'))
        if after_pass is not None:
            after_pass(first_span, records[-1])
        mean += (time.perf_counter() - began - mean) / len(records)
    return records


def _summary(records):
    attempted = sum(r[2] for r in records)
    failed = sum(r[3] for r in records)
    problems = [p for r in records for p in r[5]]
    faults = sorted({f for r in records for f in r[4]})
    return attempted, failed, problems, faults


def _report_problems(problems, faults):
    for fault in faults:
        print(f'known fault (counted as failed): {fault}', file=sys.stderr)
    for problem in problems[:20]:
        print(f'CHECK FAILED: {problem}', file=sys.stderr)


def _untraced(runner, plan, work, args, setup_s, setup_cpu, setup_wall):
    records = _loop(runner, plan, work, args.seconds)
    attempted, failed, problems, faults = _summary(records)
    _report_problems(problems, faults)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    pass_s = _median([r[0][0] for r in records])
    largest_s = _median([r[1][0] for r in records])
    print(f'# {args.workload} seed {args.seed}: {len(records)} passes; '
          f'raw pass CPU {_median([r[0][1] for r in records]):.4f} s, '
          f'wall {_median([r[0][2] for r in records]):.4f} s; '
          f'raw largest CPU {_median([r[1][1] for r in records]):.4f} s, '
          f'wall {_median([r[1][2] for r in records]):.4f} s; '
          f'raw setup CPU {setup_cpu:.4f} s, wall {setup_wall:.4f} s')
    return {
        'correct': not problems,
        'attempted': attempted,
        'failed': failed,
        'metrics': {
            'setup_s': {'value': setup_s, 'unit': 's'},
            'pass_s': {'value': pass_s, 'unit': 's'},
            'largest_op_s': {'value': largest_s, 'unit': 's'},
            'peak_rss_mb': {'value': peak_mb, 'unit': 'MB'},
        },
    }


def _traced(runner, plan, work, args):
    import tracing
    # one untraced pass first: the base of the tracing overhead
    start = time.perf_counter()
    plain = _run_pass(runner, plan, work, 'plain')
    tracer = tracing.Tracer()
    tracer.install()
    runner.tracer = tracer
    per_pass = []

    def after_pass(first_span, record):
        per_pass.append(tracing.layer_metrics(tracer, first_span,
                                              runner.factors, record[0][0]))
        tracer.counts.clear()
        tracer.modules_checked.clear()

    try:
        records = _loop(runner, plan, work, args.seconds, after_pass, start)
    finally:
        tracer.uninstall()
    tracing.write_spans(os.path.join(OUT_DIR, f'spans-{args.workload}.jsonl'),
                        tracer.spans, _START_WALL)
    attempted, failed, problems, faults = _summary([plain] + records)
    _report_problems(problems, faults)
    metrics = {name: {'value': _median([p[name] for p in per_pass]),
                      'unit': tracing.unit(name)} for name in per_pass[0]}
    metrics['trace.overhead_s']['value'] = (metrics['trace.pass_s']['value']
                                            - plain[0][0])
    return {'correct': not problems, 'attempted': attempted,
            'failed': failed, 'metrics': metrics}


if __name__ == '__main__':
    sys.exit(main())
