"""One traced run of the reference pipeline: symbolic d = 5, t = q + 1.

    python3 perfbench/baseline.py

Builds the evaluation module, then traces ``reconstruct`` and
``analyze --format json`` on it and prints, for each of the two
commands, its reference-scaled CPU time and the traced mode's per-layer
metrics that are not zero.  Spans go to ``.perfbench/spans-baseline.jsonl``.
It takes about two minutes at d = 5.
"""

import os
import shutil
import sys
import tempfile

import run

D, T = '5', 'q + 1'


def main():
    cli = run._import_program()
    import reference
    import tracing

    os.makedirs(run.OUT_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix='work-', dir=run.OUT_DIR)
    columns = []
    try:
        runner = run.Runner(cli, reference.reference_cpu, reference.NOMINAL_S)
        runner.run(('build', 'evaluation', '--d', D, '--t', T,
                    '--out', 'ev.json'), work, measure=False)
        runner.start_measuring()
        tracer = tracing.Tracer()
        tracer.install()
        runner.tracer = tracer
        try:
            for argv in (('reconstruct', 'ev.json', '--out', 'mod.json'),
                         ('analyze', 'mod.json', '--format', 'json', '--out',
                          'an.json')):
                first = len(tracer.spans)
                rc, _err, scaled, cpu, wall = runner.run(argv, work)
                print(f'{argv[0]}: exit {rc}, {scaled:.2f} s scaled CPU '
                      f'({cpu:.2f} s raw CPU, {wall:.2f} s wall)')
                columns.append(tracing.layer_metrics(tracer, first,
                                                     runner.factors, scaled))
                tracer.counts.clear()
                tracer.modules_checked.clear()
        finally:
            tracer.uninstall()
        tracing.write_spans(os.path.join(run.OUT_DIR,
                                         'spans-baseline.jsonl'),
                            tracer.spans, run._START_WALL)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print('| metric | unit | reconstruct | analyze |')
    print('| --- | --- | ---: | ---: |')
    names = [n for n in columns[0] if columns[0][n] or columns[1][n]]
    names.sort(key=lambda n: (tracing.unit(n) != 's', -columns[1][n]))
    for name in names:
        print(f'| `{name}` | {tracing.unit(name)} | {columns[0][name]:.4g} '
              f'| {columns[1][name]:.4g} |')
    return 0


if __name__ == '__main__':
    sys.exit(main())
