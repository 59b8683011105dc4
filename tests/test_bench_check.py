#!/usr/bin/env python3
"""Self-test of scripts/bench_check.py.

Feeds the checker candidate/baseline pairs derived from the committed
baselines and requires its documented exit code for each: 0 = pass,
1 = regression, 2 = usage / malformed input.

    test_bench_check.py path/to/bench_check.py path/to/bench_dir
"""
import json
import os
import subprocess
import sys
import tempfile

RATIO = ('BENCH_hostwall.json', 'BENCH_indexio.json', 'BENCH_copmem.json',
         'BENCH_longmem.json')
PIPELINE, SERVENET = 'BENCH_pipeline.json', 'BENCH_servenet.json'


def cases(bench_dir):
    """Yields (label, candidate, baseline, expected exit code); a document
    is a dict (dumped as JSON) or a str (written verbatim)."""
    def text(name):
        with open(os.path.join(bench_dir, name), encoding='utf-8') as f:
            return f.read()

    def edit(name, change):
        cand = json.loads(text(name))
        change(cand)
        return cand, json.loads(text(name))

    def gated(doc):
        return next(r for r in doc['scenarios'] if r['min_speedup'] > 0)

    for name in RATIO + (PIPELINE, SERVENET):
        yield '%s against itself' % name, text(name), text(name), 0
    for name in RATIO + (PIPELINE,):
        yield ('%s: missing scenario' % name,
               *edit(name, lambda d: d['scenarios'].pop()), 1)
        yield ('%s: extra scenario' % name,
               *edit(name, lambda d: d['scenarios'].append(
                   dict(d['scenarios'][0], name='extra'))), 1)
        yield ('%s: mems mismatch' % name,
               *edit(name, lambda d: d['scenarios'][0].update(
                   mems=d['scenarios'][0]['mems'] + 1)), 1)
    for name in RATIO:
        yield ('%s: lowered min_speedup' % name,
               *edit(name, lambda d: gated(d).update(
                   min_speedup=gated(d)['min_speedup'] / 2)), 1)
        yield ('%s: speedup below its floor' % name,
               *edit(name, lambda d: gated(d).update(
                   speedup=gated(d)['min_speedup'] * 0.99)), 1)
    cycles = lambda f: lambda d: d['scenarios'][0].update(
        modeled_cycles=d['scenarios'][0]['modeled_cycles'] * f)
    yield 'pipeline: cycles +9%', *edit(PIPELINE, cycles(1.09)), 0
    yield 'pipeline: cycles +11%', *edit(PIPELINE, cycles(1.11)), 1
    yield 'pipeline: cycles -11%', *edit(PIPELINE, cycles(0.89)), 1
    yield ('pipeline: overlap_speedup 1.14',
           *edit(PIPELINE, lambda d: d.update(overlap_speedup=1.14)), 1)
    for key in ('sent', 'seed', 'offered_qps'):
        yield ('servenet: %s mismatch' % key,
               *edit(SERVENET, lambda d: d['gate'].update(
                   {key: d['gate'][key] + 1})), 1)
    yield 'schema mismatch', text(RATIO[0]), text(RATIO[1]), 2
    yield 'malformed candidate', '{"schema": ', text(PIPELINE), 2


def main():
    checker, bench_dir = sys.argv[1], sys.argv[2]
    failed = 0
    with tempfile.TemporaryDirectory() as work:
        for i, (label, cand, base, want) in enumerate(cases(bench_dir)):
            paths = []
            for side, doc in (('cand', cand), ('base', base)):
                path = os.path.join(work, '%d-%s.json' % (i, side))
                with open(path, 'w', encoding='utf-8') as f:
                    f.write(doc if isinstance(doc, str) else json.dumps(doc))
                paths.append(path)
            run = subprocess.run(
                [sys.executable, checker, paths[0], '--baseline', paths[1]],
                capture_output=True, text=True)
            ok = run.returncode == want
            failed += not ok
            print('%s %s: exit %d (want %d)' %
                  ('ok  ' if ok else 'FAIL', label, run.returncode, want))
            if not ok:
                print(run.stdout + run.stderr)
    if failed:
        sys.exit('%d case(s) returned the wrong exit code' % failed)


if __name__ == '__main__':
    main()
