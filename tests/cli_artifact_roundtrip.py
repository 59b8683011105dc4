#!/usr/bin/env python3
"""Artifact round trip at serving geometry through gpumem_cli.

Builds a *.gmidx at gpumem_serve's tile geometry (--tau 64 --tile-blocks 8),
loads it with the same engine flags on the native and the simt backend, and
requires each output to equal, byte for byte, a fresh --ref build.

    cli_artifact_roundtrip.py path/to/gpumem_cli work_dir
"""
import filecmp
import os
import random
import subprocess
import sys


def write_inputs(work):
    rng = random.Random(11)
    ref = ''.join(rng.choice('ACGT') for _ in range(20000))
    with open(os.path.join(work, 'ref.fa'), 'w') as f:
        f.write('>ref\n')
        for i in range(0, len(ref), 70):
            f.write(ref[i:i + 70] + '\n')
    q = list(ref[2000:8000])
    for _ in range(40):
        q[rng.randrange(len(q))] = rng.choice('ACGT')
    with open(os.path.join(work, 'q.fa'), 'w') as f:
        f.write('>q0\n%s\n' % ''.join(q))


def main():
    cli, work = os.path.abspath(sys.argv[1]), sys.argv[2]
    os.makedirs(work, exist_ok=True)
    write_inputs(work)
    engine = ['--min-len', '20', '--seed-len', '8', '--tau', '64',
              '--tile-blocks', '8']
    # Only the artifact path needs the geometry flags; L and ls default
    # from its header.
    geometry = engine[4:]

    def run(*args):
        subprocess.run([cli, *args], cwd=work, check=True)

    run('index-build', '--ref', 'ref.fa', '--out', 's.gmidx', *engine)
    for backend in ('native', 'simt'):
        artifact, fresh = 'artifact-%s.tsv' % backend, 'fresh-%s.tsv' % backend
        run('--load-index', 's.gmidx', '--query', 'q.fa', '--backend', backend,
            *geometry, '--out', artifact)
        run('--ref', 'ref.fa', '--query', 'q.fa', '--backend', backend, *engine,
            '--out', fresh)
        a, b = os.path.join(work, artifact), os.path.join(work, fresh)
        if os.path.getsize(b) == 0 or not filecmp.cmp(a, b, shallow=False):
            sys.exit('%s: artifact output differs from a fresh build' % backend)
        print('%s: artifact output identical (%d bytes)' %
              (backend, os.path.getsize(a)))


if __name__ == '__main__':
    main()
