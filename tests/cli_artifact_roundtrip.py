#!/usr/bin/env python3
"""Artifact round trips and corruption through gpumem_cli.

Builds a *.gmidx at the default geometry and at gpumem_serve's tile
geometry (--tau 64 --tile-blocks 8), checks that index-info reads it, loads
it with the same engine flags on the native and the simt backend (the
latter also with three worker streams), and requires each output to equal,
byte for byte, a fresh --ref build. An artifact with one flipped byte must
be rejected with a nonzero exit naming the failing section.

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
    engine = ['--min-len', '20', '--seed-len', '8']
    # Only the artifact path needs the geometry flags; L and ls default
    # from its header.
    geometry = ['--tau', '64', '--tile-blocks', '8']

    def run(*args):
        subprocess.run([cli, *args], cwd=work, check=True)

    def load(artifact, backend, out, *flags):
        run('--load-index', artifact, '--query', 'q.fa', '--backend', backend,
            *flags, '--out', out)

    def fresh(backend, out, *flags):
        run('--ref', 'ref.fa', '--query', 'q.fa', '--backend', backend,
            *engine, *flags, '--out', out)

    def same(label, artifact, fresh):
        a, b = os.path.join(work, artifact), os.path.join(work, fresh)
        if os.path.getsize(b) == 0 or not filecmp.cmp(a, b, shallow=False):
            sys.exit('%s: artifact output differs from a fresh build' % label)
        print('%s: artifact output identical (%d bytes)' %
              (label, os.path.getsize(a)))

    run('index-build', '--ref', 'ref.fa', '--out', 'd.gmidx', *engine)
    run('index-info', 'd.gmidx')
    load('d.gmidx', 'native', 'artifact-default.tsv')
    fresh('native', 'fresh-default.tsv')
    same('native, default geometry', 'artifact-default.tsv',
         'fresh-default.tsv')

    run('index-build', '--ref', 'ref.fa', '--out', 's.gmidx', *engine,
        *geometry)
    for backend in ('native', 'simt'):
        load('s.gmidx', backend, 'artifact-%s.tsv' % backend, *geometry)
        fresh(backend, 'fresh-%s.tsv' % backend, *geometry)
        same(backend, 'artifact-%s.tsv' % backend, 'fresh-%s.tsv' % backend)
    # Three worker streams overlap the same tile loop: the MEMs must not
    # move.
    load('s.gmidx', 'simt', 'artifact-streams.tsv', *geometry,
         '--overlap-streams', '3')
    same('simt, 3 worker streams', 'artifact-streams.tsv', 'fresh-simt.tsv')

    with open(os.path.join(work, 'd.gmidx'), 'rb') as f:
        data = bytearray(f.read())
    data[len(data) // 2] ^= 0x40
    with open(os.path.join(work, 'broken.gmidx'), 'wb') as f:
        f.write(data)
    broken = subprocess.run([cli, '--load-index', 'broken.gmidx', '--query',
                             'q.fa', '--backend', 'native'], cwd=work,
                            capture_output=True, text=True)
    if broken.returncode == 0 or 'section' not in broken.stderr:
        sys.exit('corrupt artifact: exit %d, stderr %r' %
                 (broken.returncode, broken.stderr))
    print('corrupt artifact rejected: %s' % broken.stderr.strip())


if __name__ == '__main__':
    main()
