#!/usr/bin/env python3
"""Artifact round trips and corruption through gpumem_cli and gpumem_serve.

Builds a *.gmidx at the default geometry and at gpumem_serve's tile
geometry (--tau 64 --tile-blocks 8), checks that index-info reads it, loads
it with the same engine flags on the native and the simt backend (the
latter also with three worker streams), and requires each output to equal,
byte for byte, a fresh --ref build. The serving-geometry artifact must
also load with no --tau/--tile-blocks (the header records them), and a flag
that contradicts the header must be refused as stale geometry. An artifact
with one flipped byte must be rejected with a nonzero exit naming the
failing section.

A registry of two named tenants at serving geometry must then answer a
replay of tenant-prefixed query records through gpumem_serve --registry
(exit 0), and the same records over loopback TCP (LOOPBACK OK).

    cli_artifact_roundtrip.py path/to/gpumem_cli path/to/gpumem_serve work_dir
"""
import filecmp
import os
import random
import subprocess
import sys


def mutated(rng, seq, snps):
    q = list(seq)
    for _ in range(snps):
        q[rng.randrange(len(q))] = rng.choice('ACGT')
    return ''.join(q)


def write_fasta(path, records):
    with open(path, 'w') as f:
        for name, seq in records:
            f.write('>%s\n' % name)
            for i in range(0, len(seq), 70):
                f.write(seq[i:i + 70] + '\n')


def write_inputs(work):
    rng = random.Random(11)
    ref = ''.join(rng.choice('ACGT') for _ in range(20000))
    write_fasta(os.path.join(work, 'ref.fa'), [('ref', ref)])
    write_fasta(os.path.join(work, 'q.fa'),
                [('q0', mutated(rng, ref[2000:8000], 40))])
    # A second tenant and query records routed to both by name prefix.
    ref2 = ''.join(rng.choice('ACGT') for _ in range(12000))
    write_fasta(os.path.join(work, 'ref2.fa'), [('ref2', ref2)])
    write_fasta(os.path.join(work, 'tenants.fa'), [
        ('alpha/q0', mutated(rng, ref[500:3500], 20)),
        ('beta/q1', mutated(rng, ref2[1000:4000], 20)),
        ('alpha/q2', mutated(rng, ref[9000:11000], 10)),
    ])


def main():
    cli, serve = os.path.abspath(sys.argv[1]), os.path.abspath(sys.argv[2])
    work = sys.argv[3]
    os.makedirs(work, exist_ok=True)
    write_inputs(work)
    engine = ['--min-len', '20', '--seed-len', '8']
    # L, ls, tau and tile-blocks default from the artifact's header.
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
    for backend in ('native', 'simt'):
        load('s.gmidx', backend, 'artifact-nogeo-%s.tsv' % backend)
        same('%s, geometry from the header' % backend,
             'artifact-nogeo-%s.tsv' % backend, 'fresh-%s.tsv' % backend)
    stale = subprocess.run([cli, '--load-index', 's.gmidx', '--query', 'q.fa',
                            '--tile-blocks', '4'], cwd=work,
                           capture_output=True, text=True)
    if (stale.returncode == 0 or 'stale geometry' not in stale.stderr or
            'tile_len' not in stale.stderr):
        sys.exit('contradicting --tile-blocks: exit %d, stderr %r' %
                 (stale.returncode, stale.stderr))
    print('contradicting flag refused: %s' % stale.stderr.strip())

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

    os.makedirs(os.path.join(work, 'registry'), exist_ok=True)
    for name, ref in (('alpha', 'ref.fa'), ('beta', 'ref2.fa')):
        run('index-build', '--ref', ref, '--name', name, '--out',
            os.path.join('registry', name + '.gmidx'), *engine, *geometry)
    subprocess.run([serve, '--registry', 'registry', '--queries',
                    'tenants.fa', *engine], cwd=work, check=True)
    print('registry replay: exit 0')
    loop = subprocess.run([serve, '--registry', 'registry', '--queries',
                           'tenants.fa', *engine, '--listen', '0',
                           '--loopback', '2'], cwd=work,
                          capture_output=True, text=True)
    if loop.returncode != 0 or 'LOOPBACK OK' not in loop.stdout:
        sys.exit('registry loopback: exit %d, stdout %r, stderr %r' %
                 (loop.returncode, loop.stdout, loop.stderr))
    print('registry loopback: LOOPBACK OK')


if __name__ == '__main__':
    main()
