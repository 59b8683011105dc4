#!/usr/bin/env python3
"""The slaMEM probe policies and MUMmer agree byte for byte through gpumem_cli.

Generates a diverged pair: a random reference and a query made of a ~6%
SNP copy of one stretch, an unrelated stretch (an alignment desert) and a
verbatim copy of another stretch (long MEMs). At L 20, 80 and 160 it runs
gpumem_cli --finder slamem (probes where they pay), --finder slamem-lazy
(probes at every frontier) and --finder mummer (suffix array), and requires
the three MEM files to be byte-identical and, at L 160, non-empty.

    cli_finders_agree.py path/to/gpumem_cli work_dir
"""
import filecmp
import os
import random
import subprocess
import sys


def write_fasta(path, name, seq):
    with open(path, 'w') as f:
        f.write('>%s\n' % name)
        for i in range(0, len(seq), 70):
            f.write(seq[i:i + 70] + '\n')


def main():
    cli, work = sys.argv[1], sys.argv[2]
    os.makedirs(work, exist_ok=True)
    rng = random.Random(2403)
    ref = ''.join(rng.choice('ACGT') for _ in range(30000))
    diverged = list(ref[2000:14000])
    for i in range(len(diverged)):
        if rng.random() < 0.06:
            diverged[i] = rng.choice('ACGT'.replace(diverged[i], ''))
    desert = ''.join(rng.choice('ACGT') for _ in range(6000))
    query = ''.join(diverged) + desert + ref[20000:20500]
    ref_fa, query_fa = os.path.join(work, 'ref.fa'), os.path.join(work, 'q.fa')
    write_fasta(ref_fa, 'ref', ref)
    write_fasta(query_fa, 'query', query)

    failures = 0
    for L in (20, 80, 160):
        outs = []
        for finder in ('slamem', 'slamem-lazy', 'mummer'):
            out = os.path.join(work, '%s.L%d.mems' % (finder, L))
            subprocess.run([cli, '--ref', ref_fa, '--query', query_fa,
                            '--finder', finder, '--min-len', str(L),
                            '--out', out], check=True,
                           stderr=subprocess.DEVNULL)
            outs.append(out)
        for other in outs[1:]:
            if not filecmp.cmp(outs[0], other, shallow=False):
                print('L %d: %s differs from %s' % (L, other, outs[0]))
                failures += 1
        if L == 160 and os.path.getsize(outs[0]) == 0:
            print('L 160: no MEM written; the pair lost its long match')
            failures += 1
    if failures:
        return 1
    print('FINDERS AGREE')
    return 0


if __name__ == '__main__':
    sys.exit(main())
