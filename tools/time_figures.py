#!/usr/bin/env python3
"""Time two bench_figures binaries, figure by figure.

    tools/time_figures.py OLD NEW [--passes N] [--figure ID ...]

OLD and NEW are bench_figures binaries, e.g. a parent commit's build
and this tree's. Both must list the same figure ids, which are read
from the "--figure is required; one of: ..." usage error, as
tools/cmp_figures.sh reads them. --figure (repeatable) times only the
named ids.

Each of the --passes passes (default 3) runs every figure on both
binaries back to back, and the pass number decides which binary goes
first, so the two sides alternate. Every run has the trace cache off
(SP_TRACE_CACHE=off) and no SP_BENCH_* variable, so each figure runs
at its default counts. Per figure and side the script prints the
median and q1-q3 of the wall seconds and of the child's max RSS (from
os.wait4), then the NEW/OLD ratio of the medians; the suite totals sum
each pass's wall seconds and take the peak RSS.

It exits 1 when a run fails or the id lists differ, and 2 on a usage
error. Timing never fails it: comparing the numbers is the reader's
job.
"""

import argparse
import os
import statistics
import subprocess
import sys
import time


def figure_ids(binary):
    """The ids listed by `binary`'s missing---figure usage error."""
    proc = subprocess.run([binary], stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, check=False)
    for line in proc.stderr.splitlines():
        if 'one of: ' in line:
            return line.split('one of: ', 1)[1].replace(',', ' ').split()
    return []


def run_once(binary, figure, env):
    """Run one figure; return (exit code, wall seconds, max RSS MB)."""
    start = time.perf_counter()
    proc = subprocess.Popen([binary, '--figure', figure], env=env,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    _, status, rusage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    # wait4 reaped the child; record it so Popen does not wait again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, rusage.ru_maxrss / 1024.0


def spread(values):
    """(median, q1, q3) of `values`."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method='inclusive')
    return median, q1, q3


def describe(values, digits):
    median, q1, q3 = spread(values)
    return f'{median:.{digits}f} [{q1:.{digits}f}-{q3:.{digits}f}]'


def ratio(new, old):
    old_median = spread(old)[0]
    return f'{spread(new)[0] / old_median:.3f}x' if old_median else 'n/a'


def main():
    parser = argparse.ArgumentParser(
        description='Time two bench_figures binaries figure by figure.')
    parser.add_argument('old', help='the baseline bench_figures binary')
    parser.add_argument('new', help='the changed bench_figures binary')
    parser.add_argument('--passes', type=int, default=3,
                        help='passes over the figures (default 3)')
    parser.add_argument('--figure', action='append', dest='figures',
                        metavar='ID', help='time only this id (repeatable)')
    args = parser.parse_args()
    if args.passes < 1:
        parser.error('--passes must be at least 1')

    sides = {'old': args.old, 'new': args.new}
    ids = figure_ids(args.old)
    if not ids or ids != figure_ids(args.new):
        print('the two binaries list different figure ids (or none)',
              file=sys.stderr)
        return 1
    figures = args.figures or ids
    unknown = [f for f in figures if f not in ids]
    if unknown:
        print('unknown figure id(s): ' + ' '.join(unknown), file=sys.stderr)
        return 1

    env = {k: v for k, v in os.environ.items()
           if not k.startswith('SP_BENCH_')}
    env['SP_TRACE_CACHE'] = 'off'
    wall = {(f, s): [] for f in figures for s in sides}
    rss = {(f, s): [] for f in figures for s in sides}
    for p in range(args.passes):
        order = ['old', 'new'] if p % 2 == 0 else ['new', 'old']
        for figure in figures:
            for side in order:
                code, seconds, mb = run_once(sides[side], figure, env)
                print(f'pass {p + 1} {side} {figure}: {seconds:.2f} s, '
                      f'{mb:.1f} MB', file=sys.stderr)
                if code != 0:
                    print(f'{side} {figure} exited {code}', file=sys.stderr)
                    return 1
                wall[figure, side].append(seconds)
                rss[figure, side].append(mb)

    print(f'{args.passes} pass(es), trace cache off; '
          'median [q1-q3] of wall s and max RSS MB')
    for figure in figures:
        print(figure)
        for side in sides:
            print(f'  {side}  wall {describe(wall[figure, side], 2)} s'
                  f'  rss {describe(rss[figure, side], 1)} MB')
        print(f'  new/old  wall {ratio(wall[figure, "new"], wall[figure, "old"])}'
              f'  rss {ratio(rss[figure, "new"], rss[figure, "old"])}')
    total = {s: [sum(wall[f, s][p] for f in figures)
                 for p in range(args.passes)] for s in sides}
    peak = {s: [max(rss[f, s][p] for f in figures)
                for p in range(args.passes)] for s in sides}
    print('suite')
    for side in sides:
        print(f'  {side}  wall {describe(total[side], 2)} s'
              f'  peak rss {describe(peak[side], 1)} MB')
    print(f'  new/old  wall {ratio(total["new"], total["old"])}'
          f'  peak rss {ratio(peak["new"], peak["old"])}')
    return 0


if __name__ == '__main__':
    sys.exit(main())
