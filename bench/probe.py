"""A fixed reference kernel that tells how fast the machine is right now.

On a shared virtual machine the same work can take twice as long from one
minute to the next, in plateaus lasting from seconds to minutes, and process
CPU time slows down with it (no steal time is recorded).  A ten-run median
of wall-clock time then measures the machine rather than the program.

The benchmark therefore runs this kernel between operations, outside the
measured time, and scales each measured interval by
``NOMINAL_S / (time the kernel took around it)``.  A scaled time reads as
the time on a machine where the kernel takes ``NOMINAL_S``.  The kernel is
the benchmark's own code and calls nothing in gramflow, so a change to the
program moves the scaled times in the same proportion as the raw ones; the
machine's speed largely cancels.  The kernel mixes the kinds of work gramflow does
in pure Python: nested index loops over lists, dict counting, tuple keys,
string splitting, float parsing and ``repr``.
"""

from __future__ import annotations

from time import perf_counter

# a round figure for the kernel's time on the 2.1 GHz Xeon vCPU this was
# written on (1.6-2.8 ms, depending on the host's load); Python 3.11
NOMINAL_S = 0.002
REPEATS = 3         # kernel calls per measurement; their median is taken
SEGMENT_S = 0.04    # measured time between two kernel runs, at least

_WORDS = [f"w{i % 97}" for i in range(1500)]
_LINE = " ".join(f"{i / 7:.6f}" for i in range(300))


def kernel():
    """About 2 ms of interpreter work on fixed data; returns a checksum."""
    n = 40
    table = [[0] * n for _ in range(n)]
    for span in range(1, n):                     # interval DP, like reduce
        for i in range(n - span):
            j = i + span
            best = table[i + 1][j]
            for k in range(i + 1, j):
                v = table[i][k] + table[k][j] + ((i * k + j) & 3)
                if v > best:
                    best = v
            table[i][j] = best
    counts = {}
    for a, b in zip(_WORDS, _WORDS[1:]):         # co-occurrence counting
        counts[(a, b)] = counts.get((a, b), 0) + 1
    floats = [float(x) for x in _LINE.split()]   # model-file parsing
    text = " ".join(repr(x) for x in floats)
    return table[0][n - 1] + len(counts) + len(text)


def measure():
    """Median time of ``REPEATS`` kernel calls, in seconds."""
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    times.sort()
    return times[len(times) // 2]


def factor(before, after):
    """The scale for an interval with kernel times ``before`` and ``after`` around it."""
    return 2 * NOMINAL_S / (before + after)


class Scaler:
    """Scales the measured time of a stream of operations by the machine's speed.

    Measured intervals are grouped into segments of ``SEGMENT_S`` seconds
    or a little more; the kernel runs between segments, and every interval
    in a segment is scaled by the kernel times at its two ends.  A long
    operation may be measured in several intervals (stages), with the
    kernel run between them, so that it is scaled piecewise.
    """

    def __init__(self):
        self.before = measure()
        self.pending = []       # (operation index, seconds) since the kernel last ran
        self.scaled = []        # scaled seconds per operation
        self.kernel_s = []

    def add(self, seconds, same_operation=False):
        if not same_operation:
            self.scaled.append(0.0)
        self.pending.append((len(self.scaled) - 1, seconds))
        if sum(x for _, x in self.pending) >= SEGMENT_S:
            self.flush()

    def flush(self):
        if not self.pending:
            return
        after = measure()
        f = factor(self.before, after)
        for i, x in self.pending:
            self.scaled[i] += x * f
        self.kernel_s.append(after)
        self.pending = []
        self.before = after
