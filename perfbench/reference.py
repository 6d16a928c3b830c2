"""Reference kernel for scaling untraced timings (see REFERENCE_S in run.py).

    python3 reference.py    # each line read from stdin runs the kernel once
                            # and writes its duration in seconds to stdout

Fixed work shaped like the library's hot loops: walk a table of 120k
(Fraction, child, child) nodes by index, add exact values and memoize them
under tuple keys.  The table spans tens of MiB, so the kernel slows down with
memory contention as well as with a slower core.  It runs in its own process
because a child's ru_maxrss includes the memory its parent held before the
exec, so the table must not live in the driver.
"""

import sys
from fractions import Fraction
from random import Random
from time import perf_counter

NODES = 120_000


def main() -> int:
    rng = Random(0)
    nodes = [(Fraction(rng.randint(1, 30), rng.randint(31, 60)), rng.randrange(NODES), rng.randrange(NODES)) for _ in range(NODES)]
    for _ in sys.stdin:
        start = perf_counter()
        memo: dict[tuple[int, int], Fraction] = {}
        bits = 0
        for i in range(0, NODES, 3):
            _, a, b = nodes[i]
            value = memo[a, b] = nodes[a][0] + nodes[b][0]
            bits += value.numerator.bit_length()
        elapsed = perf_counter() - start
        if not bits:
            raise RuntimeError("reference kernel lost its work")
        sys.stdout.write(f"{elapsed!r}\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
