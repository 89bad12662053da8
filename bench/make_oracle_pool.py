"""Regenerate bench/oracle_pool.txt, the random operators of oracle-bracket.

    python3 bench/make_oracle_pool.py

Draws dense 4x4 operators with entries p/q (abs(p) <= 9, 1 <= q <= 9)
from a fixed stream.  It keeps the first POOL_SIZE whose certified
bracket at h = 1/64 needs between BOX_MIN and BOX_MAX boxes.

The box count has a heavy tail.  In a sample of 438 draws, the median
was 924 boxes and 99 % needed at most 7,200, but 2 needed more than
40,000.  Nothing bounds the tail below the oracle's default budget of
500,000.  A draw of 35,890 boxes took 9 s, so one tail draw can dominate
a run of 30 s.  The window around the median also keeps the work of
each pass alike, so that run-to-run spread comes from the program and
the machine rather than from which operators a seed happened to draw.

Each line of the file is one operator, its 16 entries row by row.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
POOL = BENCH / "oracle_pool.txt"
POOL_SIZE = 96
BOX_MIN = 500
BOX_MAX = 2000
STREAM_SEED = 20260517
DIM = 4


def main() -> int:
    sys.path.insert(0, str(BENCH.parent / "src"))
    from minmodlab import BudgetExceededError, Dense, brute_force_min

    rng = random.Random(STREAM_SEED)
    kept = []
    drawn = 0
    while len(kept) < POOL_SIZE:
        drawn += 1
        rows = tuple(
            tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(DIM))
            for _ in range(DIM)
        )
        try:
            boxes = brute_force_min(Dense(rows), Fraction(1, 64), point_budget=BOX_MAX).evaluations
        except BudgetExceededError:
            continue
        if boxes >= BOX_MIN:
            kept.append(" ".join(str(e) for row in rows for e in row))
    POOL.write_text("\n".join(kept) + "\n")
    print(f"kept {len(kept)} of {drawn} draws")
    return 0


if __name__ == "__main__":
    sys.exit(main())
