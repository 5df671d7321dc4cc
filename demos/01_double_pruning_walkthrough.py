"""Walk through one double-pruning step on overlapping synthetic blobs.

Shows the two halves of the balancing move: entropy-guided removal from the
majority class, and roulette-seeded synthetic generation for the minority
class with the regularization and noise-filter gates visible in the stats.
"""

import numpy as np

from resmoteboost import NEGATIVE, POSITIVE, RandomSource, double_pruning, make_gaussian_blobs


def main():
    data = make_gaussian_blobs(n_majority=366, n_minority=193, d=2,
                               separation=2.0, seed=7)
    majority, minority = data.X[data.y == NEGATIVE], data.X[data.y == POSITIVE]
    print(f"before: majority={len(majority)} minority={len(minority)} "
          f"IR={len(majority) / len(minority):.2f}")

    stats = {}
    keep, rows = double_pruning(majority, minority, 90, 5, RandomSource(0), stats=stats)
    print(f"after one k=90 step: majority={len(keep)} minority={len(minority) + len(rows)}")
    print(f"roulette spins={stats['spins']} accepted={stats['accepted']} "
          f"retained after noise filter={stats['retained']}")

    # every retained synthetic satisfies the placement inequality
    margins = [s["dist_maj"] - s["dist_min"] for s in stats["synthetics"]]
    print(f"regularization margin (dist_maj - dist_min): "
          f"min={min(margins):.4f} median={np.median(margins):.4f}")

    entropies = [s["entropy"] for s in stats["synthetics"]]
    print(f"retained synthetic entropy: min={min(entropies):.4f} "
          f"max={max(entropies):.4f} (filter keeps the most ambiguous points)")


if __name__ == "__main__":
    main()
