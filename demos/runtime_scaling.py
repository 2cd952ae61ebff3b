"""
Why annealing: the cost of certainty
====================================

Exhaustive search pays 2^N objective evaluations per slot; annealing
pays a fixed 99 levels x 10N iterations x 3 neighborhoods.  This sweep
measures both on the benchmark instance family.  The crossover comes at
N = 16: at N = 15 the oracle needs 32,768 evaluations per slot against
annealing's 44,550, at N = 16 65,536 against 47,520 - and from there the
gap doubles with every extra station.

Sizes beyond 10 make the exhaustive rows slow (at N = 16 the exhaustive
day alone takes about half a minute on a 2-vCPU host); trim or extend
``SIZES`` to taste.
"""

from hetlease import runtime_scaling, write_bench_csv

SIZES = [2, 4, 6, 8, 10]

records = runtime_scaling(SIZES, ["es", "sa"])

print(f"{'method':>6} {'N':>3} {'evaluations':>12} {'wall':>9} {'daily rev':>10}")
for rec in records:
    print(
        f"{rec.method:>6} {rec.n_sbs:>3} {rec.evaluations:>12,}"
        f" {rec.runtime_ns / 1e9:>8.2f}s {rec.daily_revenue:>10.3f}"
    )

write_bench_csv(records, "runtime_scaling.csv")
print("\nwrote runtime_scaling.csv")

by_method = {
    method: [rec for rec in records if rec.method == method] for method in ("es", "sa")
}
for method, recs in by_method.items():
    growth = [
        f"x{b.evaluations / a.evaluations:.2f}" for a, b in zip(recs, recs[1:])
    ]
    print(f"{method}: evaluation growth per +2 stations: {', '.join(growth)}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    plt = None

if plt is not None:
    fig, ax = plt.subplots(figsize=(7, 4.5))
    for method, recs in by_method.items():
        ax.semilogy(
            [rec.n_sbs for rec in recs],
            [rec.evaluations for rec in recs],
            "o-",
            label=method,
        )
    ax.set_xlabel("small base stations")
    ax.set_ylabel("objective evaluations per day")
    ax.set_title("Exponential oracle, linear annealing")
    ax.legend()
    fig.tight_layout()
    fig.savefig("runtime_scaling.png", dpi=120)
    print("wrote runtime_scaling.png")
