"""Draw Hermite-process paths of rank 1 and 2 and check their scaling.

Rank q=1 with Hurst H is fractional Brownian motion; q=2 is the Rosenblatt
process — same covariance, heavier tails, non-Gaussian.  Both come out of
the same construction: partial sums of H_q applied to long-range-dependent
Gaussian noise, normalized so Var(Z_T) = T^{2H} exactly.

Run:  python3 demos/01_hermite_paths.py
"""

from hermite_trend import HermiteSpec, derive_seed, replicate, sample_hermite

T, N, REPS = 1.0, 512, 2000

for q, hurst in [(1, 0.7), (2, 0.7)]:
    spec = HermiteSpec(order=q, hurst=hurst, horizon=T, n=N)
    name = "fBm" if q == 1 else "Rosenblatt"
    print(f"\n{name} (q={q}, H={hurst}), {REPS} paths on a {N}-step grid")

    # path r draws from derive_seed(2024, q, r); each row is (Z_T, Z_{T/2})
    terminal, half = replicate(spec, 2024, (q,), range(REPS), lambda z: z[[-1, N // 2]]).T

    for label, sample, t in [("Z_T", terminal, T), ("Z_{T/2}", half, T / 2)]:
        var = sample.var(ddof=1)
        print(f"  Var({label}) = {var:.4f}   theory t^2H = {t ** (2 * hurst):.4f}")
    print(f"  skewness(Z_T) = {float(((terminal - terminal.mean()) ** 3).mean() / terminal.std() ** 3):+.3f}"
          "   (0 for fBm, positive for Rosenblatt)")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(1, 2, figsize=(10, 3.5), sharey=True)
    for ax, (q, hurst) in zip(axes, [(1, 0.7), (2, 0.7)]):
        spec = HermiteSpec(order=q, hurst=hurst, horizon=T, n=N)
        for r in range(5):
            path = sample_hermite(spec, derive_seed(7, q, r))
            ax.plot(path.times, path.values, lw=0.8)
        ax.set_title(f"q={q}, H={hurst}")
        ax.set_xlabel("t")
    fig.tight_layout()
    fig.savefig("demo_hermite_paths.png", dpi=120)
    print("\nwrote demo_hermite_paths.png")
except ImportError:
    print("\n(matplotlib not installed; skipping the figure)")
