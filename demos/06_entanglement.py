"""Half-cut entanglement entropy of randomly initialized circuits.

Both entangling topologies stay below the floor(n/2)-bit maximum at these
depths; the nearest-neighbor chain actually entangles the two halves more
strongly at moderate depth because every link crosses at most one cut.

Run:  python3 demos/06_entanglement.py
"""

from plateaulab import entanglement_sweep

result = entanglement_sweep(ns=(4, 6, 8), depths=(1, 3, 5), n_samples=20, seed=7)

print("mean S / S_max (S_max = floor(n/2) bits), K = 20")
print(f"{'topology':<18} {'L':>2}   n=4    n=6    n=8")
for topology in ("nearest_neighbor", "all_to_all"):
    for layers in (1, 3, 5):
        ratios = [
            row.ratio_to_max
            for row in result
            if row.topology == topology and row.layers == layers
        ]
        cells = "  ".join(f"{r:.3f}" for r in ratios)
        print(f"{topology:<18} {layers:>2}   {cells}")
