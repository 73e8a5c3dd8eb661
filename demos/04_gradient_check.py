"""Verify the hand-written backpropagation against finite differences.

Every gradient in training comes from an analytic reverse-mode sweep
through the unrolled encoder/attention/decoder graph. This check compares
each parameter coordinate against central differences of an independent
forward-pass transcription evaluated in 80-bit precision (so coordinates
whose true gradient is near zero are not drowned in float64 rounding).
"""

import time

from opinesum.trainer import CHECK_EPSILON, gradient_check

print("tiny configuration: d_emb=8, d_h=6, d_a=5, |V|=15,")
print("input 2 units x 4 tokens (+SEG), 3 output steps, features on")
print(f"epsilon {CHECK_EPSILON:g}, all 5824 coordinates\n")

worst = 0.0
for seed in range(3):
    start = time.perf_counter()
    rel = gradient_check(seed=seed)
    worst = max(worst, rel)
    print(f"seed {seed}: max relative error {rel:.3e}  ({time.perf_counter()-start:.1f}s)")

print(f"\nworst over seeds: {worst:.3e}  (threshold 1e-4)")
print("PASS" if worst < 1e-4 else "FAIL")
