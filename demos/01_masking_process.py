"""Walk through the forward masking process and its analytic reverse step.

A clean sequence is progressively corrupted by replacing tokens with the
mask symbol: at time t each token survives with probability alpha(t) = 1 - t.
The reverse step t -> s reveals each masked position with probability
(t - s) / t. Sequences are rows of token ids 1..V, and V+1 is the mask.
Running this script prints the whole story.
"""

import numpy as np

from mdlmlab import alpha, forward_mask, reverse_unmask_prob

rng = np.random.default_rng(0)
V = 4
MASK = V + 1
PROMPT = 2


def show(row, label):
    cells = ["[M]" if tok == MASK else str(tok) for tok in row]
    print(f"{label:28s} {' '.join(f'{c:>3s}' for c in cells)}")


print("== forward corruption ==")
x0 = np.array([2, 1, 4, 3, 1, 2, 4, 4])
show(x0, f"clean x0 (prompt = first {PROMPT})")
corrupted, ts = forward_mask(np.tile(x0, (4, 1)), V, PROMPT, rng)
for row, t in sorted(zip(corrupted, ts), key=lambda pair: pair[1]):
    show(row, f"corrupted at t={t:.2f}")
print("the prompt never masks; each other token flips with probability t\n")

print("== masked fraction tracks 1 - alpha(t) = t ==")
long = rng.integers(1, V + 1, size=(3, 5000))
corrupted, ts = forward_mask(long, V, 0, rng)
for row, t in zip(corrupted, ts):
    frac = np.mean(row == MASK)
    print(f"t={t:.3f}: masked fraction {frac:.3f} (alpha(t)={alpha(t):.3f})")
print()

print("== reverse step probabilities ==")
for t, s in ((1.0, 0.75), (0.75, 0.5), (0.5, 0.25), (0.25, 0.0)):
    p = reverse_unmask_prob(t, s)
    print(f"step t={t:.2f} -> s={s:.2f}: each masked token reveals w.p. {p:.3f}")
print()

print("== a full reverse trajectory against the true x0 ==")
row = np.concatenate([x0[:PROMPT], np.full(len(x0) - PROMPT, MASK)])
show(row, "t=1.00 (fully masked)")
grid = np.linspace(1.0, 0.0, 5)
for t, s in zip(grid[:-1], grid[1:]):
    reveal = (row == MASK) & (rng.random(len(row)) < reverse_unmask_prob(float(t), float(s)))
    row = np.where(reveal, x0, row)
    show(row, f"after step to s={s:.2f}")
print("\nat s=0 the reveal probability reaches 1, so nothing stays masked")
