"""Walk through the forward masking process and its analytic reverse step.

A clean sequence is progressively corrupted by replacing tokens with the
mask symbol: at time t each token survives with probability alpha(t) = 1 - t.
The reverse step t -> s reveals each masked position with probability
(t - s) / t. Running this script prints the whole story.
"""

import numpy as np

from mdlmlab import (
    SequenceState,
    Vocabulary,
    alpha,
    forward_mask,
    make_masked_state,
    posterior_step,
    reverse_unmask_prob,
)

rng = np.random.default_rng(0)
vocab = Vocabulary(4)


def show(state, label):
    cells = ["[M]" if state.is_masked(i) else str(state.tokens[i]) for i in range(len(state))]
    print(f"{label:28s} {' '.join(f'{c:>3s}' for c in cells)}")


print("== forward corruption ==")
x0 = SequenceState(vocab, (2, 1, 4, 3, 1, 2, 4, 4), prompt_len=2)
show(x0, "clean x0 (prompt = first 2)")
for t in (0.25, 0.5, 0.75, 1.0):
    show(forward_mask(x0, t, rng), f"corrupted at t={t}")
print("the prompt never masks; each other token flips with probability t\n")

print("== masked fraction tracks 1 - alpha(t) = t ==")
long = SequenceState(vocab, tuple(rng.integers(1, 5, size=5000).tolist()), 0)
for t in (0.2, 0.6, 0.9):
    xt = forward_mask(long, t, rng)
    frac = len(xt.masked_positions()) / len(long)
    print(f"t={t:.1f}: masked fraction {frac:.3f} (alpha(t)={alpha(t):.1f})")
print()

print("== reverse step probabilities ==")
for t, s in ((1.0, 0.75), (0.75, 0.5), (0.5, 0.25), (0.25, 0.0)):
    p = reverse_unmask_prob(t, s)
    print(f"step t={t:.2f} -> s={s:.2f}: each masked token reveals w.p. {p:.3f}")
print()

print("== a full reverse trajectory against the true x0 ==")
state = make_masked_state(vocab, (2, 1), gen_len=6)
show(state, "t=1.00 (fully masked)")
grid = np.linspace(1.0, 0.0, 5)
full_x0 = SequenceState(vocab, x0.tokens, prompt_len=2)
for t, s in zip(grid[:-1], grid[1:]):
    state = posterior_step(state, full_x0, float(t), float(s), rng)
    show(state, f"after step to s={s:.2f}")
print("\nat s=0 the reveal probability reaches 1, so nothing stays masked")
