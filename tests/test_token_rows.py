"""One check of token rows at every entry point.

Each entry point that takes token ids refuses the same malformed rows with
``ValueError``: an id of 1.5, a row of float dtype, id 0, an id past the
range (V+1, or V+2 where the mask id V+1 is allowed) and ragged rows. No
float id is truncated and no out-of-range id aliases another row. Valid
rows give the same output whatever integer type carries them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdlmlab.core import SequenceState, StateBatch
from mdlmlab.decoding import PolicyConfig, decode_blockwise
from mdlmlab.nn import TransformerConfig, corrupt_batch, forward, init_params
from mdlmlab.oracle import (
    OracleDenoiser, joint_prob, joint_table, random_dag, sequence_codes,
)

# each defect and the words of the error it must raise: a float id is
# refused, never truncated, and an out-of-range id never aliases a row
DEFECTS = {"half": "integers", "float_row": "integers", "zero": "outside",
           "past": "outside", "ragged": "must be rows of"}
PARAMS = {V: init_params(TransformerConfig(vocab_size=V, max_len=6, n_layers=1, d_model=8,
                                           n_heads=1, seed=V))
          for V in (2, 3)}


def malformed(rows: list[list[int]], V: int, mask: bool, defect: str, where: tuple[int, int]):
    """``rows`` (valid ids) with one defect, as lists; a one-row case keeps
    its single row, so ragged nests a pair at one position."""
    r, k = where
    bad = [list(row) for row in rows]
    if defect == "half":
        bad[r][k] = bad[r][k] + 0.5
    elif defect == "float_row":
        bad[r] = [float(t) for t in bad[r]]
    elif defect == "zero":
        bad[r][k] = 0
    elif defect == "past":
        bad[r][k] = V + 2 if mask else V + 1
    elif len(bad) > 1:
        bad[r] = bad[r][:-1]
    else:
        bad[r][k] = (1, 1)
    return bad


def entry_points(V: int, L: int, model):
    """(name, mask allowed, row length, rows per call at most, call on a list
    of rows) for every entry point; the sampler's rows are prompts of one
    token, decoded to length L."""
    vocab = model.vocab
    den = OracleDenoiser(model)
    cfg = PARAMS[V].config
    return (
        ("SequenceState", True, L, 1, lambda rows: SequenceState(vocab, tuple(rows[0])).tokens),
        ("decode_blockwise", False, 1, 3, lambda rows: [
            final for final, _ in decode_blockwise(
                den, PolicyConfig(), rows, L - 1, np.random.default_rng(0))
        ]),
        ("OracleDenoiser", True, L, 3, lambda rows: den(StateBatch(vocab, rows)).probs),
        ("nn.forward", True, L, 3, lambda rows: forward(PARAMS[V], StateBatch(vocab, rows)).probs),
        ("corrupt_batch", False, L, 3, lambda rows: corrupt_batch(
            cfg, rows, 0, np.random.default_rng(0))[0]),
        ("joint_prob", False, L, 1, lambda rows: joint_prob(model, rows[0])),
        ("sequence_codes", False, L, 3, lambda rows: sequence_codes(rows, V, L)),
    )


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(V=st.integers(2, 3), L=st.integers(2, 5), seed=st.integers(0, 2**16), data=st.data())
def test_every_entry_point_refuses_malformed_rows(V, L, seed, data):
    model = random_dag(np.random.default_rng(seed), V=V, L=L)
    for name, mask, width, most, call in entry_points(V, L, model):
        top = V + 1 if mask else V
        rows = data.draw(st.lists(st.lists(st.integers(1, top), min_size=width, max_size=width),
                                  min_size=1, max_size=most))
        # valid rows: the same output from lists, int32 and int64 arrays
        want = call(rows)
        for dtype in (np.int32, np.int64):
            got = call([list(row) for row in np.array(rows, dtype=dtype)])
            assert np.array_equal(np.asarray(got), np.asarray(want)), name
        if name == "sequence_codes":
            assert want.tolist() == [
                int(np.ravel_multi_index([t - 1 for t in row], (V,) * L)) for row in rows]
        if name == "joint_prob":
            assert want == joint_table(model)[tuple(t - 1 for t in rows[0])]
        for defect, words in DEFECTS.items():
            where = (data.draw(st.integers(0, len(rows) - 1)), data.draw(st.integers(0, width - 1)))
            with pytest.raises(ValueError, match=words):
                call(malformed(rows, V, mask, defect, where))
