"""The reference computations against hand-derived values, and against the
program on random models."""

import math

import numpy as np
import pytest

import reference as ref
from compsum import corpus, model, training


def tiny(d=1, V=4, **values):
    """All-zero tensors of a d-wide model, with the given ones filled in."""
    shapes = model.tensor_shapes(d, V)
    t = {name: np.zeros(shape) for name, shape in shapes.items()}
    for name, value in values.items():
        t[name] = np.array(value, dtype=float).reshape(shapes[name])
    return t


def test_forward_by_hand_memory_off():
    # Zero gates give z = r = 1/2; W_h = 1 makes the candidate tanh(E[tok]).
    t = tiny(E=[0.0, 0.0, 0.3, -0.7], W_h=[1.0], W_o=[1.0, -2.0, 0.5, 0.0], b_o=[0.0, 0.1, 0.0, 0.0])
    h1 = 0.5 * math.tanh(0.3)
    h2 = 0.5 * h1 + 0.5 * math.tanh(-0.7)
    logits = ref.teacher_forced_logits(t, [[2]], [3, 2], memory_on=False)
    want = np.array([[h, -2.0 * h + 0.1, 0.5 * h, 0.0] for h in (h1, h2)])
    assert np.allclose(logits, want, rtol=0, atol=1e-15)


def test_memory_fold_by_hand():
    # Zero query/key weights attend uniformly; W_v = 1 reads the mean hidden
    # state; a zero gate pre-activation writes half of it.
    t = tiny(W_v=[1.0])
    mem = ref.fold_memory(t, np.array([0.2]), np.array([[0.4], [0.8]]))
    assert mem == pytest.approx([0.5 * 0.2 + 0.5 * 0.6], abs=1e-15)


def test_memory_feeds_later_regions_by_hand():
    t = tiny(E=[0.0, 0.0, 0.3, -0.7], W_h=[1.0], W_v=[1.0], W_o=[1.0, 0.0, 0.0, 0.0])
    h1 = 0.5 * math.tanh(0.3)
    mem = 0.5 * h1  # folded from the first region [2]
    h2 = 0.5 * h1 + 0.5 * math.tanh(-0.7 + mem)
    logits = ref.teacher_forced_logits(t, [[2], [3]], [2], memory_on=True)
    assert logits[:, 0] == pytest.approx([h2], abs=1e-15)
    off = ref.teacher_forced_logits(t, [[2], [3]], [2], memory_on=False)
    assert off[0, 0] == pytest.approx(0.5 * h1 + 0.5 * math.tanh(-0.7), abs=1e-15)


def test_cross_entropy_by_hand():
    logits = np.log(np.array([[1.0, 2.0, 5.0], [1.0, 1.0, 1.0], [1.0, 1.0, 3.0]]))
    # The middle target is PAD and is left out of the mean.
    want = (math.log(8 / 5) + math.log(5 / 3)) / 2
    assert ref.cross_entropy(logits, [2, ref.PAD, 2]) == pytest.approx(want, rel=1e-15)


def test_contrastive_loss_identities():
    t = tiny(d=2, V=8, E=np.arange(16) / 10.0, W_h=[1.0, 0.2, -0.3, 0.8])
    assert ref.contrastive_loss(t, [[3, 4]], [5, 6]) == pytest.approx(0.0, abs=1e-15)
    same = ref.contrastive_loss(t, [[3, 4]] * 3, [5, 6])
    assert same == pytest.approx(3 * math.log(3), rel=1e-14)


def test_greedy_pick_masks_reserved_and_takes_lowest_on_ties():
    assert ref.greedy_pick(np.array([9.0, 9.0, 1.0, 4.0, 4.0])) == 3
    assert ref.greedy_pick(np.array([0.0, 0.0, 2.0, 2.0])) == ref.EOS


def test_rouge_by_hand():
    cand = "the cat sat".split()
    reference = "the cat sat on the mat".split()
    assert ref.rouge_n_f1(cand, reference, 1) == pytest.approx(2 / 3, rel=1e-15)
    assert ref.rouge_n_f1(cand, reference, 2) == pytest.approx(2 * 0.4 / 1.4, rel=1e-15)
    assert ref.rouge_n_f1("a a a".split(), ["a"], 1) == pytest.approx(0.5, rel=1e-15)
    assert ref.lcs("a b c d".split(), "a c b d".split()) == 3
    assert ref.rouge_l_f1("a b c d".split(), "a c b d".split()) == pytest.approx(0.75, rel=1e-15)
    assert ref.rouge_n_f1([], reference, 1) == 0.0


def test_g_score_by_hand():
    cand = "alphanet outperforms betanet on accuracy . betanet is covered here .".split()
    units = ["alphanet outperforms betanet on accuracy".split(),
             "betanet trails alphanet on accuracy".split()]
    # Unit two shares a 3-token subsequence with sentence one: F1 3/5.
    # tau 0.5: coverage 1, density 1/2 -> 100 * 2 * 0.5 / 1.5.
    assert ref.g_score(cand, units, 0.5) == pytest.approx(200 / 3, rel=1e-15)
    # tau 0.7: coverage 1/2, density 1/2 -> 50.
    assert ref.g_score(cand, units, 0.7) == pytest.approx(50.0, rel=1e-15)
    assert ref.g_score([], units, 0.5) == 0.0


@pytest.mark.parametrize("l_chunk,memory_on", [(3, True), (5, True), (4, False)])
def test_forward_and_loss_match_the_program(l_chunk, memory_on):
    rng = np.random.default_rng(l_chunk)
    params = model.init_params(6, 15, seed=l_chunk, scale=0.5)
    context = [corpus.BOS] + [int(x) for x in rng.integers(7, 15, size=13)]
    target = [int(x) for x in rng.integers(7, 15, size=6)] + [corpus.EOS]
    chunks = corpus.chunk(context, l_chunk)
    flags = model.AblationFlags(disable_memory=not memory_on)
    trace = model.forward(params, chunks, target, flags)
    plain = [c.tokens for c in chunks]
    want = ref.teacher_forced_logits(params.tensors, plain, target, memory_on)
    assert np.allclose(trace.logits, want, rtol=1e-12, atol=1e-12)
    assert training.generation_loss(trace, target) == pytest.approx(
        ref.generation_loss(params.tensors, plain, target, memory_on), rel=1e-12
    )
    decoded = model.greedy_decode(params, chunks, 8, flags)
    rows = ref.decode_logits(params.tensors, plain, decoded, memory_on)
    assert decoded == [ref.greedy_pick(r) for r in rows[: len(decoded)]]
