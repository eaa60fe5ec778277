"""Tests for the loss functions, the hand-written backward pass, the
finite-difference harness, the optimizer, and both training loops."""

import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from compsum.corpus import (
    EOS,
    PAD,
    RawPaper,
    RawPaperSet,
    build_vocab,
    dataset_token_streams,
    generate_synthetic_corpus,
    load_dataset,
    write_dataset,
)
from compsum.errors import DataError, InvariantError
from compsum import model, training
from compsum.model import ForwardTrace, forward, init_params
from compsum.training import (
    AdamState,
    LossSpec,
    TrainConfig,
    _losses_and_grads,
    backward,
    clip_gradients,
    comparative_loss,
    cosine_similarity,
    finite_difference_check,
    generation_loss,
    gradcheck_probe,
    init_adam_state,
    optimizer_step,
    stage_loss,
    train_comparative,
    train_pretrain,
)
from tests.test_model import zero_params


def logits_trace(logits):
    """Minimal trace carrying just the logits the loss functions read."""
    n = logits.shape[0]
    zeros = np.zeros((n, 1))
    return ForwardTrace(
        list(range(n)), [(0, n)], zeros, zeros, zeros, zeros, zeros,
        None, np.asarray(logits, dtype=float), 0,
    )


@pytest.fixture(scope="module")
def tiny_data(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("data") / "tiny.jsonl")
    write_dataset(path, generate_synthetic_corpus(21, 4, (2, 2)))
    vocab = build_vocab(dataset_token_streams(path))
    return load_dataset(path, vocab), vocab


class TestGenerationLoss:
    def test_frozen_two_rows(self):
        trace = logits_trace(np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]))
        loss = generation_loss(trace, [2, 1])
        assert_allclose(loss, 0.7531091265562452, rtol=1e-12)

    def test_pad_targets_excluded_from_mean(self):
        trace = logits_trace(np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0], [1.0, 5.0, 1.0]]))
        loss = generation_loss(trace, [2, PAD, 1])
        # mean over the two non-PAD rows; including the PAD row would add ln 3
        assert_allclose(loss, 0.2217911320962868, rtol=1e-12)

    def test_uniform_logits_give_log_vocab(self):
        trace = logits_trace(np.zeros((4, 20)))
        assert_allclose(generation_loss(trace, [3, 7, 19, 1]), math.log(20.0), rtol=1e-15)

    def test_all_pad_rejected(self):
        trace = logits_trace(np.zeros((2, 5)))
        with pytest.raises(InvariantError, match="every target position is PAD"):
            generation_loss(trace, [PAD, PAD])

    def test_row_count_mismatch(self):
        trace = logits_trace(np.zeros((2, 5)))
        with pytest.raises(InvariantError, match="2 logit rows for 3 target positions"):
            generation_loss(trace, [1, 2, 3])

    def test_extreme_logits_stay_finite(self):
        trace = logits_trace(np.array([[1000.0, -1000.0, 0.0]]))
        assert_allclose(generation_loss(trace, [2]), 1000.0, rtol=1e-12)


class TestCosineSimilarity:
    def test_parallel_orthogonal_opposed(self):
        a = np.array([1.0, 0.0])
        assert_allclose(cosine_similarity(a, a), 0.9999999900000002, rtol=1e-15)
        assert cosine_similarity(a, np.array([0.0, 1.0])) == 0.0
        assert_allclose(cosine_similarity(a, -a), -1.0, rtol=1e-7)

    def test_zero_vector_gives_zero(self):
        assert cosine_similarity(np.zeros(3), np.ones(3)) == 0.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=4), rng.normal(size=4)
        assert_allclose(cosine_similarity(3.0 * a, b), cosine_similarity(a, b), rtol=1e-7)

    def test_shape_mismatch(self):
        want = "cosine inputs differ in shape: (3,) vs (4,)"
        with pytest.raises(InvariantError, match=re.escape(want)):
            cosine_similarity(np.zeros(3), np.zeros(4))


class TestComparativeLoss:
    def test_single_insight_is_exactly_zero(self):
        rng = np.random.default_rng(4)
        loss = comparative_loss([rng.normal(size=5)], rng.normal(size=5))
        assert loss == 0.0

    def test_equal_similarities_hit_n_log_n(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 5):
            v = rng.normal(size=6)
            loss = comparative_loss([v.copy() for _ in range(n)], rng.normal(size=6))
            assert abs(loss - n * math.log(n)) <= 1e-9

    def test_frozen_orthogonal_pair(self):
        loss = comparative_loss(
            [np.array([1.0, 0.0]), np.array([0.0, 1.0])], np.array([1.0, 0.0])
        )
        assert_allclose(loss, 1.6265233704152742, rtol=1e-12)
        assert loss > 2 * math.log(2)

    def test_lower_bound_over_random_sets(self):
        rng = np.random.default_rng(6)
        bound = 3 * math.log(3)
        for _ in range(200):
            vecs = [rng.normal(size=4) for _ in range(3)]
            assert comparative_loss(vecs, rng.normal(size=4)) >= bound - 1e-9

    def test_empty_insights_rejected(self):
        want = "contrastive loss needs at least one insight vector"
        with pytest.raises(InvariantError, match=want):
            comparative_loss([], np.zeros(3))


class TestStageAndTotalLoss:
    def test_weighted_sum(self):
        assert stage_loss(0.5, 0.25, 2.0) == 0.5 + 2.0 * 0.25

    def test_zero_weight_short_circuits(self):
        # bitwise equality even when the contrastive value is unusable
        assert stage_loss(0.437, float("nan"), 0.0) == 0.437


class TestBackward:
    def test_zero_weight_matches_generation_only_bitwise(self):
        probe = gradcheck_probe(0)
        trace = forward(probe.params, probe.context_chunks, probe.spec.targets)
        gen_only = backward(trace, probe.params, LossSpec(targets=probe.spec.targets))
        with_comp = backward(
            trace,
            probe.params,
            LossSpec(targets=probe.spec.targets, lam=0.0, insights=probe.spec.insights,
                     ref_tokens=probe.spec.targets),
        )
        for name in gen_only:
            assert np.array_equal(gen_only[name], with_comp[name])

    def test_stale_trace_rejected(self):
        probe = gradcheck_probe(2)
        trace = forward(probe.params, probe.context_chunks, probe.spec.targets)
        other = init_params(4, 20, 0)
        want = "trace built for d=8, V=20; params have d=4, V=20"
        with pytest.raises(InvariantError, match=want):
            backward(trace, other, LossSpec(targets=probe.spec.targets))

    def test_contrastive_requires_reference(self):
        probe = gradcheck_probe(3)
        trace = forward(probe.params, probe.context_chunks, probe.spec.targets)
        with pytest.raises(InvariantError, match="contrastive term needs reference tokens"):
            backward(trace, probe.params, LossSpec(lam=0.5, insights=probe.spec.insights))

    def test_contrastive_requires_an_insight(self):
        probe = gradcheck_probe(3)
        trace = forward(probe.params, probe.context_chunks, probe.spec.targets)
        spec = LossSpec(lam=0.5, insights=[], ref_tokens=probe.spec.targets)
        want = "contrastive loss needs at least one insight sequence"
        with pytest.raises(InvariantError, match=want):
            backward(trace, probe.params, spec)

    @pytest.mark.parametrize("seed", range(3))
    def test_probe_loss_is_the_trained_stage_loss(self, seed):
        # The finite differences are taken of probe.loss; it must be the
        # value training computes, bit for bit.
        probe = gradcheck_probe(seed)
        spec = probe.spec
        trace = forward(probe.params, probe.context_chunks, spec.targets)
        l_gen, l_comp, _ = _losses_and_grads(trace, probe.params, spec, probe.params.zeros_like())
        assert probe.loss(probe.params) == stage_loss(l_gen, l_comp, spec.lam)

    def test_probe_loss_runs_no_backward_sweep(self, monkeypatch):
        probe = gradcheck_probe(0)
        spec = probe.spec
        trace = forward(probe.params, probe.context_chunks, spec.targets)
        l_gen, l_comp, _ = _losses_and_grads(trace, probe.params, spec, probe.params.zeros_like())

        def no_sweep(*args, **kwargs):
            raise AssertionError("the probe's loss ran a backward sweep")

        monkeypatch.setattr(training, "_backward_stream", no_sweep)
        assert probe.loss(probe.params) == stage_loss(l_gen, l_comp, spec.lam)

    @pytest.mark.parametrize("term", ["generation", "contrastive"])
    def test_reused_store_gets_a_fresh_stores_gradients(self, term):
        # Training writes every step's gradients into one store, so each
        # call must zero it first rather than add to the last step's.
        probe = gradcheck_probe(1)
        spec = probe.spec
        if term == "generation":
            spec = LossSpec(targets=spec.targets)
        else:
            spec = LossSpec(lam=spec.lam, insights=spec.insights, ref_tokens=spec.ref_tokens)
        trace = forward(probe.params, probe.context_chunks, probe.spec.targets)
        assert trace.memory is not None
        want = backward(trace, probe.params, spec)
        store = probe.params.zeros_like()
        for _ in range(2):
            assert _losses_and_grads(trace, probe.params, spec, store)[2] is store
            assert np.array_equal(store.flat, want.flat)
        assert np.any(want.flat != 0.0)


class TestFiniteDifference:
    def test_probe_gradients_subsampled(self):
        probe = gradcheck_probe(0)
        err = finite_difference_check(
            probe.params, probe.loss, probe.grads, eps=1e-5, max_entries=80, seed=5
        )
        assert err < 1e-4

    @staticmethod
    def _quadratic(bad_grad=None, loss_offset=0.0):
        """L = |E|^2 / 2 + loss_offset and its gradient, with the analytic
        E[0, 0] replaced by ``bad_grad`` when one is given."""

        def loss_fn(p):
            return float(0.5 * (p["E"] ** 2).sum()) + loss_offset

        def grad_fn(p):
            grads = p.zeros_like()
            grads["E"] = p["E"]
            if bad_grad is not None:
                grads["E"][0, 0] = bad_grad
            return grads

        return loss_fn, grad_fn

    def test_quadratic_oracle(self):
        params = init_params(3, 8, 2)
        err = finite_difference_check(params, *self._quadratic(), eps=1e-5,
                                      max_entries=50, seed=1)
        assert err < 1e-6

    @pytest.mark.parametrize("bad_grad, loss_offset", [
        (math.nan, 0.0), (math.inf, 0.0), (None, math.nan),
    ])
    def test_non_finite_error_is_the_result(self, bad_grad, loss_offset):
        err = finite_difference_check(
            init_params(3, 8, 2), *self._quadratic(bad_grad, loss_offset)
        )
        assert not math.isfinite(err)

    def test_params_restored_after_probing(self):
        probe = gradcheck_probe(4)
        before = {k: v.copy() for k, v in probe.params.items()}
        finite_difference_check(probe.params, probe.loss, probe.grads,
                                max_entries=5, seed=0)
        for name, tensor in before.items():
            assert np.array_equal(probe.params[name], tensor)

    def test_eps_validation(self):
        probe = gradcheck_probe(5)
        for eps in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                finite_difference_check(probe.params, probe.loss, probe.grads, eps=eps)


def per_tensor_adam(params, grads, m, v, step, lr):
    """One Adam update tensor by tensor, as plain dicts: the oracle of
    ``optimizer_step``'s update of the flat vectors."""
    b1, b2 = training.ADAM_BETA1, training.ADAM_BETA2
    bias1 = 1.0 - b1**step
    bias2 = 1.0 - b2**step
    for name, g in grads.items():
        m[name] *= b1
        m[name] += (1.0 - b1) * g
        v[name] *= b2
        v[name] += (1.0 - b2) * (g * g)
        params[name] -= lr * (m[name] / bias1) / (np.sqrt(v[name] / bias2) + training.ADAM_EPS)


def random_grads(params, rng, scale=1.0):
    grads = params.zeros_like()
    for name, tensor in grads.items():
        grads[name] = rng.normal(size=tensor.shape) * scale
    return grads


class TestAdam:
    def test_frozen_first_step(self):
        params = zero_params(2, 7)
        params["E"][0, 0] = 1.0
        grads = params.zeros_like()
        grads["E"][0, 0] = 1.0
        state = init_adam_state(params)
        optimizer_step(params, grads, state, TrainConfig(learning_rate=0.1))
        # unit gradient, zero state: update is lr / (1 + eps)
        assert params["E"][0, 0] == 0.900000001
        assert params["E"][1, 1] == 0.0
        assert state.step == 1

    def test_zero_gradients_leave_params_unchanged(self):
        params = init_params(3, 9, 0)
        before = {k: v.copy() for k, v in params.items()}
        state = init_adam_state(params)
        optimizer_step(params, params.zeros_like(), state, TrainConfig())
        for name in before:
            assert np.array_equal(params[name], before[name])
        assert state.step == 1

    def test_deterministic_across_runs(self):
        def run():
            rng = np.random.default_rng(9)
            params = init_params(3, 9, 1)
            state = init_adam_state(params)
            cfg = TrainConfig(learning_rate=0.01)
            for _ in range(5):
                optimizer_step(params, random_grads(params, rng), state, cfg)
            return params

        a, b = run(), run()
        for name in a:
            assert np.array_equal(a[name], b[name])

    @pytest.mark.parametrize("d, V", [(1, 7), (3, 9), (32, 68)])
    def test_bitwise_equal_to_per_tensor_updates(self, d, V):
        rng = np.random.default_rng(d)
        params = init_params(d, V, 1)
        state = init_adam_state(params)
        want = {k: v.copy() for k, v in params.items()}
        m = {k: np.zeros_like(v) for k, v in want.items()}
        v = {k: np.zeros_like(a) for k, a in want.items()}
        cfg = TrainConfig(learning_rate=0.01)
        for step in range(1, 6):
            grads = random_grads(params, rng, scale=10.0 ** rng.integers(-4, 3))
            optimizer_step(params, grads, state, cfg)
            per_tensor_adam(want, grads, m, v, step, cfg.learning_rate)
        for name in want:
            assert np.array_equal(params[name], want[name]), name
            assert np.array_equal(state.m[name], m[name]), name
            assert np.array_equal(state.v[name], v[name]), name

    def test_shape_validation(self):
        grads = init_params(3, 9, 0).zeros_like()
        want = "tensor 'E': shape (9, 3), got shape (1, 1)"
        with pytest.raises(InvariantError, match=re.escape(want)):
            grads["E"] = np.zeros((1, 1))
        with pytest.raises(InvariantError, match="tensor 'W_o' cannot be deleted"):
            del grads["W_o"]
        assert grads["E"].shape == (9, 3) and "W_o" in grads


class TestClipGradients:
    def test_below_threshold_untouched(self):
        grads = zero_params(2, 7).zeros_like()
        grads["b_z"] = np.array([3.0, 4.0])
        assert clip_gradients(grads, max_norm=5.0) == 5.0
        assert np.array_equal(grads["b_z"], [3.0, 4.0])

    def test_above_threshold_scaled_to_max(self):
        grads = zero_params(2, 7).zeros_like()
        grads["b_z"], grads["b_r"] = np.array([6.0, 0.0]), np.array([0.0, 8.0])
        norm = clip_gradients(grads, max_norm=5.0)
        assert norm == 10.0
        assert_allclose(grads["b_z"], [3.0, 0.0], rtol=1e-15)
        assert_allclose(grads["b_r"], [0.0, 4.0], rtol=1e-15)

    def test_direction_preserved(self):
        rng = np.random.default_rng(3)
        g = rng.normal(size=6) * 100
        grads = zero_params(6, 7).zeros_like()
        grads["b_z"] = g.copy()
        clip_gradients(grads, max_norm=1.0)
        assert_allclose(grads["b_z"] / np.linalg.norm(grads["b_z"]), g / np.linalg.norm(g),
                        rtol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_norm_matches_per_tensor_norm(self, seed):
        rng = np.random.default_rng(seed)
        grads = random_grads(init_params(32, 68, seed), rng, scale=10.0 ** rng.integers(-6, 6))
        want = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
        assert_allclose(clip_gradients(grads, max_norm=math.inf), want, rtol=1e-15)


class TestTrainingLoops:
    def _config(self, **kw):
        base = dict(learning_rate=0.01, epochs=1, l_chunk=16, d=8, seed=0)
        base.update(kw)
        return TrainConfig(**base)

    def test_zero_epochs_returns_init_copy(self, tiny_data):
        corpus, vocab = tiny_data
        init = init_params(8, len(vocab), 3)
        out = train_pretrain(corpus, self._config(epochs=0), vocab, init=init)
        assert out is not init
        for name in init:
            assert np.array_equal(out[name], init[name])

    def test_zero_epochs_seeded_init(self, tiny_data):
        corpus, vocab = tiny_data
        out = train_pretrain(corpus, self._config(epochs=0, seed=5), vocab)
        fresh = init_params(8, len(vocab), 5)
        for name in fresh:
            assert np.array_equal(out[name], fresh[name])

    def test_pretrain_deterministic(self, tiny_data):
        corpus, vocab = tiny_data
        a = train_pretrain(corpus, self._config(), vocab)
        b = train_pretrain(corpus, self._config(), vocab)
        for name in a:
            assert np.array_equal(a[name], b[name])

    def test_pretrain_reduces_loss(self, tiny_data):
        corpus, vocab = tiny_data
        records = []
        train_pretrain(corpus, self._config(epochs=5), vocab, log_fn=records.append)
        first = np.mean([r.l_gen for r in records[: len(corpus)]])
        last = np.mean([r.l_gen for r in records[-len(corpus):]])
        assert last < first

    def test_log_records_shape(self, tiny_data):
        corpus, vocab = tiny_data
        records = []
        train_pretrain(corpus, self._config(epochs=2), vocab, log_fn=records.append)
        assert len(records) == 2 * len(corpus)
        assert [r.step for r in records] == list(range(1, len(records) + 1))
        assert {r.epoch for r in records} == {1, 2}
        assert all(r.lam == 0.0 and r.l_stage == r.l_gen for r in records)

    def test_log_records_the_pre_clip_gradient_norm(self, tiny_data, monkeypatch):
        corpus, vocab = tiny_data
        norms = []
        clip = training.clip_gradients

        def recording(grads, max_norm):
            norms.append(clip(grads, max_norm))
            return norms[-1]

        monkeypatch.setattr(training, "clip_gradients", recording)
        records = []
        train_pretrain(corpus, self._config(epochs=2), vocab, log_fn=records.append)
        assert len(norms) == len(records)
        assert [r.grad_norm for r in records] == norms

    def test_empty_corpus_rejected(self, tiny_data):
        _, vocab = tiny_data
        with pytest.raises(DataError, match="pretraining corpus is empty"):
            train_pretrain([], self._config(), vocab)
        with pytest.raises(DataError, match="fine-tuning dataset is empty"):
            train_comparative([], init_params(8, len(vocab), 0),
                              self._config(), vocab)

    def test_comparative_stage_trains(self, tiny_data):
        corpus, vocab = tiny_data
        init = init_params(8, len(vocab), 0)
        records = []
        cfg = self._config(lam=0.5)
        out = train_comparative(corpus, init, cfg, vocab, log_fn=records.append)
        assert len(records) == len(corpus)
        assert all(r.lam == 0.5 and r.l_comp > 0.0 for r in records)
        assert any(not np.array_equal(out[name], init[name]) for name in init)

    def test_non_finite_values_name_stage_and_step(self, tiny_data):
        corpus, vocab = tiny_data
        init = init_params(8, len(vocab), 0)
        init["W_o"][3, 2] = np.nan
        with pytest.raises(InvariantError, match="pretrain step 1: loss nan"):
            train_pretrain(corpus, self._config(), vocab, init=init)
        with pytest.raises(InvariantError, match="comparative step 1: loss nan"):
            train_comparative(corpus, init, self._config(), vocab)

    def test_contexts_assembled_once_per_stage(self, tiny_data, monkeypatch):
        corpus, vocab = tiny_data
        calls = []
        assemble = model.assemble_context

        def counting(*args, **kwargs):
            calls.append(args[0].id)
            return assemble(*args, **kwargs)

        monkeypatch.setattr(model, "assemble_context", counting)
        params = train_pretrain(corpus, self._config(epochs=3), vocab)
        assert len(calls) == len(corpus)
        train_comparative(corpus, params, self._config(epochs=3), vocab)
        assert len(calls) == 2 * len(corpus)

    def _insightless(self, tmp_path):
        papers = [RawPaper("p0", "t", "alpha beats beta .", ""),
                  RawPaper("p1", "t", "beta trails alpha .", "")]
        path = str(tmp_path / "bare.jsonl")
        write_dataset(path, [RawPaperSet("e0", papers, "alpha wins .")])
        vocab = build_vocab(dataset_token_streams(path))
        return load_dataset(path, vocab), vocab

    def test_missing_insights_rejected_when_weighted(self, tmp_path):
        corpus, vocab = self._insightless(tmp_path)
        init = init_params(8, len(vocab), 0)
        with pytest.raises(DataError, match="example 'e0' has no non-empty insight but lambda > 0"):
            train_comparative(corpus, init, self._config(lam=0.5), vocab)

