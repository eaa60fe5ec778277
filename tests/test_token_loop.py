"""The vectorised forward, backward and decoding passes against the
position-by-position oracle in ``token_loop_oracle.py``: every field of the
forward trace and of its memory record, every logit and every decoded token
must be bitwise equal.  The backward pass sums over positions by matrix
products, in another order than the oracle's loop, so its gradients must
agree to rtol 1e-12."""

import dataclasses
import warnings

import numpy as np
import pytest

import token_loop_oracle as oracle
from compsum import model, training
from compsum.corpus import BOS, EOS, chunk
from compsum.model import AblationFlags, forward, greedy_decode, init_params, sigmoid
from compsum.training import LossSpec, _backward_stream, backward

# d=10: gate matrices whose row count is not a multiple of the BLAS kernels'
# row blocks, where a stacked [W_z; W_r; W_h] product would round differently.
DIMS = (1, 6, 10, 32)
CHUNK_SIZES = (1, 4, 16, None)  # None: the whole context in one chunk


def _example(d, seed, V=23):
    rng = np.random.default_rng(seed)
    params = init_params(d, V, seed, scale=0.6)
    context = [BOS] + [int(t) for t in rng.integers(7, V, size=29)]
    target = [int(t) for t in rng.integers(7, V, size=9)] + [EOS]
    insights = [[int(t) for t in rng.integers(7, V, size=n)] for n in (5, 3, 6)]
    return params, context, target, insights


def _chunks(context, l_chunk):
    return chunk(context, l_chunk or len(context))


def _flags(memory_on):
    return AblationFlags(disable_memory=not memory_on)


def _assert_fields_equal(got, want):
    """Every field of two records is equal, nested records field by field."""
    for f in dataclasses.fields(got):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if dataclasses.is_dataclass(a):
            _assert_fields_equal(a, b)
        else:
            assert np.array_equal(a, b), f.name


def _assert_grads_close(got, want):
    assert set(got) == set(want)
    for name in want:
        atol = 1e-13 * np.abs(want[name]).max()
        np.testing.assert_allclose(got[name], want[name], rtol=1e-12, atol=atol, err_msg=name)


def _random_grads(params, seed):
    rng = np.random.default_rng(seed)
    grads = params.zeros_like()
    for name, tensor in grads.items():
        grads[name] = rng.normal(size=tensor.shape)
    return grads


class TestActivationAndSum:
    def test_sigmoid_equals_clipped_form(self):
        rng = np.random.default_rng(0)
        arrays = [np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                            36.7, -36.7, 709.0, -709.0, 746.0, -746.0, 1e308, -1e308])]
        for size in (1, 2, 3, 7, 16, 64, 256):
            for scale in (1e-8, 1e-3, 1.0, 5.0, 30.0, 800.0):
                arrays.append(rng.normal(size=size) * scale)
        for x in arrays:
            assert np.array_equal(sigmoid(x), oracle.clipped_sigmoid(x), equal_nan=True)

    def test_cell_gates_at_the_clip(self):
        # The cell negates the z and r pre-activations and takes their
        # sigmoid as 1 / (1 + exp(min(-x, 700))); at and past the clip it
        # must give the oracle's bits and never overflow.
        pre = np.array([-1e3, -700.5, -700.0, 700.0, 1e3])
        d = len(pre)
        params = init_params(d, 7, 0)
        for name in ("W_z", "W_r", "U_z", "U_r"):
            params[name] = np.zeros((d, d))
        params["b_z"], params["b_r"] = pre, pre[::-1]
        h_prev, x = np.linspace(-0.5, 0.5, d), np.linspace(1.0, -1.0, d)
        cell = model._GatedCell(params)
        h, zr, h_cand = np.empty(d), np.empty(2 * d), np.empty(d)
        with np.errstate(over="warn", invalid="warn", divide="warn"), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            cell.step(h_prev, cell.project(x[None])[0], h, zr, h_cand)
            want_h, want_z, want_r, want_cand = oracle.cell(params, h_prev, x)
        assert np.array_equal(zr[:d], oracle.clipped_sigmoid(pre))
        assert np.array_equal(zr[d:], oracle.clipped_sigmoid(pre[::-1]))
        for got, want in ((zr[:d], want_z), (zr[d:], want_r), (h, want_h), (h_cand, want_cand)):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("memory_on", [True, False])
@pytest.mark.parametrize("l_chunk", CHUNK_SIZES)
class TestStreamPasses:
    def test_forward_trace(self, d, memory_on, l_chunk):
        params, context, target, _ = _example(d, 1)
        trace = forward(params, _chunks(context, l_chunk), target, _flags(memory_on))
        ref = oracle.run_stream(
            params, trace.input_ids, trace.region_spans, memory_on, trace.logits_start
        )
        assert (trace.memory is None) == (ref.memory is None) == (not memory_on)
        _assert_fields_equal(trace, ref)

    def test_generation_gradients(self, d, memory_on, l_chunk):
        params, context, target, _ = _example(d, 2)
        trace = forward(params, _chunks(context, l_chunk), target, _flags(memory_on))
        _, dlogits = training._generation_loss_and_dlogits(trace.logits, np.asarray(target))
        # Non-zero accumulators: the new terms must be added to them in order.
        got = _random_grads(params, 3)
        want = got.copy()
        _backward_stream(params, trace, got, dlogits=dlogits)
        oracle.backward_stream(params, trace, want, dlogits=dlogits)
        _assert_grads_close(got, want)


@pytest.mark.parametrize("d", DIMS)
def test_memory_off_gradients_do_not_depend_on_chunking(d):
    params, context, target, _ = _example(d, 6)
    grads = []
    for l_chunk in CHUNK_SIZES:
        trace = forward(params, _chunks(context, l_chunk), target, _flags(False))
        _, dlogits = training._generation_loss_and_dlogits(trace.logits, np.asarray(target))
        grads.append(params.zeros_like())
        _backward_stream(params, trace, grads[-1], dlogits=dlogits)
    for other in grads[1:]:
        _assert_grads_close(other, grads[0])


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("memory_on", [True, False])
def test_generation_and_contrastive_gradients(d, memory_on, monkeypatch):
    """The public backward with both loss terms, once as it is and once with
    the oracle's passes patched in."""
    params, context, target, insights = _example(d, 4)
    chunks = _chunks(context, 4)
    spec = LossSpec(targets=target, lam=0.7, insights=insights, ref_tokens=target)
    got = backward(forward(params, chunks, target, _flags(memory_on)), params, spec)
    monkeypatch.setattr(model, "_run_stream", oracle.run_stream)
    monkeypatch.setattr(training, "_backward_stream", oracle.backward_stream)
    want = backward(forward(params, chunks, target, _flags(memory_on)), params, spec)
    _assert_grads_close(got, want)


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("memory_on", [True, False])
@pytest.mark.parametrize("l_chunk", CHUNK_SIZES)
def test_greedy_decode(d, memory_on, l_chunk):
    params, context, _, _ = _example(d, 5)
    params["b_o"][EOS] = -3.0  # decode for a while before stopping
    chunks = _chunks(context, l_chunk)
    seen: dict[str, list[np.ndarray]] = {"new": [], "oracle": []}

    def recording_argmax(key):
        def pick(logits):
            seen[key].append(logits.copy())
            return int(np.argmax(logits))
        return pick

    got = model._decode(params, chunks, 20, _flags(memory_on), recording_argmax("new"))
    want = oracle.decode(params, chunks, 20, _flags(memory_on), recording_argmax("oracle"))
    assert got == want
    assert greedy_decode(params, chunks, 20, _flags(memory_on)) == want
    assert len(seen["new"]) == len(seen["oracle"]) > 1
    for a, b in zip(seen["new"], seen["oracle"]):
        assert np.array_equal(a, b)
