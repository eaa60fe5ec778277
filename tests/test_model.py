"""Tests for the recurrent cell, the cross-chunk attention memory, forward
passes, decoding, and checkpoint serialization."""

import math
import os
import re
import struct
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from compsum.corpus import BOS, EOS, PAD, Chunk, chunk
from compsum.errors import CheckpointError, DataError, InvariantError, SchemaError
from compsum.model import (
    AblationFlags,
    TENSOR_NAMES,
    Tensors,
    _GatedCell,
    _LAYOUT,
    decode_each,
    encode_sequence,
    forward,
    greedy_decode,
    init_params,
    load_checkpoint,
    memory_update,
    save_checkpoint,
    sigmoid,
    softmax,
    tensor_shapes,
)
from compsum.training import TrainConfig


def cell_step(params, h_prev, x):
    """One step of the model's gated recurrent cell from h_prev on input x."""
    cell = _GatedCell(params)
    h = np.empty(params.d)
    cell.step(h_prev, cell.project(x[None])[0], h, np.empty(2 * params.d), np.empty(params.d))
    return h


def zero_params(d, V):
    return Tensors(d, V)


def cell_params_d2():
    """Fixed d=2 parameters behind the frozen cell oracle values."""
    p = zero_params(2, 7)
    p["W_z"] = np.array([[0.1, 0.2], [0.3, 0.4]])
    p["U_z"] = np.array([[0.5, -0.1], [0.2, 0.1]])
    p["b_z"] = np.array([0.01, -0.02])
    p["W_r"] = np.array([[-0.2, 0.1], [0.4, 0.3]])
    p["U_r"] = np.array([[0.1, 0.2], [-0.3, 0.2]])
    p["b_r"] = np.array([0.03, 0.0])
    p["W_h"] = np.array([[0.2, -0.3], [0.1, 0.5]])
    p["U_h"] = np.array([[0.3, 0.1], [-0.2, 0.4]])
    p["b_h"] = np.array([0.0, 0.05])
    return p


class TestActivations:
    def test_sigmoid_midpoint_and_saturation(self):
        assert sigmoid(np.array([0.0]))[0] == 0.5
        out = sigmoid(np.array([-1000.0, 1000.0]))
        assert_allclose(out, [0.0, 1.0], atol=1e-12)
        assert np.all(np.isfinite(out))

    def test_sigmoid_matches_definition(self):
        x = np.linspace(-20, 20, 41)
        assert_allclose(sigmoid(x), 1.0 / (1.0 + np.exp(-x)), rtol=1e-15)

    def test_sigmoid_in_place_and_without_warnings(self):
        x = np.array([-746.0, -1e308, -np.inf, np.nan, 1e308, -3.5, 0.0, 2.25])
        with warnings.catch_warnings(), np.errstate(over="warn", invalid="warn", divide="warn"):
            warnings.simplefilter("error", RuntimeWarning)
            want = sigmoid(x)
            got = sigmoid(x, out=x)
        assert got is x
        assert np.array_equal(got, want, equal_nan=True)
        assert np.all((0.0 < got[:3]) & (got[:3] < 1e-300))
        assert np.isnan(got[3]) and got[4] == 1.0

    def test_softmax_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.normal(size=(int(rng.integers(1, 9)),)) * 10
            p = softmax(x)
            assert_allclose(p.sum(), 1.0, rtol=1e-12)
            assert np.all(p >= 0)

    def test_softmax_shift_invariant_and_stable(self):
        x = np.array([1000.0, 1000.1, 999.5])
        p = softmax(x)
        assert np.all(np.isfinite(p))
        assert_allclose(p, softmax(x - 1000.0), rtol=1e-12)


class TestRecurrentCell:
    def test_frozen_case(self):
        p = cell_params_d2()
        h = cell_step(p, np.array([0.2, -0.1]), np.array([1.0, -0.5]))
        assert_allclose(h, [0.2822074437938087, -0.12036398831520378], rtol=1e-14)

    def test_zero_params_halve_hidden(self):
        p = zero_params(3, 7)
        h_prev = np.array([0.4, -0.8, 0.2])
        h = cell_step(p, h_prev, np.ones(3))
        assert_allclose(h, 0.5 * h_prev, rtol=0, atol=0)

    def test_hidden_stays_bounded(self):
        rng = np.random.default_rng(3)
        p = init_params(4, 9, 1, scale=1.5)
        h = np.zeros(4)
        for _ in range(50):
            h = cell_step(p, h, rng.normal(size=4))
            # convex blend of h_prev and tanh output keeps |h| < 1 eventually
            assert np.all(np.abs(h) <= 1.0 + 1e-12)


class TestMemoryUpdate:
    def _params(self):
        p = zero_params(2, 7)
        p["W_q"] = np.array([[0.2, -0.1], [0.1, 0.3]])
        p["W_k"] = np.array([[0.1, 0.2], [-0.2, 0.1]])
        p["W_v"] = np.array([[0.3, 0.0], [0.1, -0.2]])
        p["W_g"] = np.array([[0.1, -0.1, 0.2, 0.0], [0.0, 0.2, -0.1, 0.1]])
        p["b_g"] = np.array([0.05, -0.05])
        return p

    def test_frozen_case(self):
        p = self._params()
        mem_prev = np.array([0.3, -0.2])
        hiddens = np.array([[0.1, 0.4], [-0.2, 0.5], [0.3, 0.1]])
        mem = memory_update(p, mem_prev, hiddens)
        assert_allclose(mem, [0.15274525308031184, -0.13341643975723805], rtol=1e-14)

    def test_zero_memory_attends_uniformly(self):
        # q = W_q @ 0 = 0, so attention over the first region is a mean pool
        rng = np.random.default_rng(5)
        p = init_params(6, 9, 2)
        hiddens = rng.normal(size=(5, 6))
        mem = memory_update(p, np.zeros(6), hiddens)
        attended = hiddens.mean(axis=0) @ p["W_v"].T
        gate = sigmoid(p["W_g"] @ np.concatenate([np.zeros(6), attended]) + p["b_g"])
        assert_allclose(mem, gate * attended, rtol=1e-12)

    def test_memory_is_convex_blend(self):
        rng = np.random.default_rng(6)
        p = init_params(4, 9, 3)
        for _ in range(10):
            mem_prev = rng.normal(size=4)
            hiddens = rng.normal(size=(int(rng.integers(1, 7)), 4))
            mem = memory_update(p, mem_prev, hiddens)
            vs = hiddens @ p["W_v"].T
            lo = np.minimum(mem_prev, vs.min(axis=0)) - 1e-12
            hi = np.maximum(mem_prev, vs.max(axis=0)) + 1e-12
            assert np.all(mem >= lo) and np.all(mem <= hi)

    def test_empty_hiddens_rejected(self):
        p = self._params()
        with pytest.raises(InvariantError, match="memory update needs at least one hidden state"):
            memory_update(p, np.zeros(2), np.zeros((0, 2)))
        with pytest.raises(InvariantError, match="memory update needs at least one hidden state"):
            memory_update(p, np.zeros(2), np.zeros(2))


class TestInitParams:
    def test_shapes_and_bounds(self):
        p = init_params(5, 13, 0, scale=0.08)
        shapes = tensor_shapes(5, 13)
        assert set(p) == set(shapes)
        for name, want in shapes.items():
            assert p[name].shape == want
            assert np.all(np.abs(p[name]) <= 0.08)

    def test_seed_determinism(self):
        a = init_params(4, 11, 7)
        b = init_params(4, 11, 7)
        c = init_params(4, 11, 8)
        assert all(np.array_equal(a[k], b[k]) for k in a)
        assert any(not np.array_equal(a[k], c[k]) for k in a)

    def test_copy_is_deep(self):
        a = init_params(3, 9, 0)
        b = a.copy()
        b["E"][0, 0] += 1.0
        assert a["E"][0, 0] != b["E"][0, 0]

    def test_bad_sizes(self):
        with pytest.raises(InvariantError, match="bad model size d=0, V=10"):
            init_params(0, 10, 0)
        for V in (2, 6):
            with pytest.raises(InvariantError, match=f"bad model size d=4, V={V}"):
                init_params(4, V, 0)

    def test_without_sysconf_the_size_check_is_skipped(self, monkeypatch):
        want = init_params(4, 11, 7)
        monkeypatch.delattr(os, "sysconf", raising=False)
        got = init_params(4, 11, 7)
        assert all(np.array_equal(want[k], got[k]) for k in want)
        # past any address space the allocator or numpy's size check refuses
        for d in (10**15, 10**18):
            with pytest.raises(MemoryError):
                init_params(d, 11, 7)


class TestStorage:
    """Every tensor is a view into one flat vector per parameter set."""

    STACKS = {"W_zrh": ("W_z", "W_r", "W_h"), "U_zr": ("U_z", "U_r"),
              "b_zrh": ("b_z", "b_r", "b_h"), "W_kv": ("W_k", "W_v")}

    def test_named_and_stacked_views_share_the_flat_vector(self):
        t = init_params(5, 13, 0)
        assert t.flat.shape == (sum(math.prod(s) for s in tensor_shapes(5, 13).values()),)
        for name in TENSOR_NAMES:
            assert np.shares_memory(t[name], t.flat), name
        for stack, names in self.STACKS.items():
            view = getattr(t, stack)
            assert np.shares_memory(view, t.flat), stack
            assert np.array_equal(view, np.concatenate([t[name] for name in names])), stack
        t.W_kv[5, 0] = 7.0  # row 0 of W_v
        assert t["W_v"][0, 0] == 7.0

    def test_order_is_tensor_names(self):
        params = init_params(3, 9, 0)
        assert list(params) == list(TENSOR_NAMES)
        assert list(params.zeros_like()) == list(params.copy()) == list(TENSOR_NAMES)

    def test_assignment_copies_into_the_view(self):
        t = init_params(3, 9, 0)
        view = t["W_q"]
        value = np.arange(9.0).reshape(3, 3)
        t["W_q"] = value
        value[0, 0] = 99.0
        assert t["W_q"] is view
        assert np.array_equal(view, np.arange(9.0).reshape(3, 3))
        assert np.shares_memory(view, t.flat)

    def test_refuses_wrong_shape_unknown_name_and_deletion(self):
        t = init_params(3, 9, 0)
        before = t.flat.copy()
        want = "tensor 'E': shape (9, 3), got shape (3, 9)"
        with pytest.raises(InvariantError, match=re.escape(want)):
            t["E"] = np.zeros((3, 9))
        want = "tensor 'W_x': no such tensor, got shape (3, 3)"
        with pytest.raises(InvariantError, match=re.escape(want)):
            t["W_x"] = np.zeros((3, 3))
        with pytest.raises(InvariantError, match="tensor 'b_o' cannot be deleted"):
            del t["b_o"]
        assert list(t) == list(TENSOR_NAMES)
        assert np.array_equal(t.flat, before)

    def test_copy_and_zeros_like_are_independent(self):
        params = init_params(3, 9, 0)
        before = params.flat.copy()
        copy, zeros = params.copy(), params.zeros_like()
        assert isinstance(copy, Tensors) and isinstance(zeros, Tensors)
        assert (copy.d, copy.V) == (zeros.d, zeros.V) == (params.d, params.V)
        assert np.array_equal(copy.flat, before) and not np.any(zeros.flat)
        copy["E"][0, 0] += 1.0
        zeros["E"][0, 0] = 1.0
        copy.U_zr[0, 0] += 1.0
        zeros.b_zrh[0] = 1.0
        assert np.array_equal(params.flat, before)
        assert not np.shares_memory(copy.flat, zeros.flat)

    def test_augmented_assignment_keeps_the_view(self):
        grads = init_params(3, 9, 0).zeros_like()
        view = grads["U_h"]
        grads["U_h"] += 2.0
        assert grads["U_h"] is view
        assert np.all(view == 2.0)
        assert np.array_equal(grads.flat[grads.flat != 0], np.full(9, 2.0))


class TestForward:
    def _setup(self, seed=0, d=6, V=15):
        rng = np.random.default_rng(seed)
        params = init_params(d, V, seed)
        context = [BOS] + [int(t) for t in rng.integers(7, V, size=17)]
        target = [int(t) for t in rng.integers(7, V, size=5)] + [EOS]
        return params, context, target

    def test_logits_shape(self):
        params, context, target = self._setup()
        trace = forward(params, chunk(context, 4), target)
        assert trace.logits.shape == (len(target), params.V)

    def test_memory_disabled_is_chunk_size_invariant(self):
        params, context, target = self._setup(1)
        flags = AblationFlags(disable_memory=True)
        base = forward(params, chunk(context, 1), target, flags)
        for l_chunk in (3, 5, len(context)):
            other = forward(params, chunk(context, l_chunk), target, flags)
            assert np.array_equal(base.logits, other.logits)
            assert np.array_equal(base.hs, other.hs)

    def test_memory_changes_output(self):
        params, context, target = self._setup(2)
        on = forward(params, chunk(context, 4), target)
        off = forward(params, chunk(context, 4), target, AblationFlags(disable_memory=True))
        assert not np.allclose(on.logits, off.logits)

    def test_update_count_matches_region_layout(self):
        params, context, target = self._setup(3)
        chunks = chunk(context, 4)
        multi = forward(params, chunks, target)
        # every context chunk folds in once; the target region never does
        assert len(multi.region_spans) == len(chunks) + 1
        memory = multi.memory
        assert memory.mems.shape == (len(chunks) + 1, params.d)
        for rows in (memory.qs, memory.attended, memory.gates):
            assert rows.shape == (len(chunks), params.d)
        n = multi.region_spans[-1][0]
        assert memory.ks.shape == memory.vs.shape == (n, params.d)
        assert memory.alphas.shape == (n,)
        single = forward(params, chunks, target[:1])
        assert single.memory.qs.shape == (len(chunks) - 1, params.d)
        assert single.logits.shape[0] == 1

    def test_first_region_memory_is_zero(self):
        params, context, target = self._setup(4)
        trace = forward(params, chunk(context, 4), target)
        assert np.array_equal(trace.memory.mems[0], np.zeros(params.d))
        for start, end in trace.region_spans[:-1]:
            assert_allclose(trace.memory.alphas[start:end].sum(), 1.0, rtol=1e-12)

    def test_memory_disabled_trace_has_no_updates(self):
        params, context, target = self._setup(5)
        trace = forward(params, chunk(context, 4), target, AblationFlags(disable_memory=True))
        assert trace.memory is None

    def test_validation(self):
        params, context, target = self._setup(6)
        with pytest.raises(InvariantError, match="context must have at least one chunk"):
            forward(params, [], target)
        with pytest.raises(InvariantError, match="target must be non-empty"):
            forward(params, chunk(context, 4), [])
        with pytest.raises(InvariantError, match="context chunks must be non-empty"):
            forward(params, [Chunk([])], target)
        with pytest.raises(
            InvariantError, match=re.escape(f"token id {params.V} out of range (V={params.V})")
        ):
            forward(params, chunk([1, params.V], 4), target)


class TestEncodeSequence:
    def test_single_token_equals_one_cell_step(self):
        params = init_params(5, 12, 4)
        tok = 8
        vec = encode_sequence(params, [tok])
        step = cell_step(params, np.zeros(5), params["E"][tok])
        assert_allclose(vec, step, rtol=0, atol=0)

    def test_order_sensitivity(self):
        params = init_params(5, 12, 5)
        assert not np.allclose(
            encode_sequence(params, [7, 8, 9]), encode_sequence(params, [9, 8, 7])
        )

    def test_empty_rejected(self):
        with pytest.raises(InvariantError, match="cannot encode an empty sequence"):
            encode_sequence(init_params(4, 9, 0), [])


class TestDecode:
    def _rigged(self, best_ids, worst_ids=()):
        """All-zero model whose logits are exactly b_o at every step."""
        p = zero_params(3, 12)
        for i in best_ids:
            p["b_o"][i] = 5.0
        for i in worst_ids:
            p["b_o"][i] = -5.0
        return p

    def test_immediate_eos_gives_empty_summary(self):
        p = self._rigged([EOS])
        assert greedy_decode(p, chunk([BOS, 7, 8], 2), 10) == []

    def test_eos_starved_run_hits_max_len(self):
        p = self._rigged([9], worst_ids=[EOS])
        assert greedy_decode(p, chunk([BOS, 7, 8], 2), 6) == [9] * 6

    def test_tie_resolves_to_lowest_id(self):
        p = self._rigged([7, 8], worst_ids=[EOS])
        assert greedy_decode(p, chunk([BOS, 10], 2), 3) == [7, 7, 7]

    def test_never_emits_pad_or_bos(self):
        params = init_params(6, 14, 9)
        out = greedy_decode(params, chunk([BOS, 7, 8, 9], 2), 20)
        assert PAD not in out and BOS not in out

    def test_ablation_flag_changes_decode_state(self):
        params = init_params(8, 14, 10)
        context = chunk([BOS] + list(range(7, 14)) * 3, 4)
        on = greedy_decode(params, context, 12)
        off = greedy_decode(params, context, 12, AblationFlags(disable_memory=True))
        # not asserted unequal (could coincide) -- both must at least decode
        assert isinstance(on, list) and isinstance(off, list)

    def _decode_one(self, params, context, max_len, temperature, seed=0):
        """The tokens ``decode_each`` yields for one example named 'x'."""
        [out] = decode_each(params, [("x", context)], max_len, AblationFlags(), temperature, seed)
        return out

    def test_sampling_is_seeded(self):
        params = init_params(6, 14, 11)
        context = chunk([BOS, 7, 8, 9], 2)
        a, b, c = (self._decode_one(params, context, 15, 1.0, seed) for seed in (3, 3, 4))
        assert a == b
        assert a != c or len(a) == 0

    def test_sampling_at_low_temperature_matches_greedy(self):
        p = self._rigged([9], worst_ids=[EOS])
        assert self._decode_one(p, chunk([BOS, 7], 2), 5, 1e-3) == [9] * 5
        # every quotient but the greedy token's overflows to -inf
        assert self._decode_one(p, chunk([BOS, 7], 2), 5, 1e-320) == [9] * 5

    def test_max_len_validation(self):
        p = self._rigged([EOS])
        with pytest.raises(InvariantError, match="max_len must be >= 1"):
            greedy_decode(p, chunk([BOS], 1), 0)

    @pytest.mark.parametrize("temperature", [0.0, 0.7])
    @pytest.mark.parametrize("logit", [np.inf, np.nan, -np.inf])
    def test_non_finite_logits_raise(self, temperature, logit):
        # -inf is put in every row, so no logit is finite
        p = self._rigged([9])
        p["b_o"][slice(None) if logit == -np.inf else 10] = logit
        message = "^example 'x': logits not finite at decode position 0$"
        with pytest.raises(InvariantError, match=message):
            self._decode_one(p, chunk([BOS, 7], 2), 5, temperature)


class TestCheckpoint:
    def _save(self, tmp_path, flags=AblationFlags(), l_chunk=5, **key_k):
        params = init_params(4, 11, 6)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, params, l_chunk, flags, **key_k)
        return path, params

    def test_round_trip_bitwise(self, tmp_path):
        flags = AblationFlags(disable_memory=True)
        path, params = self._save(tmp_path, flags, l_chunk=9, key_k=7)
        loaded, l_chunk, got_flags, key_k = load_checkpoint(path)
        assert (loaded.d, loaded.V, l_chunk, key_k) == (4, 11, 9, 7)
        assert got_flags == flags
        for name, tensor in params.items():
            assert np.array_equal(loaded[name], tensor)

    def test_flag_bits_round_trip(self, tmp_path):
        for flags in (AblationFlags(), AblationFlags(disable_memory=True)):
            path, _ = self._save(tmp_path, flags)
            assert load_checkpoint(path)[2] == flags

    @pytest.mark.parametrize("key_k", [0, 2**32 - 1])
    def test_key_k_round_trip(self, tmp_path, key_k):
        path, _ = self._save(tmp_path, key_k=key_k)
        assert load_checkpoint(path)[3] == key_k

    def test_key_k_defaults_to_the_training_default(self, tmp_path):
        # the benchmark saves with four arguments
        path, _ = self._save(tmp_path)
        assert load_checkpoint(path)[3] == TrainConfig.key_k

    def test_idempotent_bytes(self, tmp_path):
        path, params = self._save(tmp_path)
        first = open(path, "rb").read()
        save_checkpoint(path, params, 5, AblationFlags())
        assert open(path, "rb").read() == first

    def _corrupt(self, tmp_path, mutate, match=None):
        path, _ = self._save(tmp_path)
        data = bytearray(open(path, "rb").read())
        data = mutate(data)
        open(path, "wb").write(bytes(data))
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        self._corrupt(tmp_path, lambda d: b"XXXX" + d[4:])

    def test_bad_version(self, tmp_path):
        for version in (1, 2, 3, 99):
            def mutate(d):
                d[4:8] = struct.pack("<I", version)
                return d
            self._corrupt(tmp_path, mutate, f"unsupported checkpoint version {version}$")

    @pytest.mark.parametrize("bits", [2, 3, 8, 9, 2**32 - 1])
    def test_unknown_flag_bits_rejected(self, tmp_path, bits):
        # bit 0, disable_memory, is the only ablation bit
        def mutate(d):
            d[20:24] = struct.pack("<I", bits)
            return d
        self._corrupt(tmp_path, mutate, f"unknown ablation bits in bitmask {bits}$")

    def test_bad_header_sizes(self, tmp_path):
        def mutate(d):
            d[8:12] = struct.pack("<I", 0)  # d = 0
            return d
        self._corrupt(tmp_path, mutate)

    def test_truncated(self, tmp_path):
        self._corrupt(tmp_path, lambda d: d[:-20])

    def test_truncated_is_a_data_error_without_a_line(self, tmp_path):
        # a binary file has no line number, so the error is no SchemaError
        path, _ = self._save(tmp_path)
        os.truncate(path, 40)
        with pytest.raises(DataError) as exc:
            load_checkpoint(path)
        assert not isinstance(exc.value, SchemaError)
        assert str(exc.value) == f"checkpoint {path!r}: truncated"

    def test_trailing_bytes(self, tmp_path):
        self._corrupt(tmp_path, lambda d: d + b"\x00\x01")

    def test_every_truncation_and_a_trailing_byte(self, tmp_path):
        path = tmp_path / "small.ckpt"
        save_checkpoint(str(path), init_params(2, 9, 0), 4, AblationFlags())
        valid = path.read_bytes()
        for cut in range(len(valid)):
            path.write_bytes(valid[:cut])
            with pytest.raises(CheckpointError, match="truncated$"):
                load_checkpoint(str(path))
        path.write_bytes(valid + b"\x00")
        with pytest.raises(CheckpointError, match="trailing bytes$"):
            load_checkpoint(str(path))

    @staticmethod
    def _offset(name, d, V):
        """Where tensor ``name`` starts in a (d, V) checkpoint: after the
        header and the tensors before it in ``_LAYOUT``."""
        shapes = tensor_shapes(d, V)
        return 28 + 8 * sum(math.prod(shapes[n]) for n in _LAYOUT[: _LAYOUT.index(name)])

    def test_layout_is_the_header_then_the_flat_vector(self, tmp_path):
        path, params = self._save(tmp_path)
        data = open(path, "rb").read()
        assert struct.unpack_from("<4sI", data) == (b"CFG1", 4)
        assert data[28:] == params.flat.astype("<f8").tobytes()

    @pytest.mark.parametrize("name", TENSOR_NAMES)
    def test_non_finite_tensor_rejected(self, tmp_path, name):
        def mutate(d):
            at = self._offset(name, 4, 11)
            d[at : at + 8] = struct.pack("<d", np.inf)
            return d
        self._corrupt(tmp_path, mutate, f"tensor '{name}' contains non-finite values$")

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_tensor_not_saved(self, tmp_path, value):
        path, params = self._save(tmp_path)
        before = open(path, "rb").read()
        params["W_o"][0, 0] = value
        with pytest.raises(InvariantError, match="tensor 'W_o' holds non-finite values"):
            save_checkpoint(path, params, 5, AblationFlags())
        assert open(path, "rb").read() == before
        fresh = tmp_path / "fresh.ckpt"
        with pytest.raises(InvariantError, match="tensor 'W_o' holds non-finite values"):
            save_checkpoint(str(fresh), params, 5, AblationFlags())
        assert not fresh.exists()

    @pytest.mark.parametrize("name", TENSOR_NAMES)
    def test_each_non_finite_tensor_named_on_save(self, tmp_path, name):
        params = init_params(4, 11, 6)
        params[name].reshape(-1)[-1] = np.nan
        path = tmp_path / "model.ckpt"
        with pytest.raises(InvariantError, match=f"tensor '{name}' holds non-finite values"):
            save_checkpoint(str(path), params, 5, AblationFlags())
        assert not path.exists()
