"""Tests for config parsing, the command-line surface, and its exit codes."""

import contextlib
import io
import json
import os
import re
import stat
import struct
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import compsum
from compsum import cli, ioutil
from compsum.cli import _CONFIG_KEYS, GRADCHECK_TOLERANCE, RunConfig, load_config, run
from compsum.errors import ConfigError
from compsum.model import AblationFlags, init_params, load_checkpoint, save_checkpoint
from compsum.training import StepRecord


def write_config(directory, name="run.cfg", **keys):
    path = directory / name
    path.write_text("".join(f"{k}={v}\n" for k, v in keys.items()))
    return str(path)


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


class TestLoadConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        assert load_config(str(path)) == RunConfig()

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# a comment\n\n  \nd=16\n# trailing\n")
        assert load_config(str(path)).d == 16

    def test_duplicate_keys_last_wins(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("seed=1\nseed=2\nseed=3\n")
        assert load_config(str(path)).seed == 3

    def test_lambda_key_maps_to_weight(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("lambda=0.25\n")
        assert load_config(str(path)).lam == 0.25

    def test_typed_values_parsed(self, tmp_path):
        cfg = load_config(write_config(
            tmp_path, stage="comparative", lr="0.01", epochs="7",
            disable_memory="true", key_k="0", data="x.jsonl",
        ))
        assert cfg.stage == "comparative"
        assert cfg.learning_rate == 0.01
        assert cfg.epochs == 7
        assert cfg.disable_memory is True
        assert cfg.key_k == 0

    def test_whitespace_around_separator(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("  d = 12  \n")
        assert load_config(str(path)).d == 12

    def _expect_config_error(self, tmp_path, text, key):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError) as exc:
            load_config(str(path))
        assert exc.value.key == key

    def test_unknown_key(self, tmp_path):
        self._expect_config_error(tmp_path, "lambdaa=1\n", "lambdaa")

    def test_missing_separator(self, tmp_path):
        self._expect_config_error(tmp_path, "just words\n", "just words")

    def test_bad_int(self, tmp_path):
        self._expect_config_error(tmp_path, "epochs=three\n", "epochs")

    def test_bad_float(self, tmp_path):
        self._expect_config_error(tmp_path, "lr=fast\n", "lr")

    @pytest.mark.parametrize("line", ["lr=0\x0c0", "ep\x1bochs=1", "no\x85separator"])
    def test_control_characters_print_escaped(self, tmp_path, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n", encoding="utf-8")
        code, _, err = invoke(["synth", "--config", str(cfg)])
        assert code == 2
        assert err.endswith("\n") and err[:-1].isprintable(), err

    def test_bool_is_strict(self, tmp_path):
        self._expect_config_error(tmp_path, "disable_memory=True\n", "disable_memory")

    def test_range_checks(self, tmp_path):
        for line, key in (
            ("stage=finetune", "stage"),
            ("d=0", "d"),
            ("l_chunk=0", "l_chunk"),
            ("l_chunk=4294967296", "l_chunk"),
            ("lr=0", "lr"),
            ("lr=inf", "lr"),
            ("epochs=-1", "epochs"),
            ("lambda=-0.5", "lambda"),
            ("lambda=inf", "lambda"),
            ("seed=-1", "seed"),
            ("key_k=-1", "key_k"),
            ("key_k=4294967296", "key_k"),
            ("max_len=0", "max_len"),
            ("temperature=-1", "temperature"),
            ("temperature=inf", "temperature"),
            ("temperature=nan", "temperature"),
            ("tau=0", "tau"),
            ("tau=1.5", "tau"),
            ("min_freq=0", "min_freq"),
            ("synth_count=-1", "synth_count"),
            ("synth_seed=-1", "synth_seed"),
        ):
            self._expect_config_error(tmp_path, line + "\n", key)

    def test_boundary_values_accepted(self, tmp_path):
        cfg = load_config(write_config(
            tmp_path, tau="1", epochs="0", key_k="0", l_chunk="4294967295"
        ))
        assert cfg.tau == 1.0 and cfg.epochs == 0 and cfg.key_k == 0
        assert cfg.l_chunk == 2**32 - 1


class TestUsage:
    def test_no_command(self):
        assert invoke([])[0] == 1

    def test_unknown_command(self):
        assert invoke(["frobnicate"])[0] == 1

    def test_help_exits_cleanly(self):
        code, out, _ = invoke(["--help"])
        assert code == 0

    def test_missing_config_flag(self):
        assert invoke(["synth"])[0] == 1


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """synth -> build-vocab -> pretrain, shared by the subcommand tests."""
    root = tmp_path_factory.mktemp("cli")
    paths = {
        "data": str(root / "data.jsonl"),
        "vocab": str(root / "vocab.txt"),
        "ckpt": str(root / "pre.ckpt"),
        "log": str(root / "train.jsonl"),
    }
    cfg = write_config(
        root, "pretrain.cfg", stage="pretrain", data=paths["data"], vocab=paths["vocab"],
        checkpoint_out=paths["ckpt"], report=paths["log"], d="8", epochs="1",
        synth_count="5", synth_seed="11", max_len="24", lr="0.01",
    )
    for command in ("synth", "build-vocab", "train"):
        code, out, err = invoke([command, "--config", cfg])
        assert code == 0, (command, err)
    return root, paths


class TestSubcommands:
    def test_synth_writes_requested_count(self, workspace):
        _, paths = workspace
        lines = open(paths["data"], encoding="utf-8").read().splitlines()
        assert len(lines) == 5
        assert all(json.loads(line)["id"] for line in lines)

    def test_synth_rejects_zero_count(self, tmp_path):
        cfg = write_config(tmp_path, data=str(tmp_path / "d.jsonl"), synth_count="0")
        assert invoke(["synth", "--config", cfg])[0] == 2

    def test_vocab_file_header(self, workspace):
        _, paths = workspace
        lines = open(paths["vocab"], encoding="utf-8").read().splitlines()
        assert lines[0] == f"v1 {len(lines) - 1}"
        assert lines[1] == "<pad>"

    def test_pretrain_outputs(self, workspace):
        _, paths = workspace
        params, l_chunk, _, key_k = load_checkpoint(paths["ckpt"])
        assert params.d == 8 and l_chunk == 16 and key_k == 2
        vocab_size = len(open(paths["vocab"], encoding="utf-8").read().splitlines()) - 1
        assert params.V == vocab_size
        log = [json.loads(line) for line in open(paths["log"], encoding="utf-8")]
        assert len(log) == 5  # one step per example, one epoch
        for record in log:
            assert list(record) == [
                "step", "epoch", "l_gen", "l_comp", "lambda", "l_stage", "grad_norm"
            ]

    def test_train_stage_report_on_stdout(self, workspace):
        root, paths = workspace
        cfg = write_config(root, "again.cfg", stage="pretrain", data=paths["data"],
                           vocab=paths["vocab"], d="8", epochs="1", lr="0.01")
        code, out, _ = invoke(["train", "--config", cfg])
        summary = json.loads(out)
        assert code == 0
        assert summary["stage"] == "pretrain"
        assert summary["steps"] == 5
        assert summary["final_epoch_mean_l_stage"] > 0.0

    def test_comparative_stage_from_checkpoint(self, workspace):
        root, paths = workspace
        out_ckpt = str(root / "comp.ckpt")
        cfg = write_config(root, "comp.cfg", stage="comparative", data=paths["data"],
                           vocab=paths["vocab"], checkpoint_in=paths["ckpt"],
                           checkpoint_out=out_ckpt, d="8", epochs="1", lr="0.01")
        code, out, err = invoke(["train", "--config", cfg])
        assert code == 0, err
        assert json.loads(out)["stage"] == "comparative"
        assert load_checkpoint(out_ckpt)[0].d == 8

    def test_comparative_continues_on_the_checkpoint_settings(self, workspace):
        # an ablated pretraining checkpoint, continued under a config that
        # keeps the defaults: the run trains and saves the ablation it read
        root, paths = workspace
        keys = dict(data=paths["data"], vocab=paths["vocab"], d="8", epochs="1", lr="0.01")
        ablated = str(root / "ablated_pre.ckpt")
        cfg = write_config(root, "ablated_pre.cfg", stage="pretrain", checkpoint_out=ablated,
                           disable_memory="true", key_k="0", l_chunk="5", **keys)
        assert invoke(["train", "--config", cfg])[0] == 0
        outputs = []
        for name, stated in (("default", {}),
                             ("stated", dict(disable_memory="true", key_k="0", l_chunk="5"))):
            out, log = str(root / f"ablated_{name}.ckpt"), str(root / f"ablated_{name}.jsonl")
            cfg = write_config(root, f"ablated_{name}.cfg", stage="comparative",
                               checkpoint_in=ablated, checkpoint_out=out, report=log,
                               **stated, **keys)
            code, stdout, err = invoke(["train", "--config", cfg])
            assert code == 0, err
            outputs.append((stdout, open(out, "rb").read(), open(log, "rb").read()))
        _, l_chunk, flags, key_k = load_checkpoint(str(root / "ablated_default.ckpt"))
        assert (l_chunk, flags, key_k) == (5, AblationFlags(True), 0)
        assert outputs[0] == outputs[1]

    def test_checkpoint_d_overrides_the_config(self, workspace):
        root, paths = workspace
        out_ckpt = str(root / "comp_d16.ckpt")
        cfg = write_config(root, "comp_d16.cfg", stage="comparative", data=paths["data"],
                           vocab=paths["vocab"], checkpoint_in=paths["ckpt"],
                           checkpoint_out=out_ckpt, d="16", epochs="1", lr="0.01")
        code, _, err = invoke(["train", "--config", cfg])
        assert code == 0, err
        assert load_checkpoint(out_ckpt)[0].d == 8

    def test_generate_writes_summaries(self, workspace):
        root, paths = workspace
        report = str(root / "gen.jsonl")
        cfg = write_config(root, "gen.cfg", data=paths["data"], vocab=paths["vocab"],
                           checkpoint_in=paths["ckpt"], report=report, max_len="20")
        assert invoke(["generate", "--config", cfg])[0] == 0
        lines = [json.loads(line) for line in open(report, encoding="utf-8")]
        assert len(lines) == 5
        assert set(lines[0]) == {"id", "summary"}

    def test_generate_sampling_deterministic(self, workspace):
        root, paths = workspace
        report = str(root / "sample.jsonl")
        cfg = write_config(root, "sample.cfg", data=paths["data"], vocab=paths["vocab"],
                           checkpoint_in=paths["ckpt"], report=report,
                           temperature="0.8", seed="4", max_len="20")
        assert invoke(["generate", "--config", cfg])[0] == 0
        first = open(report, "rb").read()
        assert invoke(["generate", "--config", cfg])[0] == 0
        assert open(report, "rb").read() == first

    def test_generate_extreme_temperatures(self, workspace):
        root, paths = workspace
        keys = dict(data=paths["data"], vocab=paths["vocab"], checkpoint_in=paths["ckpt"],
                    max_len="20")
        greedy = str(root / "greedy.jsonl")
        tiny = str(root / "tiny_temperature.jsonl")
        assert invoke(["generate", "--config",
                       write_config(root, "greedy.cfg", report=greedy, **keys)])[0] == 0
        code, _, err = invoke(["generate", "--config", write_config(
            root, "tiny.cfg", report=tiny, temperature="1e-320", **keys)])
        assert code == 0, err
        assert open(tiny, "rb").read() == open(greedy, "rb").read()
        code, _, err = invoke(["generate", "--config", write_config(
            root, "inf.cfg", report=str(root / "inf.jsonl"), temperature="inf", **keys)])
        assert code == 2
        assert "temperature" in err

    def test_evaluate_prints_aggregate(self, workspace):
        root, paths = workspace
        cfg = write_config(root, "eval.cfg", data=paths["data"], vocab=paths["vocab"],
                           checkpoint_in=paths["ckpt"], max_len="20")
        code, out, _ = invoke(["evaluate", "--config", cfg])
        aggregate = json.loads(out)
        assert code == 0
        assert aggregate["example_count"] == 5
        assert 0.0 <= aggregate["rouge1_f1"] <= 1.0

    def test_missing_required_path(self, workspace):
        root, paths = workspace
        cfg = write_config(root, "nopath.cfg", vocab=paths["vocab"])
        code, _, err = invoke(["build-vocab", "--config", cfg])
        assert code == 2
        assert "error:" in err

    def test_nonexistent_data_file(self, workspace):
        root, paths = workspace
        cfg = write_config(root, "missing.cfg", data=str(root / "absent.jsonl"),
                           vocab=paths["vocab"])
        assert invoke(["build-vocab", "--config", cfg])[0] == 2

    def test_corrupt_checkpoint(self, workspace):
        root, paths = workspace
        bad = root / "bad.ckpt"
        bad.write_bytes(b"not a checkpoint")
        cfg = write_config(root, "badckpt.cfg", data=paths["data"], vocab=paths["vocab"],
                           checkpoint_in=str(bad))
        assert invoke(["evaluate", "--config", cfg])[0] == 2

    def _evaluate_with_checkpoint(self, workspace, name, data):
        root, paths = workspace
        path = root / name
        path.write_bytes(data)
        cfg = write_config(root, f"{name}.cfg", data=paths["data"], vocab=paths["vocab"],
                           checkpoint_in=str(path))
        code, _, err = invoke(["evaluate", "--config", cfg])
        return code, err, str(path)

    def test_checkpoint_errors_name_the_file_not_a_line(self, workspace):
        good = open(workspace[1]["ckpt"], "rb").read()
        code, err, path = self._evaluate_with_checkpoint(workspace, "cut.ckpt", good[:-20])
        assert code == 2
        assert err == f"error: checkpoint '{path}': truncated\n"
        assert "line 0" not in err

    def test_version_1_checkpoint_rejected(self, workspace):
        data = bytearray(open(workspace[1]["ckpt"], "rb").read())
        data[4:8] = struct.pack("<I", 1)
        code, err, path = self._evaluate_with_checkpoint(workspace, "v1.ckpt", bytes(data))
        assert code == 2
        assert err == f"error: checkpoint '{path}': unsupported checkpoint version 1\n"

    def test_version_2_checkpoint_rejected(self, workspace):
        # version 2: the same header without key_k, then the same records
        data = open(workspace[1]["ckpt"], "rb").read()
        d, V, l_chunk, bits, _ = struct.unpack_from("<5I", data, 8)
        v2 = struct.pack("<4s5I", b"CFG1", 2, d, V, l_chunk, bits) + data[28:]
        code, err, path = self._evaluate_with_checkpoint(workspace, "v2.ckpt", v2)
        assert code == 2
        assert err == f"error: checkpoint '{path}': unsupported checkpoint version 2\n"

    def test_version_3_checkpoint_rejected(self, workspace):
        # version 3: the same header, then one record per tensor in
        # TENSOR_NAMES order: name length, name, float64 values
        params, l_chunk, flags, key_k = load_checkpoint(workspace[1]["ckpt"])
        parts = [struct.pack("<4s6I", b"CFG1", 3, params.d, params.V, l_chunk,
                             int(flags.disable_memory), key_k)]
        for name, tensor in params.items():
            parts += (struct.pack("<I", len(name)), name.encode(), tensor.astype("<f8").tobytes())
        v3 = b"".join(parts)
        code, err, path = self._evaluate_with_checkpoint(workspace, "v3.ckpt", v3)
        assert code == 2
        assert err == f"error: checkpoint '{path}': unsupported checkpoint version 3\n"

    @pytest.mark.parametrize("command", ["evaluate", "generate"])
    def test_context_layout_comes_from_the_checkpoint(self, workspace, command):
        # the workspace checkpoint was trained at the default key_k and l_chunk
        root, paths = workspace
        assert load_checkpoint(paths["ckpt"])[1::2] == (16, 2)
        outputs = []
        for name, layout in (("trained", {}), ("other", {"key_k": "0", "l_chunk": "3"})):
            report = str(root / f"layout_{command}_{name}.jsonl")
            cfg = write_config(root, f"layout_{command}_{name}.cfg", data=paths["data"],
                               vocab=paths["vocab"], checkpoint_in=paths["ckpt"],
                               report=report, max_len="20", **layout)
            code, _, err = invoke([command, "--config", cfg])
            assert code == 0, err
            outputs.append(open(report, "rb").read())
        assert outputs[0] == outputs[1]

    def test_unknown_ablation_bits_rejected(self, workspace):
        data = bytearray(open(workspace[1]["ckpt"], "rb").read())
        data[20:24] = struct.pack("<I", 9)  # disable_memory plus an unknown bit 3
        code, err, path = self._evaluate_with_checkpoint(workspace, "bits.ckpt", bytes(data))
        assert code == 2
        assert err == f"error: checkpoint '{path}': unknown ablation bits in bitmask 9\n"

    def test_duplicate_vocabulary_token(self, workspace, tmp_path):
        root, paths = workspace
        lines = open(paths["vocab"], encoding="utf-8").read().splitlines()
        vocab = tmp_path / "dup.txt"
        vocab.write_text("\n".join([f"v1 {len(lines)}"] + lines[1:] + [lines[9]]) + "\n")
        cfg = write_config(root, "dupvocab.cfg", data=paths["data"], vocab=str(vocab),
                           checkpoint_in=paths["ckpt"])
        code, _, err = invoke(["evaluate", "--config", cfg])
        assert code == 2
        assert f"line {len(lines) + 1}: duplicate token {lines[9]!r} (first on line 10)" in err

    def test_vocab_checkpoint_size_mismatch(self, workspace, tmp_path):
        root, paths = workspace
        other_vocab = tmp_path / "small.txt"
        other_vocab.write_text("v1 7\n<pad>\n<bos>\n<eos>\n<unk>\n<doc>\n<sum>\n<key>\n")
        cfg = write_config(root, "mismatch.cfg", data=paths["data"],
                           vocab=str(other_vocab), checkpoint_in=paths["ckpt"])
        assert invoke(["evaluate", "--config", cfg])[0] == 2

    @pytest.mark.parametrize("command,temperature", [
        ("evaluate", "0"), ("generate", "0"), ("generate", "0.7"),
    ])
    def test_overflowing_logits_exit_3(self, workspace, command, temperature):
        # A finite checkpoint whose logit for token 10 overflows: the gate
        # biases saturate every hidden state to exactly 1, so that logit is
        # the sum of d = 8 values of 1e308.
        root, paths = workspace
        params, l_chunk, flags, key_k = load_checkpoint(paths["ckpt"])
        params["b_z"][:] = params["b_h"][:] = 1e3
        params["W_o"][10] = 1e308
        ckpt = str(root / "overflow.ckpt")
        save_checkpoint(ckpt, params, l_chunk, flags, key_k)
        cfg = write_config(root, f"overflow_{command}_{temperature}.cfg", data=paths["data"],
                           vocab=paths["vocab"], checkpoint_in=ckpt,
                           report=str(root / "overflow.jsonl"), temperature=temperature)
        code, _, err = invoke([command, "--config", cfg])
        first_id = json.loads(open(paths["data"], encoding="utf-8").readline())["id"]
        assert code == 3
        assert err == f"error: example {first_id!r}: logits not finite at decode position 0\n"

    def test_non_finite_parameters_write_no_checkpoint(self, workspace, monkeypatch):
        root, paths = workspace
        real = cli.train_pretrain

        def diverged(*args, **kwargs):
            params = real(*args, **kwargs)
            params["b_g"][0] = float("nan")
            return params

        monkeypatch.setattr(cli, "train_pretrain", diverged)
        out_ckpt = root / "diverged.ckpt"
        cfg = write_config(root, "diverged.cfg", stage="pretrain", data=paths["data"],
                           vocab=paths["vocab"], checkpoint_out=str(out_ckpt), d="8",
                           epochs="1", lr="0.01")
        code, out, err = invoke(["train", "--config", cfg])
        assert code == 3
        assert out == ""
        assert "tensor 'b_g'" in err and "not written" in err
        assert not out_ckpt.exists()

    def test_invalid_utf8_config(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"d=8\n\xff\xfe=1\n")
        code, _, err = invoke(["pipeline", "--config", str(cfg)])
        assert code == 2
        assert err == f"error: '{cfg}' line 2: invalid UTF-8\n"

    def test_invalid_utf8_dataset(self, workspace, tmp_path):
        root, paths = workspace
        lines = open(paths["data"], "rb").read().splitlines()
        data = tmp_path / "bad.jsonl"
        data.write_bytes(b"\n".join(lines[:2] + [lines[2].replace(b"a", b"\xc3", 1)]))
        cfg = write_config(root, "badutf8data.cfg", data=str(data), vocab=paths["vocab"])
        code, _, err = invoke(["build-vocab", "--config", cfg])
        assert code == 2
        assert err == f"error: '{data}' line 3: invalid UTF-8\n"

    def test_invalid_utf8_vocabulary(self, workspace, tmp_path):
        root, paths = workspace
        vocab = tmp_path / "bad_vocab.txt"
        vocab.write_bytes(open(paths["vocab"], "rb").read() + b"\xff\n")
        cfg = write_config(root, "badutf8vocab.cfg", data=paths["data"], vocab=str(vocab),
                           checkpoint_in=paths["ckpt"])
        code, _, err = invoke(["evaluate", "--config", cfg])
        n_lines = len(open(paths["vocab"], "rb").read().splitlines())
        assert code == 2
        assert err == f"error: '{vocab}' line {n_lines + 1}: invalid UTF-8\n"

    def test_deeply_nested_dataset_line(self, workspace, tmp_path):
        root, paths = workspace
        data = tmp_path / "deep.jsonl"
        data.write_text(open(paths["data"], encoding="utf-8").readline() + "[" * 200_000 + "\n")
        cfg = write_config(root, "deep.cfg", data=str(data), vocab=paths["vocab"])
        code, _, err = invoke(["build-vocab", "--config", cfg])
        assert code == 2
        assert err.startswith("error: line 2: invalid json: maximum recursion depth")

    def test_invalid_config_value(self, workspace):
        root, _ = workspace
        cfg = write_config(root, "badval.cfg", lr="0")
        code, _, err = invoke(["synth", "--config", cfg])
        assert code == 2
        assert "lr" in err


class TestGradcheckCommand:
    def test_passes_and_reports(self):
        code, out, _ = invoke(["gradcheck"])
        assert code == 0
        assert "pass" in out
        assert GRADCHECK_TOLERANCE == 1e-4

    def test_non_finite_gradient_fails(self, monkeypatch):
        probe = cli.gradcheck_probe(0)
        grads = probe.grads(probe.params)
        for g in grads.values():
            g[...] = np.nan
        monkeypatch.setattr(probe, "grads", lambda params: grads)
        monkeypatch.setattr(cli, "gradcheck_probe", lambda seed: probe)
        code, out, _ = invoke(["gradcheck"])
        assert code == 3
        assert out == "gradcheck max relative error nan (fail)\n"

    def test_negative_seed_is_a_usage_error(self):
        code, out, err = invoke(["gradcheck", "--seed", "-1"])
        assert code == 1
        assert out == ""
        assert "argument --seed: expected an integer >= 0, got '-1'" in err


class TestPipeline:
    def _config(self, root, **overrides):
        keys = dict(
            data=str(root / "p_data.jsonl"), vocab=str(root / "p_vocab.txt"),
            checkpoint_out=str(root / "p.ckpt"), report=str(root / "p_report.jsonl"),
            d="8", epochs="1", synth_count="4", synth_seed="5", seed="3",
            max_len="24", lr="0.01",
        )
        keys.update(overrides)
        return write_config(root, "pipeline.cfg", **keys)

    def test_end_to_end(self, tmp_path):
        cfg = self._config(tmp_path)
        code, out, err = invoke(["pipeline", "--config", cfg])
        assert code == 0, err
        summary = json.loads(out)
        assert summary["example_count"] == 4
        assert summary["total_loss"] == summary["l_pretrain"] + summary["l_comparative"]
        for name in ("p_data.jsonl", "p_vocab.txt", "p.ckpt", "p_report.jsonl"):
            assert (tmp_path / name).exists()

    def test_final_epoch_mean_sums_left_to_right(self):
        records = [
            StepRecord(i, 1, v, 0.0, 0.0, v, 0.0) for i, v in enumerate((1e16, 1.0, -1e16), 1)
        ]
        assert cli._final_epoch_mean(records, 1, "l_gen") == 0.0

    def test_stage_label_on_failure(self, tmp_path):
        cfg = self._config(tmp_path, data=str(tmp_path / "no_such_dir" / "d.jsonl"))
        code, _, err = invoke(["pipeline", "--config", cfg])
        assert code == 2
        assert "pipeline stage 'synth'" in err

    def test_non_finite_training_exits_3(self, tmp_path):
        # One Adam step at this rate moves every parameter by about 1e300,
        # so the second step's loss overflows.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = invoke(["pipeline", "--config", self._config(tmp_path, lr="1e300")])
        assert code == 3
        assert out == ""
        assert caught == []
        assert len(err.splitlines()) == 1
        assert err.startswith("error: pipeline stage 'pretrain': pretrain step 2")

    @pytest.mark.parametrize("value", ["-1", str(2**32), str(10**20)])
    @pytest.mark.parametrize("key", ["d", "l_chunk", "seed", "key_k", "min_freq", "synth_seed"])
    def test_extreme_integers_never_end_in_a_traceback(self, tmp_path, key, value):
        # epochs, max_len and synth_count are left out: a huge value of
        # theirs is a legitimately long run.  d=2**32 asks for over a
        # terabyte, which the size check refuses.
        keys = dict(synth_count="2", d="2", epochs="0", max_len="4")
        keys[key] = value
        code, _, err = invoke(["pipeline", "--config", self._config(tmp_path, **keys)])
        assert code in (0, 2), err
        assert len(err.splitlines()) <= 1

    @pytest.mark.parametrize("d", ["1000000000000000", "100000000000000000"])
    def test_unallocatable_model_size_exits_2(self, tmp_path, d):
        # Both sizes exceed any address space, so no allocation can succeed.
        code, out, err = invoke(["pipeline", "--config", self._config(tmp_path, d=d)])
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: pipeline stage 'pretrain': out of memory: ")

    def test_model_size_checked_before_allocation(self, tmp_path, monkeypatch):
        # 2**32 fits a 64-bit address space, so an allocator with overcommit
        # could grant it; no draw may start before the size check.
        def no_draws(*args, **kwargs):
            raise AssertionError("parameters drawn before the size check")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        code, out, err = invoke(["pipeline", "--config", self._config(tmp_path, d=str(2**32))])
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert re.fullmatch(
            r"error: pipeline stage 'pretrain': out of memory: model of d=4294967296, V=\d+ "
            r"needs \d+ bytes, more than the \d+ bytes of physical memory\n",
            err,
        )


class TestOutsideTextQuoted:
    """Ids from dataset files and paths from config files print as Python
    literals, so a form feed in them, a line break to ``str.splitlines``,
    leaves the error on one line."""

    def _one_line(self, code, err, expected):
        assert code in (2, 3)
        assert len(err.splitlines()) == 1, err
        assert expected in err

    def _pipeline_over(self, tmp_path, record):
        data = tmp_path / "data.jsonl"
        data.write_text(json.dumps(record) + "\n")
        cfg = write_config(tmp_path, data=str(data), synth_count="0", d="2", epochs="0",
                           max_len="4")
        return invoke(["pipeline", "--config", cfg])

    def test_paper_id(self, tmp_path):
        paper_id = "a\fb"
        paper = {"id": paper_id, "title": "t", "text": "", "insight": ""}
        record = {"id": "e", "papers": [paper], "ref_summary": "x ."}
        code, _, err = self._pipeline_over(tmp_path, record)
        self._one_line(code, err, f"line 1: paper {paper_id!r} has empty text")

    def test_example_id_without_insights(self, tmp_path):
        example_id = "e\fx"
        paper = {"id": "p", "title": "t", "text": "a b .", "insight": ""}
        record = {"id": example_id, "papers": [paper], "ref_summary": "a b ."}
        code, _, err = self._pipeline_over(tmp_path, record)
        self._one_line(code, err, f"example {example_id!r} has no non-empty insight")

    def test_invalid_utf8_path(self, tmp_path):
        cfg = tmp_path / "bad\fu.cfg"
        cfg.write_bytes(b"d=8\n\xff\n")
        code, _, err = invoke(["pipeline", "--config", str(cfg)])
        self._one_line(code, err, f"{str(cfg)!r} line 2: invalid UTF-8")

    def test_invalid_utf8_path_without_a_bad_line(self, tmp_path, monkeypatch):
        # The file is rewritten between the text read that fails and the
        # binary read that looks for the bad line, so no line is named.
        cfg = tmp_path / "re\fwritten.cfg"
        cfg.write_bytes(b"d=8\n\xff\n")

        def rewritten(path, mode="r", **kwargs):
            return io.BytesIO(b"d=8\n") if "b" in mode else open(path, mode, **kwargs)

        monkeypatch.setattr(ioutil, "open", rewritten, raising=False)
        code, _, err = invoke(["pipeline", "--config", str(cfg)])
        self._one_line(code, err, f"{str(cfg)!r}: invalid UTF-8")

    def test_checkpoint_path(self, workspace):
        root, paths = workspace
        ckpt = root / "ck\fpt"
        ckpt.write_bytes(b"XXXX" + open(paths["ckpt"], "rb").read()[4:])
        cfg = write_config(root, "ffckpt.cfg", data=paths["data"], vocab=paths["vocab"],
                           checkpoint_in=str(ckpt))
        code, _, err = invoke(["evaluate", "--config", cfg])
        self._one_line(code, err, f"checkpoint {str(ckpt)!r}: bad magic number")

    def test_non_finite_checkpoint_path(self, workspace, monkeypatch):
        root, paths = workspace
        real = cli.train_pretrain

        def diverged(*args, **kwargs):
            params = real(*args, **kwargs)
            params["b_g"][0] = float("nan")
            return params

        monkeypatch.setattr(cli, "train_pretrain", diverged)
        out_ckpt = root / "diverged\f.ckpt"
        cfg = write_config(root, "ffdiverged.cfg", stage="pretrain", data=paths["data"],
                           vocab=paths["vocab"], checkpoint_out=str(out_ckpt), d="2",
                           epochs="0")
        code, _, err = invoke(["train", "--config", cfg])
        self._one_line(code, err, f"checkpoint {str(out_ckpt)!r} not written")
        assert not out_ckpt.exists()


class TestOutputFileMode:
    @pytest.mark.parametrize("mask", [0o022, 0o077], ids=["umask022", "umask077"])
    def test_outputs_are_created_as_open_creates_them(self, tmp_path, mask):
        old = os.umask(mask)
        try:
            open(tmp_path / "plain", "w").close()
            ioutil.write_lines(str(tmp_path / "lines"), ["a"])
            save_checkpoint(str(tmp_path / "ckpt"), init_params(2, 9, 0), 4, AblationFlags())
        finally:
            os.umask(old)
        want = stat.S_IMODE(os.stat(tmp_path / "plain").st_mode)
        for name in ("lines", "ckpt"):
            assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == want
        assert sorted(os.listdir(tmp_path)) == ["ckpt", "lines", "plain"]


class TestExports:
    def test_every_exported_name_resolves(self):
        assert [name for name in compsum.__all__ if not hasattr(compsum, name)] == []
        assert compsum.__all__ == ["Error", "__version__"]

    def test_one_config_key_per_run_config_field(self):
        names = [name for name, _ in _CONFIG_KEYS.values()]
        assert sorted(names) == sorted(f.name for f in fields(RunConfig))
        assert len(_CONFIG_KEYS) == 20
        assert _CONFIG_KEYS["lambda"][0] == "lam"
        assert _CONFIG_KEYS["lr"][0] == "learning_rate"
        assert _CONFIG_KEYS["disable_memory"][0] == "disable_memory"
        assert "clip_norm" not in _CONFIG_KEYS
        assert {key for key, (name, _) in _CONFIG_KEYS.items() if key != name} == {"lr", "lambda"}

    def test_readme_config_table_matches_defaults(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("### Config keys", 1)[1].split("\n\n", 2)[1]
        rows = {}
        for line in table.splitlines()[2:]:
            key_cell, default_cell = (cell.strip() for cell in line.split("|")[1:3])
            for key in key_cell.split(" / "):
                rows[key.strip("`")] = default_cell.strip("`")
        defaults = RunConfig()
        want = {}
        for key, (name, _) in _CONFIG_KEYS.items():
            value = getattr(defaults, name)
            want[key] = str(value).lower() if isinstance(value, bool) else str(value)
        assert rows == want
