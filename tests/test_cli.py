"""Tests for config parsing, the command-line surface, and its exit codes."""

import contextlib
import io
import json

import pytest

from compsum.cli import GRADCHECK_TOLERANCE, RunConfig, load_config, run
from compsum.errors import ConfigError
from compsum.model import load_checkpoint


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
            disable_memory="true", disable_comparative="false", data="x.jsonl",
        ))
        assert cfg.stage == "comparative"
        assert cfg.lr == 0.01
        assert cfg.epochs == 7
        assert cfg.disable_memory is True
        assert cfg.disable_comparative is False
        assert cfg.flags().disable_memory is True

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

    def test_bool_is_strict(self, tmp_path):
        self._expect_config_error(tmp_path, "disable_memory=True\n", "disable_memory")

    def test_range_checks(self, tmp_path):
        for line, key in (
            ("stage=finetune", "stage"),
            ("d=0", "d"),
            ("l_chunk=0", "l_chunk"),
            ("lr=0", "lr"),
            ("epochs=-1", "epochs"),
            ("lambda=-0.5", "lambda"),
            ("key_k=-1", "key_k"),
            ("max_len=0", "max_len"),
            ("temperature=-1", "temperature"),
            ("temperature=inf", "temperature"),
            ("temperature=nan", "temperature"),
            ("tau=0", "tau"),
            ("tau=1.5", "tau"),
            ("min_freq=0", "min_freq"),
            ("synth_count=-1", "synth_count"),
        ):
            self._expect_config_error(tmp_path, line + "\n", key)

    def test_boundary_values_accepted(self, tmp_path):
        cfg = load_config(write_config(tmp_path, tau="1", epochs="0", key_k="0"))
        assert cfg.tau == 1.0 and cfg.epochs == 0 and cfg.key_k == 0


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
        params, l_chunk, _ = load_checkpoint(paths["ckpt"])
        assert params.d == 8 and l_chunk == 16
        vocab_size = len(open(paths["vocab"], encoding="utf-8").read().splitlines()) - 1
        assert params.V == vocab_size
        log = [json.loads(line) for line in open(paths["log"], encoding="utf-8")]
        assert len(log) == 5  # one step per example, one epoch
        assert set(log[0]) == {"step", "epoch", "l_gen", "l_comp", "lambda", "l_stage"}

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

    def test_vocab_checkpoint_size_mismatch(self, workspace, tmp_path):
        root, paths = workspace
        other_vocab = tmp_path / "small.txt"
        other_vocab.write_text("v1 7\n<pad>\n<bos>\n<eos>\n<unk>\n<doc>\n<sum>\n<key>\n")
        cfg = write_config(root, "mismatch.cfg", data=paths["data"],
                           vocab=str(other_vocab), checkpoint_in=paths["ckpt"])
        assert invoke(["evaluate", "--config", cfg])[0] == 2

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

    def test_stage_label_on_failure(self, tmp_path):
        cfg = self._config(tmp_path, data=str(tmp_path / "no_such_dir" / "d.jsonl"))
        code, _, err = invoke(["pipeline", "--config", cfg])
        assert code == 2
        assert "pipeline stage 'synth'" in err

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    def test_non_finite_training_exits_3(self, tmp_path):
        # One Adam step at this rate moves every parameter by about 1e300,
        # so the second step's loss overflows.
        code, out, err = invoke(["pipeline", "--config", self._config(tmp_path, lr="1e300")])
        assert code == 3
        assert out == ""
        assert "pipeline stage 'pretrain': pretrain step 2" in err
