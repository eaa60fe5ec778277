"""The comparison of ``tools/same_bytes.py`` on two temporary output trees;
no command runs."""

import importlib.util
import os

_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools", "same_bytes.py")
_SPEC = importlib.util.spec_from_file_location("same_bytes", _PATH)
same_bytes = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_bytes)

OUTPUTS = {
    "pipeline-s0/report.jsonl": b'{"rouge1_f1": 0.5}\n{"id": "a"}\n',
    "pipeline-s0/model.ckpt": bytes(range(40)),
    "pipeline-s0.stdout": b'{"total_loss": 1.25}\n',
    "pipeline-s0.stderr": b"",
    "pipeline-s0.exit": b"0\n",
}


def _tree(root, outputs=OUTPUTS):
    for name, data in outputs.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return str(root)


def _compare(tmp_path, capsys, change, expected=(), parent=OUTPUTS):
    code = same_bytes.compare(_tree(tmp_path / "parent", parent),
                              _tree(tmp_path / "change", change), list(expected))
    return code, capsys.readouterr().out.splitlines()


def test_identical_trees_are_same(tmp_path, capsys):
    code, lines = _compare(tmp_path, capsys, OUTPUTS)
    assert code == 0
    assert lines[:-1] == [f"same     {name}" for name in sorted(OUTPUTS)]
    assert lines[-1] == "5 outputs: 5 same, 0 differ, 0 not expected"


def test_one_planted_byte_differs(tmp_path, capsys):
    change = dict(OUTPUTS, **{"pipeline-s0/report.jsonl": b'{"rouge1_f1": 0.5}\n{"id": "b"}\n'})
    code, lines = _compare(tmp_path, capsys, change)
    assert code == 1
    assert ("differs  pipeline-s0/report.jsonl: line 2, column 9: parent '{\"id\": \"a\"}', "
            "change '{\"id\": \"b\"}'") in lines
    assert lines[-1] == "5 outputs: 4 same, 1 differ, 1 not expected"


def test_binary_files_name_the_byte(tmp_path, capsys):
    ckpt = bytearray(OUTPUTS["pipeline-s0/model.ckpt"])
    ckpt[17] ^= 0x80
    code, lines = _compare(tmp_path, capsys, dict(OUTPUTS, **{"pipeline-s0/model.ckpt": ckpt}))
    assert code == 1
    assert "differs  pipeline-s0/model.ckpt: byte 17 of 40 (parent) and 40 (change)" in lines


def test_an_expected_change_passes(tmp_path, capsys):
    change = dict(OUTPUTS, **{"pipeline-s0.stdout": b'{"total_loss": 1.5}\n'})
    code, lines = _compare(tmp_path, capsys, change, ["*.stdout"])
    assert code == 0
    assert lines[-1] == "5 outputs: 4 same, 1 differ, 0 not expected"
    assert "differs  pipeline-s0.stdout (expected): line 1, column 18: parent " \
        "'{\"total_loss\": 1.25}', change '{\"total_loss\": 1.5}'" in lines


def test_a_long_line_shows_its_difference_in_context(tmp_path, capsys):
    parent, change = ({"pipeline-s0.stdout": b"x" * 100 + d + b"y" * 100} for d in (b"1", b"2"))
    code, lines = _compare(tmp_path, capsys, change, parent=parent)
    assert code == 1
    x, y = "x" * 40, "y" * 39
    assert lines[0] == (f"differs  pipeline-s0.stdout: line 1, column 101: "
                        f"parent '{x}1{y}', change '{x}2{y}'")


def test_extra_lines_are_counted(tmp_path, capsys):
    change = dict(OUTPUTS, **{"pipeline-s0.stdout": b'{"total_loss": 1.25}\nmore\n'})
    code, lines = _compare(tmp_path, capsys, change)
    assert code == 1
    assert "differs  pipeline-s0.stdout: 1 lines (parent) and 2 (change)" in lines


def test_a_missing_output_differs(tmp_path, capsys):
    change = {k: v for k, v in OUTPUTS.items() if k != "pipeline-s0/model.ckpt"}
    code, lines = _compare(tmp_path, capsys, change)
    assert code == 1
    assert "differs  pipeline-s0/model.ckpt: only in the parent" in lines


def test_commands_read_only_what_earlier_commands_wrote():
    done = set()
    for name, _, keys in same_bytes.COMMANDS:
        for value in (keys or {}).values():
            if str(value).startswith("../"):
                assert str(value).split("/")[1] in done, (name, value)
        done.add(name)
    assert len(done) == len(same_bytes.COMMANDS)
