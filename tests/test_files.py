"""The output writer: in-place rewrites and the one write path of src/."""

import ast
import os
from pathlib import Path

import pytest

import nmwaves
from nmwaves.files import read_csv, write_csv, write_json

SRC = Path(nmwaves.__file__).resolve().parent

ROWS = [(1, 2.5), (3, float("nan")), (4, -1e-300)]
CSV_TEXT = "a,b\n1,2.5\n3,nan\n4,-1e-300\n"
PAYLOAD = {"b": [1.0, None], "a": "é"}
JSON_TEXT = '{\n  "a": "\\u00e9",\n  "b": [\n    1.0,\n    null\n  ]\n}\n'


def test_fresh_files_hold_exactly_the_new_text(tmp_path):
    write_csv(tmp_path / "t.csv", ["a", "b"], ROWS)
    write_json(tmp_path / "t.json", PAYLOAD)
    assert (tmp_path / "t.csv").read_bytes() == CSV_TEXT.encode()
    assert (tmp_path / "t.json").read_bytes() == JSON_TEXT.encode()
    assert read_csv(tmp_path / "t.csv")[0] == ["a", "b"]


def test_rewriting_a_longer_file_leaves_only_the_new_bytes(tmp_path):
    old = "x" * 10_000 + "\r\n"
    for name, write, text in [
            ("t.csv", lambda p: write_csv(p, ["a", "b"], ROWS), CSV_TEXT),
            ("t.json", lambda p: write_json(p, PAYLOAD), JSON_TEXT)]:
        path = tmp_path / name
        path.write_text(old)
        write(path)
        assert path.read_bytes() == text.encode()
        write(path)  # same length: nothing to cut
        assert path.read_bytes() == text.encode()


def test_a_writer_that_raises_leaves_only_the_rows_written(tmp_path):
    def rows(n):
        yield from ROWS[:n]
        raise RuntimeError("row source failed")

    path = tmp_path / "t.csv"
    for n in (0, 2):
        path.write_text("old,tail\n" * 1_000)
        with pytest.raises(RuntimeError, match="row source failed"):
            write_csv(path, ["a", "b"], rows(n))
        assert path.read_text() == "".join(
            CSV_TEXT.splitlines(keepends=True)[:n + 1])


def test_writing_through_a_symlink_updates_its_target(tmp_path):
    target = tmp_path / "target.json"
    target.write_text("y" * 5_000)
    link = tmp_path / "link.json"
    link.symlink_to(target.name)
    write_json(link, PAYLOAD)
    assert link.is_symlink()
    assert os.readlink(link) == target.name
    assert target.read_bytes() == JSON_TEXT.encode()
    dangling = tmp_path / "dangling.csv"
    dangling.symlink_to("created.csv")
    write_csv(dangling, ["a", "b"], ROWS)
    assert dangling.is_symlink()
    assert (tmp_path / "created.csv").read_bytes() == CSV_TEXT.encode()


def test_new_files_get_the_umask_permissions_and_old_ones_keep_theirs(
        tmp_path):
    old_mask = os.umask(0o027)
    try:
        write_json(tmp_path / "new.json", PAYLOAD)
        kept = tmp_path / "kept.csv"
        kept.write_text("z" * 100)
        kept.chmod(0o600)
        write_csv(kept, ["a", "b"], ROWS)
    finally:
        os.umask(old_mask)
    assert (tmp_path / "new.json").stat().st_mode & 0o777 == 0o640
    assert kept.stat().st_mode & 0o777 == 0o600


def test_a_device_is_written_without_truncation():
    write_json(os.devnull, PAYLOAD)
    write_csv(os.devnull, ["a", "b"], ROWS)


def test_a_directory_is_no_output(tmp_path):
    with pytest.raises(IsADirectoryError):
        write_json(tmp_path, PAYLOAD)
    assert not list(tmp_path.iterdir())


def _write_calls(tree: ast.AST):
    """Calls in tree that can open a file for writing: os.open, and open,
    io.open or .open with a mode that is not a literal read mode."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in (
                "write_text", "write_bytes"):
            yield node
            continue
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None)
        if name != "open":
            continue
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "os"):
            yield node
            continue
        mode = node.args[1] if len(node.args) > 1 else next(
            (kw.value for kw in node.keywords if kw.arg == "mode"),
            ast.Constant("r"))
        if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+")):
            yield node


def test_only_the_files_module_opens_files_for_writing():
    offenders = [
        f"{path.name}:{call.lineno}"
        for path in sorted(SRC.glob("*.py")) if path.name != "files.py"
        for call in _write_calls(ast.parse(path.read_text(), str(path)))]
    assert offenders == []
    # the guard sees the writer it exempts
    assert list(_write_calls(ast.parse((SRC / "files.py").read_text())))


@pytest.mark.parametrize("source, found", [
    ("open(p, 'w')", True), ("open(p, mode='a')", True),
    ("open(p, 'r+b')", True), ("open(p, m)", True), ("io.open(p, 'x')", True),
    ("os.open(p, os.O_RDONLY)", True), ("Path(p).write_text(s)", True),
    ("open(p)", False), ("open(p, 'rb')", False),
    ("open(p, encoding='utf-8')", False)])
def test_the_write_guard_recognises_write_calls(source, found):
    assert bool(list(_write_calls(ast.parse(source)))) is found

