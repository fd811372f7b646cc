import errno
import os
import stat

import numpy as np
import pytest

from lrqbench import files
from lrqbench.files import write_output


def umasked_mode() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return 0o666 & ~mask


def leftovers(directory) -> list:
    return sorted(p.name for p in directory.glob(".*.tmp"))


def test_parts_are_written_in_order_as_their_bytes(tmp_path):
    # a state dump's header and amplitudes, the array written as it is held
    path = tmp_path / "out.bin"
    amps = np.arange(5, dtype=np.complex128) * (1 - 2j)
    write_output(path, "head", b"\x01", amps)
    assert path.read_bytes() == b"head\x01" + amps.tobytes()
    assert leftovers(tmp_path) == []


def test_overwrite_makes_a_new_file(tmp_path):
    path = tmp_path / "out.json"
    write_output(path, "first\n")
    first = path.stat().st_ino
    write_output(path, b"second\n")
    assert path.read_bytes() == b"second\n"
    assert path.stat().st_ino != first
    assert stat.S_IMODE(path.stat().st_mode) == umasked_mode()
    assert leftovers(tmp_path) == []


def test_text_is_written_as_utf8(tmp_path):
    path = tmp_path / "out.txt"
    write_output(path, "ε=0.05\n")
    assert path.read_bytes() == "ε=0.05\n".encode("utf-8")


def test_a_failed_write_keeps_the_old_bytes(tmp_path, monkeypatch):
    path = tmp_path / "out.bin"
    write_output(path, b"old")
    real = os.write

    def full_disk(fd, data):
        real(fd, bytes(data[:2]))
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(files.os, "write", full_disk)
    with pytest.raises(OSError) as exc:
        write_output(path, b"new payload")
    monkeypatch.undo()
    assert exc.value.errno == errno.ENOSPC
    assert path.read_bytes() == b"old"
    assert leftovers(tmp_path) == []


def test_a_symlinked_output_keeps_its_link(tmp_path):
    target, link = tmp_path / "data.csv", tmp_path / "link.csv"
    write_output(target, "a\n")
    link.symlink_to(target.name)
    write_output(link, "b\n")
    assert link.is_symlink() and os.readlink(link) == target.name
    assert target.read_text() == "b\n"
    assert leftovers(tmp_path) == []


def test_a_fifo_is_written_in_place(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        write_output(fifo, b"through the pipe")
        assert os.read(reader, 64) == b"through the pipe"
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert leftovers(tmp_path) == []
