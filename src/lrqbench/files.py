"""The one writer of output files.

An output is written whole to ``.<name>.<pid>.tmp`` beside its target, the
old target is unlinked, and the new file is renamed into place, so a
reader sees the old bytes or the new ones, never part of either.  Nothing
is truncated in place: on ext4 with the default ``auto_da_alloc``, closing
a file truncated to zero starts its writeback, and the next truncation of
that file waits for the disk (about 55 ms per file on the ext4 disk of a
2-vCPU virtual machine), while a rename onto an absent name and the unlink
of a file that is not under writeback do not wait.  No ``fsync`` is made:
an output is as durable as a first-time write.
"""

from __future__ import annotations

import os


def write_output(path: str | os.PathLike, data: bytes | bytearray | str) -> None:
    """Make ``data`` (a ``str`` is UTF-8 encoded) the whole content of ``path``.

    A regular file or an absent path, judged after resolving symlinks, is
    replaced by a new file with mode ``0o666 & ~umask``; a symlink keeps
    its link and the file it points to is replaced.  Any other existing
    target, such as a device or a FIFO, is opened and written in place and
    never unlinked.  If the write fails, the temporary file is removed, the
    old target keeps its bytes, and the error propagates unchanged.
    """
    if isinstance(data, str):
        data = data.encode()
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(target, "wb") as fh:
            fh.write(data)
        return
    head, name = os.path.split(target)
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view) :]
        finally:
            os.close(fd)
        if os.path.lexists(target):
            os.unlink(target)
        os.rename(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise
