"""Atomic directory publication and streaming checksums.

The dataset cache persists one entry as a *directory* (a manifest and
one shard per month).  Writing those files straight into the final location
leaves a torn entry behind whenever the process dies mid-write — the
classic failure this module removes.  The publication protocol:

1. the writer stages every file in a sibling directory named
   ``<final>.tmp-<pid>`` (unique per process, so concurrent writers
   never collide);
2. every staged file and the staging directory are fsynced;
3. the staging directory is renamed over the final path with
   ``os.replace`` — atomic on POSIX — and the parent directory is
   fsynced so the rename itself survives a power loss.

A crash before step 3 leaves only a ``tmp-<pid>`` directory that no
reader ever looks at; a crash after step 3 leaves a complete entry.
Readers therefore see either *no entry* or a *whole entry*, never a
torn one.  When the final path already holds an older entry it is
displaced to ``<final>.old-<pid>`` first and removed after the swap;
the only non-atomic window leaves the cache *missing* an entry (a
regenerable state), never corrupt.
"""

from __future__ import annotations

import hashlib
import os
import shutil

__all__ = ["fsync_path", "sha256_file", "staging_dir", "publish_dir"]


def fsync_path(path: str) -> None:
    """fsync a file or directory; best-effort on filesystems without it."""
    flags = os.O_RDONLY
    if os.path.isdir(path):
        flags |= getattr(os, "O_DIRECTORY", 0)
    try:
        fd = os.open(path, flags)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def sha256_file(path: str, chunk_bytes: int = 1 << 20) -> str:
    """Hex sha256 of a file, streamed in ``chunk_bytes`` blocks."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while True:
            block = handle.read(chunk_bytes)
            if not block:
                break
            digest.update(block)
    return digest.hexdigest()


def staging_dir(final_dir: str) -> str:
    """The per-process staging sibling for ``final_dir``."""
    return f"{final_dir}.tmp-{os.getpid()}"


def publish_dir(tmp_dir: str, final_dir: str) -> str:
    """Atomically publish staged ``tmp_dir`` as ``final_dir``.

    Fsyncs the staged files, swaps the directory into place with
    ``os.replace`` and fsyncs the parent.  An existing ``final_dir`` is
    displaced out of the way first and removed afterwards.  If another
    process wins the publication race, its entry is kept and ours is
    discarded — both were built from the same config, so either is
    valid.  Returns ``final_dir``.
    """
    for name in sorted(os.listdir(tmp_dir)):
        fsync_path(os.path.join(tmp_dir, name))
    fsync_path(tmp_dir)
    parent = os.path.dirname(os.path.abspath(final_dir))

    if os.path.exists(final_dir):
        displaced = f"{final_dir}.old-{os.getpid()}"
        if os.path.exists(displaced):
            shutil.rmtree(displaced)
        os.replace(final_dir, displaced)
        os.replace(tmp_dir, final_dir)
        shutil.rmtree(displaced, ignore_errors=True)
    else:
        try:
            os.replace(tmp_dir, final_dir)
        except OSError:
            # Lost the race to a concurrent writer: keep their entry.
            shutil.rmtree(tmp_dir, ignore_errors=True)
    fsync_path(parent)
    return final_dir
