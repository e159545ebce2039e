"""The native library is cached per user by the digest of what builds it.

A process opens ``$XDG_CACHE_HOME/repro-native/<digest>.so`` when it is
there and runs no compiler; a cached file that does not open is compiled
again and replaced; a cache directory another user could write is not
used.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import native

pytestmark = pytest.mark.skipif(native.load() is None, reason="no C compiler on this host")

#: Loads the library in a fresh process and exits 0 iff it loaded after
#: ``argv[1]`` compiler runs.
PROBE = (
    "import sys; from repro.core import native; runs, real = [], native.subprocess.run; "
    "native.subprocess.run = lambda *a, **k: runs.append(a) or real(*a, **k); "
    "sys.exit(native.load() is None or len(runs) != int(sys.argv[1]))"
)


def _load_in_a_process(cache: Path, compiles: int) -> None:
    env = {**os.environ, "XDG_CACHE_HOME": str(cache),
           "PYTHONPATH": os.pathsep.join([str(Path(native.__file__).parents[2]), os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", PROBE, str(compiles)], env=env, check=True, timeout=600)


def test_a_second_process_opens_the_cached_library(tmp_path):
    _load_in_a_process(tmp_path, 1)
    _load_in_a_process(tmp_path, 0)  # the same key: no compiler run
    directory = tmp_path / "repro-native"
    (cached,) = directory.iterdir()
    assert cached.suffix == ".so" and directory.stat().st_mode & 0o777 == 0o700
    cached.write_bytes(cached.read_bytes()[:64])  # truncated: it does not open
    _load_in_a_process(tmp_path, 1)
    assert [path.name for path in directory.iterdir()] == [cached.name] and cached.stat().st_size > 64


def test_a_directory_others_can_write_is_not_used(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert native._cache_path().startswith(str(tmp_path / "repro-native"))
    (tmp_path / "repro-native").chmod(0o777)
    assert native._cache_path() is None
