import os

import pytest

import mobsynth


@pytest.fixture
def subprocess_pythonpath():
    """PYTHONPATH for CLI subprocesses that run from another directory.

    The directory holding the imported ``mobsynth`` package goes first, so
    the subprocess runs the same source tree as the in-process tests; the
    caller's own entries follow, made absolute because a relative entry
    would resolve against the subprocess's cwd.
    """
    entries = [os.path.dirname(os.path.dirname(os.path.abspath(
        mobsynth.__file__)))]
    entries += [os.path.abspath(p) for p in
                os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return os.pathsep.join(entries)
