import os

# One BLAS thread for the whole session, set before numpy is first imported: the process then runs one
# OS thread, so training, precompute and the studies take the forked-worker path that perfbench times.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(BLAS_VARS, "1"))

import pytest  # noqa: E402

from pointforms import data  # noqa: E402


@pytest.fixture
def forked_workers(monkeypatch):
    """Force ``fork_map``'s worker whatever the BLAS threads of this process, and list the pid of
    each worker it forks; a test that sets ``data._can_fork`` to False gets one process again.
    Fails the test if a child is left unreaped."""
    started = []

    class Spy(data.Worker):
        def __init__(self, handle):
            super().__init__(handle)
            started.append(self.pid)

    monkeypatch.setattr(data, "_can_fork", lambda: True)
    monkeypatch.setattr(data, "Worker", Spy)
    yield started
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
