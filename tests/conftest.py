import os

import pytest

from pointforms import data


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
