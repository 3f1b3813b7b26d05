import contextlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from emu import load_game

FIXTURES = Path(__file__).parent.parent / "fixtures"


@pytest.fixture(scope="session")
def g1():
    return load_game(FIXTURES / "g1.game")


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES


@pytest.fixture
def stack_room():
    """``stack_room(n)``: a context in which Python's recursion limit leaves
    exactly ``n`` frames above the caller's own stack."""

    @contextlib.contextmanager
    def room(frames):
        depth, frame = 0, sys._getframe(2)  # the caller, below this context
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + frames)
        try:
            yield
        finally:
            sys.setrecursionlimit(old)

    return room
