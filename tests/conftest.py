"""Fixtures shared across test modules."""

import contextlib
import io
import json

import pytest

from kneser_tverberg.cli import main


@pytest.fixture(scope="session")
def verify_all_run() -> tuple[int, list[dict]]:
    """Exit code and parsed report lines of `kntv verify all`, run once per session.

    capsys is per test, so stdout is captured by redirection.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", "all"])
    return code, [json.loads(line) for line in out.getvalue().splitlines()]
