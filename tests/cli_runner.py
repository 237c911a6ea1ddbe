"""Run ``degenbell.cli.main`` in-process and keep what a shell would see."""

from __future__ import annotations

import contextlib
import io
from typing import NamedTuple

from degenbell.cli import main


class Result(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str


def invoke(*args: object) -> Result:
    """Run one command on ``str`` of each argument; exceptions but ``SystemExit`` propagate."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main([str(a) for a in args])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    return Result(code, out.getvalue(), err.getvalue())
