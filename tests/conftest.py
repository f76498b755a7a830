"""Hypothesis profiles, and the in-process runner the CLI tests drive `quadres.cli.main` with.

`pytest --hypothesis-profile=ci` runs the same examples on every run; a run without the option keeps
hypothesis's default profile, which draws new examples each time.
"""

import io
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from datetime import timedelta

from hypothesis import settings

# derandomized, so a failure in CI recurs on the next run; a test that sets its own deadline keeps it
settings.register_profile("ci", derandomize=True, deadline=timedelta(seconds=1))


@dataclass
class Result:
    """One command's exit code, what it wrote to stdout and stderr, and the exception it ended with, if any."""

    exit_code: int
    stdout: str
    stderr: str
    exception: BaseException | None

    @property
    def output(self) -> str:
        """stdout, then stderr."""
        return self.stdout + self.stderr


class CliRunner:
    """Runs a command line through `main` in this process, as the console script does: `sys.exit(main(args))`.

    `env` sets environment variables for the one call and restores them afterwards.  A nonzero exit is kept
    as its `SystemExit`; any other exception is caught, kept and reported as exit 1.
    """

    def invoke(self, main, args, env=None) -> Result:
        saved = {key: os.environ.get(key) for key in env or {}}
        os.environ.update(env or {})
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(stdout), redirect_stderr(stderr):
                sys.exit(main(list(args)))
        except SystemExit as exc:
            code, exception = exc.code or 0, exc if exc.code else None
        except Exception as exc:  # kept for the test to assert on, as a traceback would show it
            code, exception = 1, exc
        finally:
            for key, value in saved.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value
        return Result(code, stdout.getvalue(), stderr.getvalue(), exception)
