"""Test-session set-up: CLI subprocesses import the scqsim under test,
hypothesis prints the ``@reproduce_failure`` line of every failing draw,
and the summary states the size of ``src/``.

pytest puts ``src`` on ``sys.path`` (``pythonpath`` in pyproject.toml), but
``python -m scqsim`` subprocesses only see ``PYTHONPATH``.  A printed
failing draw can be pinned with ``@example`` from the test log alone, with
no need for the local ``.hypothesis`` database that replays it.  The
``src/`` line count (``wc -l`` of its Python files) lets every test log
show the net lines a change adds or deletes.
"""

import glob
import os

from hypothesis import settings

import scqsim

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(scqsim.__file__)))
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

settings.register_profile("scqsim", print_blob=True)
settings.load_profile("scqsim")


def pytest_terminal_summary(terminalreporter):
    files = glob.glob(os.path.join(_SRC, "**", "*.py"), recursive=True)
    lines = 0
    for path in files:
        with open(path, "rb") as fh:
            lines += fh.read().count(b"\n")
    terminalreporter.write_line(f"scqsim src/: {lines} lines in {len(files)} files")
