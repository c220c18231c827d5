"""Test-session set-up: CLI subprocesses import the scqsim under test,
hypothesis prints the ``@reproduce_failure`` line of every failing draw,
and the summary states the size of ``src/`` and the largest trace plans.

pytest puts ``src`` on ``sys.path`` (``pythonpath`` in pyproject.toml), but
``python -m scqsim`` subprocesses only see ``PYTHONPATH``.  A printed
failing draw can be pinned with ``@example`` from the test log alone, with
no need for the local ``.hypothesis`` database that replays it.  The
``src/`` line count (``wc -l`` of its Python files) lets every test log
show the net lines a change adds or deletes.  Every plan that
``core._check_work`` admits in this process is recorded by its unit
(Taylor substeps, RK4 steps per drive period, drive periods), except in
the work rule's own tests and the config fuzz; the largest of each, with
the test that ran it, shows how far the suite stays below its cap.
"""

import glob
import os

import pytest
from hypothesis import settings

import scqsim
from scqsim import core

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(scqsim.__file__)))
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

settings.register_profile("scqsim", print_blob=True)
settings.load_profile("scqsim")

_check_work = core._check_work
_running = None  # node id of the test being run
_largest = {}  # unit -> (count, node id) of the largest admitted plan
# the work rule's own tests, and the config fuzz, whose random draws seek the cap
_UNRECORDED = ("TestWorkCap", "TestConfigFuzz")


def _recording_check_work(kind, stop, count, unit, *cap):
    _check_work(kind, stop, count, unit, *cap)
    if _running is not None and not any(f"::{name}::" in _running for name in _UNRECORDED):
        if count > _largest.get(unit, (-1, None))[0]:
            _largest[unit] = (count, _running)


core._check_work = _recording_check_work


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    global _running
    _running = item.nodeid
    yield
    _running = None


def pytest_terminal_summary(terminalreporter):
    files = glob.glob(os.path.join(_SRC, "**", "*.py"), recursive=True)
    lines = 0
    for path in files:
        with open(path, "rb") as fh:
            lines += fh.read().count(b"\n")
    terminalreporter.write_line(f"scqsim src/: {lines} lines in {len(files)} files")
    for unit, (count, node) in sorted(_largest.items()):
        terminalreporter.write_line(f"largest admitted plan: {count:g} {unit} ({node})")
