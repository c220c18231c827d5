"""Test-session set-up: CLI subprocesses import the scqsim under test,
hypothesis prints the ``@reproduce_failure`` line of every failing draw,
and the summary states the size of ``src/`` and the largest trace plans.

pytest puts ``src`` on ``sys.path`` (``pythonpath`` in pyproject.toml), but
``python -m scqsim`` subprocesses only see ``PYTHONPATH``.  A printed
failing draw can be pinned with ``@example`` from the test log alone, with
no need for the local ``.hypothesis`` database that replays it.  The
``src/`` line count (``wc -l`` of its Python files) and its code lines
(``code_lines``: no blank, comment-only or docstring lines) let every
test log show the net lines a change adds or deletes, and how many of
them are code.  Every plan that
``core._check_work`` admits in this process is recorded by its unit
(Lindblad squarings, RK4 steps per drive period, drive periods), and so
is the number of step exponentials (``core._expm`` calls) that each
admitted Lindblad plan goes on to take, except in the work rule's own
tests and the config fuzz; the largest of each, with the test that ran
it, shows how far the suite stays below its cap.
"""

import ast
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

_check_work, _expm = core._check_work, core._expm
_running = None  # node id of the test being run
_largest = {}  # unit -> (count, node id) of the largest admitted plan
_exponentials = None  # step exponentials since this test's last admitted Lindblad plan
# the work rule's own tests, and the config fuzz, whose random draws seek the cap
_UNRECORDED = ("TestWorkCap", "TestConfigFuzz")


def _record(unit, count):
    if _running is not None and not any(f"::{name}::" in _running for name in _UNRECORDED):
        if count > _largest.get(unit, (-1, None))[0]:
            _largest[unit] = (count, _running)


def _recording_check_work(kind, stop, count, unit, *cap):
    global _exponentials
    _check_work(kind, stop, count, unit, *cap)
    _record(unit, count)
    if unit == "squarings":
        _exponentials = 0


def _counting_expm(*args):
    global _exponentials
    if _exponentials is not None:
        _exponentials += 1
        _record("step exponentials", _exponentials)
    return _expm(*args)


core._check_work, core._expm = _recording_check_work, _counting_expm


def code_lines(source: str) -> int:
    """Lines of Python source that are neither blank, nor comment-only, nor part of a docstring."""
    docs = set()
    for node in ast.walk(ast.parse(source)):
        scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        if isinstance(node, scopes) and ast.get_docstring(node, clean=False) is not None:
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = enumerate(source.splitlines(), 1)
    return sum(1 for n, line in lines if n not in docs and line.strip() and not line.lstrip().startswith("#"))


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    global _running, _exponentials
    _running, _exponentials = item.nodeid, None
    yield
    _running = None


def pytest_terminal_summary(terminalreporter):
    files = glob.glob(os.path.join(_SRC, "**", "*.py"), recursive=True)
    lines = code = 0
    for path in files:
        with open(path, "rb") as fh:
            source = fh.read()
        lines += source.count(b"\n")
        code += code_lines(source.decode("utf-8"))
    terminalreporter.write_line(f"scqsim src/: {lines} lines ({code} code lines) in {len(files)} files")
    for unit, (count, node) in sorted(_largest.items()):
        terminalreporter.write_line(f"largest admitted plan: {count:g} {unit} ({node})")
