"""Test-session set-up: CLI subprocesses import the scqsim under test.

pytest puts ``src`` on ``sys.path`` (``pythonpath`` in pyproject.toml), but
``python -m scqsim`` subprocesses only see ``PYTHONPATH``.
"""

import os

import scqsim

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(scqsim.__file__)))
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
