"""Test-session set-up: CLI subprocesses import the scqsim under test, and
hypothesis prints the ``@reproduce_failure`` line of every failing draw.

pytest puts ``src`` on ``sys.path`` (``pythonpath`` in pyproject.toml), but
``python -m scqsim`` subprocesses only see ``PYTHONPATH``.  A printed
failing draw can be pinned with ``@example`` from the test log alone, with
no need for the local ``.hypothesis`` database that replays it.
"""

import os

from hypothesis import settings

import scqsim

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(scqsim.__file__)))
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

settings.register_profile("scqsim", print_blob=True)
settings.load_profile("scqsim")
