"""Run one scqsim CLI command with tracing, for the traced cli run.

    PERFBENCH_SPANS=spans.json python3 perfbench/cli_child.py spectrum --config cfg.ini

Imports the CLI, installs the span wrappers, calls ``scqsim.cli.main``
with the remaining arguments, writes the spans to $PERFBENCH_SPANS and
exits with main's return code.  Time before the wrappers exist
(interpreter start and imports) is left to the parent's command span.
"""

import os
import sys

import scqsim.cli

import tracing


def main() -> int:
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        return scqsim.cli.main(sys.argv[1:])
    finally:
        tracer.dump(os.environ["PERFBENCH_SPANS"])


if __name__ == "__main__":
    sys.exit(main())
