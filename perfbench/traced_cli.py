"""Run one trajcurate CLI command in-process with the benchmark's tracer.

Usage: python traced_cli.py SPANS_OUT RUN_ID PARENT_SPAN -- CLI_ARGS...

Writes the recorded spans to SPANS_OUT as JSON and exits with the CLI's
exit code. The program must already be importable (PYTHONPATH=src).
"""

from __future__ import annotations

import sys

from tracing import Tracer, install


def main(argv: list[str]) -> int:
    spans_out, run_id, parent, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS_OUT RUN_ID PARENT_SPAN -- CLI_ARGS...")
    tracer = Tracer(run_id, root_parent=parent)
    install(tracer)
    from trajcurate import cli

    with tracer.span("cli.dispatch"):
        code = cli.dispatch(cli_args)
    tracer.write(spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
