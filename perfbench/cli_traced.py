"""Runs one wignerweyl CLI command with the benchmark's span wrappers installed.

Usage: cli_traced.py SPAN_FILE <wignerweyl cli arguments...>

The whole ``wignerweyl.cli.main`` call is the span ``cli``; the spans are
written to SPAN_FILE as JSON when the command returns, and the command's own
exit status is kept.
"""

import sys

import spans as SP


def main() -> int:
    span_file, argv = sys.argv[1], sys.argv[2:]
    tracer = SP.Tracer()
    tracer.install()
    import wignerweyl.cli as cli

    tracer.active = True
    tracer.op = 0
    try:
        code = tracer.call(cli.main, "cli", None, (argv,), {})
    finally:
        tracer.op = None
        tracer.dump(span_file)
    return code


if __name__ == "__main__":
    sys.exit(main())
