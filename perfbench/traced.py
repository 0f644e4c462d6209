"""Run the ``repro`` CLI with timing wrappers installed around its layers.

Usage: ``python perfbench/traced.py SPANS.json -- serve --bundle B --port 0``

The same entry point a user runs (``repro.cli.main``), preceded by
:func:`spans.install_serving`; spans are written to ``SPANS.json`` when
the command returns (``repro serve`` returns on SIGINT).
"""

from __future__ import annotations

import sys

import spans


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced.py SPANS.json -- <repro cli args>", file=sys.stderr)
        return 2
    out, cli_args = argv[0], argv[2:]
    from repro import cli

    recorder = spans.SpanRecorder()
    spans.install_serving(recorder)
    try:
        return cli.main(cli_args)
    finally:
        recorder.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
