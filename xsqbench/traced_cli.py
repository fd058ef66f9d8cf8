"""Run one xsq CLI command with the tracer installed.

Usage: python traced_cli.py SPANS_JSON xsq-arguments...

Behaves like ``python -m xsq.cli xsq-arguments...`` (same stdout, stderr
and exit code) and writes the recorded spans to SPANS_JSON at exit.
"""

import sys

import tracer


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t = tracer.Tracer()
    sites = tracer.install(t)
    import xsq.cli
    try:
        code = xsq.cli.main(argv)
    finally:
        sys.stdout.flush()
        t.dump(spans_path, sites)
    return code


if __name__ == "__main__":
    sys.exit(main())
