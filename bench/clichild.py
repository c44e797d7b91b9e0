"""`python -m logalg.cli` with layer spans, for the traced run.

Usage: clichild.py SPANS_PATH VERB [ARGS...].  Behaves like the CLI (same
stdout, stderr and exit code, a traceback on an uncaught exception) and
writes the spans and counters it recorded to SPANS_PATH when it ends.
"""
import contextlib
import io
import json
import os
import sys
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    idx = tracer.open("cli.import", "import")
    import logalg.cli
    tracer.close(idx)
    spans.install(tracer)
    out = io.StringIO()
    code = 1
    with contextlib.redirect_stdout(out):
        try:
            code = logalg.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
    sys.stdout.write(out.getvalue())
    with open(spans_path, "w") as fh:
        json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
