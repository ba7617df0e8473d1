"""Run one `lcdunkl` CLI command with the layer tracer installed.

    python3 cli_child.py SPANS_JSON <lcdunkl arguments...>

Times `import lcdunkl.cli` in this fresh interpreter, wraps the layer
functions, calls `lcdunkl.cli.main` with the remaining arguments, writes
the spans and the import time to SPANS_JSON and exits with main's code.
PYTHONPATH must point at the package sources.
"""

import json
import sys
import time

if __name__ == "__main__":
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import lcdunkl.cli
    import_s = time.perf_counter() - t0

    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    code = lcdunkl.cli.main(argv)
    tracer.uninstall()
    with open(spans_path, "w") as fh:
        json.dump({"import_s": import_s, "spans": tracer.take()}, fh)
    sys.exit(code)
