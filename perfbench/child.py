"""One benchmarked gigkdv CLI process.

Usage: python3 child.py STATUS_FD MODE [CLI ARGS...]

MODE is ``probe`` (import and exit), ``run`` (import and dispatch) or
``trace`` (dispatch with every gigkdv layer wrapped by `tracer.Tracer`).
The child writes ``ready`` to STATUS_FD once ``gigkdv.cli`` is imported and
ready to dispatch, and in trace mode one JSON line of spans and counters
after dispatch.  The report goes to standard output exactly as the CLI writes
it, and the exit status is the CLI's own.
"""

import os
import sys
from time import perf_counter

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main() -> int:
    status_fd, mode, argv = int(sys.argv[1]), sys.argv[2], sys.argv[3:]
    t0 = perf_counter()
    import gigkdv.cli
    import_s = perf_counter() - t0
    if os.path.dirname(os.path.dirname(os.path.abspath(gigkdv.__file__))) != SRC:
        print(f"child: gigkdv imported from {gigkdv.__file__}, not {SRC}", file=sys.stderr)
        return 3
    with os.fdopen(status_fd, "w") as status:
        status.write("ready\n")
        status.flush()
        if mode == "probe":
            return 0
        tracer = None
        if mode == "trace":
            import json

            from scipy import stats

            import tracer as tracing

            tracer = tracing.Tracer()
            modules = [m for k, m in sys.modules.items()
                       if k == "gigkdv" or k.startswith("gigkdv.")] + [stats]
            tracer.install(modules, tracing.targets(gigkdv, stats))
        t0 = perf_counter()
        code = gigkdv.cli.dispatch(argv)
        dispatch_s = perf_counter() - t0
        sys.stdout.flush()
        if tracer is not None:
            doc = tracer.summary()
            doc.update(import_s=import_s, dispatch_s=dispatch_s)
            status.write(json.dumps(doc) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
