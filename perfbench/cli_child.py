"""Traced stand-in for ``python -m hdmcg.cli``, used by the cli-cold trace.

    python3 perfbench/cli_child.py <dump.json> <hdmcg cli arguments...>

Times the import of ``hdmcg.cli`` and ``main(argv)``, traces the layers
in between, and writes the spans and counters to ``dump.json``.  Output
and exit code are those of the real CLI, a traceback included.
"""

import json
import sys
import time

if __name__ == "__main__":
    dump, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import hdmcg.cli
    t1 = time.perf_counter()
    from layers import Tracer

    tracer = Tracer()
    tracer.install()
    t2 = time.perf_counter()
    try:
        code = hdmcg.cli.main(argv)
    finally:
        t3 = time.perf_counter()
        tracer.uninstall()
        state = tracer.state()
        state["import_ms"] = (t1 - t0) * 1000.0
        state["main_ms"] = (t3 - t2) * 1000.0
        with open(dump, "w", encoding="utf-8") as fh:
            json.dump(state, fh)
    sys.exit(code)
