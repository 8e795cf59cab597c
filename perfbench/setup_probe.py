"""Time what every CLI invocation pays before any measure runs.

``python3 perfbench/setup_probe.py EDGES`` times ``import fldrank`` plus
``load_edge_list(EDGES)`` in this fresh process and prints one JSON object.
"""

import json
import sys
import time

start = time.perf_counter()
import fldrank  # noqa: E402

graph = fldrank.load_edge_list(sys.argv[1])
elapsed = time.perf_counter() - start
print(json.dumps({"setup_s": elapsed, "nodes": graph.node_count, "module": fldrank.__file__}))
