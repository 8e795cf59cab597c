"""Record the reference rows that every timed run is checked against.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Runs each workload's CLI once per instance 0..POOL-1 and stores its rows,
with the input's node count, edge count and sha256, in
``perfbench/reference/<workload>.json``. Record only at a commit whose
output is trusted: later commits must reproduce these rows.
"""

from __future__ import annotations

import json
import sys
import time

from bench import (
    DEADLINE_S,
    REFERENCE,
    UNTRACED,
    BenchError,
    Runner,
    build_input,
    cli_command,
    environment,
)
from spawner import Spawner
from workloads import POOL, WORKLOADS


def record(name: str, spawner: Spawner) -> dict:
    instances = {}
    for instance in range(POOL):
        inp = build_input(WORKLOADS[name], instance)
        rows_path = inp.work / "rows.csv"
        argv = cli_command(inp, rows_path, UNTRACED)
        child = Runner(spawner, time.monotonic() + DEADLINE_S).run(argv, inp.work / "cli")
        if child.code != 0:
            raise BenchError(f"{name} instance {instance} exited {child.code}: {child.stderr}")
        instances[str(instance)] = {"graph": inp.graph, "rows": rows_path.read_text()}
        print(f"{name} instance {instance}: {child.wall_s:.2f} s", file=sys.stderr)
    env = environment()
    return {"workload": name, "recorded_at": env["commit"], "environment": env, "instances": instances}


def main(names: list[str]) -> int:
    REFERENCE.mkdir(exist_ok=True)
    with Spawner() as spawner:
        for name in names or sorted(WORKLOADS):
            data = record(name, spawner)
            (REFERENCE / f"{name}.json").write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
