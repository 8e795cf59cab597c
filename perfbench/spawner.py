"""Run the benchmark's children from a small process forked at start-up.

On Linux a child's ``ru_maxrss`` starts at the peak RSS of the process it
was spawned from: exec records the peak of the address space it replaces,
and a vfork'd or forked child starts from its parent's. Children spawned
straight from the benchmark, which holds numpy, the inputs and the speed
probe, would report at least the benchmark's own peak. The spawner is
forked before any of that is loaded, so the floor it passes on is a bare
interpreter's (about 14 MB), below every workload's own peak.
"""

from __future__ import annotations

import json
import os
import subprocess
import threading
import time


def _serve(requests, replies) -> None:
    for line in requests:
        argv, env, cwd, out_path, err_path, timeout = json.loads(line)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            try:
                proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)
            except OSError as exc:
                err.write(f"cannot start {argv[0]}: {exc}\n".encode())
                replies.write(json.dumps([127, 0.0, 0.0, 0.0]) + "\n")
                replies.flush()
                continue
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        result = [proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0]
        replies.write(json.dumps(result) + "\n")
        replies.flush()


class Spawner:
    """A forked helper that starts one child at a time and reports its wait4 usage.

    Create it before importing anything large, and close it when done.
    """

    def __init__(self):
        req_r, req_w = os.pipe()
        rep_r, rep_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(req_w)
            os.close(rep_r)
            code = 0
            try:
                with os.fdopen(req_r) as requests, os.fdopen(rep_w, "w") as replies:
                    _serve(requests, replies)
            except BaseException:
                code = 1
            finally:
                os._exit(code)
        os.close(req_r)
        os.close(rep_w)
        self.pid = pid
        self._requests = os.fdopen(req_w, "w")
        self._replies = os.fdopen(rep_r)

    def run(self, argv, env, cwd, out_path, err_path, timeout) -> tuple[int, float, float, float]:
        """(exit code, wall s, user+sys CPU s, peak RSS MB) of one child run to completion."""
        request = [list(argv), env, str(cwd), str(out_path), str(err_path), timeout]
        self._requests.write(json.dumps(request) + "\n")
        self._requests.flush()
        reply = self._replies.readline()
        if not reply:
            raise RuntimeError("the spawner process exited")
        return tuple(json.loads(reply))

    def close(self) -> None:
        """Stop the spawner and wait until it has exited."""
        self._requests.close()
        os.waitpid(self.pid, 0)
        self._replies.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
