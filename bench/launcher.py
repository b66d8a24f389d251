"""Runs the benchmark's CLI processes from a small helper process.

A child's peak RSS as the kernel reports it starts from the peak RSS of the
process that spawned it, so launching the CLI from the benchmark itself,
which holds numpy and the reference arrays, would inflate every figure.
The helper runs without numpy or ``site`` and stays a few MB, below any
CLI process. It reads one JSON request per line on stdin, runs the command
to its end, and answers with the exit code, the wall time it measured
around the child and the child's peak RSS.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def serve():
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["out"], "wb") as out, open(req["err"], "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                req["argv"], stdout=out, stderr=err, env=req["env"], cwd=req["cwd"],
                start_new_session=True,
            )
            # on timeout, kill the command's whole session, pool workers included
            timer = threading.Timer(req["timeout"], os.killpg, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"rc": proc.returncode, "wall_s": wall, "maxrss_kb": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


class Launcher:
    """Client side: one helper process for the life of the object."""

    def __init__(self, env, cwd, timeout):
        self._req = {"env": env, "cwd": str(cwd), "timeout": timeout}
        self._proc = subprocess.Popen(
            [sys.executable, "-S", os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv, out_path, err_path):
        """Returns (exit code, wall seconds, peak RSS in MB)."""
        req = dict(self._req, argv=argv, out=str(out_path), err=str(err_path))
        self._proc.stdin.write(json.dumps(req) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process ended unexpectedly")
        reply = json.loads(line)
        return reply["rc"], reply["wall_s"], reply["maxrss_kb"] / 1024.0

    def close(self):
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


if __name__ == "__main__":
    serve()
