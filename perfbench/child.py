"""A benchmark subprocess driven by JSON lines over its stdin/stdout:
:class:`Child` is the parent's side, :func:`reply` the child's."""

from __future__ import annotations

import json
import os
import pathlib
import select
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def reply(obj) -> None:
    """Answer the parent: one JSON object on one line of stdout."""
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


class ChildError(RuntimeError):
    pass


class Child:
    """``python3 perfbench/<script> args...`` with ``src`` on the path.

    ``started`` is the wall-clock instant the process was spawned, so
    the caller can time start-up up to the first reply.  ``cpu`` pins
    the process to one CPU.
    """

    def __init__(self, script: str, *args: str, cpu: int | None = None):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.name = script
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / script), *args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            text=True,
            preexec_fn=None if cpu is None else lambda: os.sched_setaffinity(0, {cpu}),
        )

    def read(self, timeout: float = 60.0) -> dict:
        """The next JSON line the child prints."""
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            self.kill()
            raise ChildError(f"{self.name}: no reply within {timeout}s "
                             f"(exit code {self.proc.poll()})")
        return json.loads(line)

    def call(self, timeout: float = 60.0, **cmd) -> dict:
        self.proc.stdin.write(json.dumps(cmd) + "\n")
        self.proc.stdin.flush()
        return self.read(timeout)

    def send(self, **cmd) -> None:
        self.proc.stdin.write(json.dumps(cmd) + "\n")
        self.proc.stdin.flush()

    def wait(self, timeout: float = 30.0) -> int:
        try:
            return self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise ChildError(f"{self.name}: did not exit within {timeout}s")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()

    def close(self) -> None:
        """Kill the child if it is still running and close its pipes."""
        self.kill()
        for f in (self.proc.stdin, self.proc.stdout):
            try:
                f.close()
            except OSError:
                pass

    def __enter__(self) -> "Child":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
