"""Fork server: starts the benchmark's child processes from a small
process, so that the peak RSS each child reports is its own.

Linux carries a process's peak RSS across exec.  A child that run.py
starts directly (fork or vfork, then exec) reports at least run.py's own
peak, about 19 MB, which hides the 17 MB a CLI call uses and moved with
the seed's input tables.  This process stays small, and the children it
forks report what they use themselves.

run.py starts it with one end of an AF_UNIX SOCK_SEQPACKET socket, whose
fd is argv[1], and sends JSON requests over it:

  {"argv", "env", "cwd"} with three fds (stdin, stdout, stderr)
      -> {"pid"}: the child runs argv with those fds
  {"wait": pid}  -> {"status", "maxrss_kb"}: wait4 on that child

At the end of the socket it kills and reaps any child still running,
then exits.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import sys


def _exec(req, fds):
    """In the forked child: take the fds as 0, 1 and 2, and exec."""
    try:
        for target, fd in enumerate(fds):
            os.dup2(fd, target)
        os.closerange(3, os.sysconf("SC_OPEN_MAX"))
        os.chdir(req["cwd"])
        os.execve(req["argv"][0], req["argv"], req["env"])
    finally:
        os._exit(127)


def main():
    sock = socket.socket(fileno=int(sys.argv[1]))
    children = set()
    while True:
        msg, fds, _, _ = socket.recv_fds(sock, 1 << 20, 3)
        if not msg:
            break
        req = json.loads(msg)
        if "wait" in req:
            _, status, usage = os.wait4(req["wait"], 0)
            children.discard(req["wait"])
            reply = {"status": status, "maxrss_kb": usage.ru_maxrss}
        else:
            pid = os.fork()
            if pid == 0:
                _exec(req, fds)
            children.add(pid)
            reply = {"pid": pid}
        for fd in fds:
            os.close(fd)
        sock.send(json.dumps(reply).encode())
    for pid in children:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


if __name__ == "__main__":
    main()
