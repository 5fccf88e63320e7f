"""Command line: the whole suite, one workload (the driver's contract), or compare.

    python3 -m perfbench [--seed S] [--repeats N] [--out FILE]
    python3 -m perfbench run --workload NAME --seed S --seconds T --trace 0|1 [--smoke]
    python3 -m perfbench compare A.json B.json

``run`` is what ``BENCHMARK.json``'s ``command`` invokes: it prints each metric
by name and unit and, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The suite runs every workload in a
fresh interpreter (the kernel chooser's timing cache and the allocator's
high-water mark are per process), untraced and traced.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: A ``run`` whose workload is still going after this many seconds is killed
#: with everything it started and reported as failed; the driver's limit is 180 s.
WATCHDOG_S = 150.0
#: How long what the workload left behind (the ``multiprocessing`` resource
#: tracker, a straggling shard worker) may take to end by itself.
GRACE_S = 5.0
#: Exit codes: outputs wrong or operations failed; run invalid; watchdog.
EXIT_FAILED, EXIT_INVALID, EXIT_WATCHDOG = 1, 2, 3

_PR_SET_CHILD_SUBREAPER = 36


def _prepare_process() -> None:
    """Pin BLAS threads and make ``repro`` importable — before NumPy loads."""
    from perfbench.host import pin_threads

    pin_threads()
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


def _children() -> list:
    """Pids whose parent is this process (zombies included), from ``/proc``."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue  # ended while we were listing
        if int(stat.rpartition(")")[2].split()[1]) == me:
            found.append(int(entry))
    return found


def _end_descendants(grace: float) -> None:
    """Return once no process this run started is left; kill what outlives ``grace`` s.

    This process is a subreaper, so whatever the workload leaves behind is
    handed to it and becomes its child: when ``waitpid`` has nothing left to
    wait for, nothing the run started still exists, not even as a zombie.
    """
    import signal
    import time

    deadline = time.monotonic() + grace
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() >= deadline:
            for child in _children():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


def _supervise(argv) -> int:
    """Run the workload in an interpreter of its own and leave nothing behind.

    A ``ShardedRuntime`` brings a ``multiprocessing`` resource tracker with
    it, which ends only *after* the interpreter that started it has gone, so
    no process can wait for its own: ``run`` is therefore a supervisor that
    starts the workload as a child, adopts every process that child orphans,
    and exits when the last of them has ended — on every path out, the
    watchdog's and a SIGTERM's included.
    """
    import ctypes
    import signal
    import subprocess

    try:
        adopted = ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        adopted = False
    if not adopted:
        print("perfbench: cannot adopt orphaned processes here (needs Linux prctl)",
              file=sys.stderr)
        return EXIT_WATCHDOG

    def terminated(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, terminated)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT), env.get("PYTHONPATH")]))
    # Its own session: a terminal's Ctrl-C reaches the supervisor alone, which
    # then ends the workload in the ``finally`` below.
    workload = subprocess.Popen(
        [sys.executable, "-m", "perfbench", "_workload", *argv], env=env, start_new_session=True
    )
    try:
        return workload.wait(timeout=WATCHDOG_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: watchdog expired after {WATCHDOG_S:.0f} s; killing the workload",
              file=sys.stderr, flush=True)
        return EXIT_WATCHDOG
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)  # a second one must not cut this short
        if workload.poll() is None:
            # The workload and its shard workers end on SIGTERM; the resource
            # tracker ignores it, unlinks the shared memory they leave and ends.
            os.killpg(workload.pid, signal.SIGTERM)
        _end_descendants(GRACE_S)


def _workload(argv) -> int:
    import argparse
    import json

    parser = argparse.ArgumentParser(prog="perfbench run")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="vgg_tiny@16 at micro-batch 8 (self-tests)")
    parser.add_argument("--context", metavar="FILE",
                        help="also write fingerprint, chooser picks and trace hash here")
    args = parser.parse_args(argv)

    from perfbench import spec
    from perfbench.runner import print_run, run_workload

    if args.workload not in spec.load().workloads:
        parser.error(f"unknown workload {args.workload!r}")
    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    if args.context:
        Path(args.context).write_text(json.dumps(run, indent=1))
    print_run(run)
    if run["result"]["failed"]:
        return EXIT_FAILED
    return 0 if run["context"]["valid"] else EXIT_INVALID


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    _prepare_process()
    if argv and argv[0] == "run":
        return _supervise(argv[1:])
    if argv and argv[0] == "_workload":  # what ``run`` starts; not for the command line
        return _workload(argv[1:])
    if argv and argv[0] == "compare":
        from perfbench.compare import main as compare_main

        return compare_main(argv[1:])
    from perfbench.suite import main as suite_main

    return suite_main(argv)


if __name__ == "__main__":
    sys.exit(main())
