"""Run ``repro serve`` with timing spans around each layer's entry points.

Usage: ``python3 perfbench/launcher.py TRACE_DIR serve --socket ...``

The wrappers are installed before the daemon starts, so the pool
workers it forks inherit them. Every process writes its spans to
``TRACE_DIR/spans-<pid>.jsonl`` when it ends; this process waits for its
pool workers first, so the directory is complete once it has exited.
"""

import multiprocessing
import sys

import spans


def main(argv):
    trace_dir, serve_argv = argv[0], argv[1:]
    recorder = spans.Recorder(trace_dir)
    spans.install(recorder, spans.DAEMON_TARGETS)
    from repro.cli import main as cli_main

    try:
        return cli_main(serve_argv)
    finally:
        for child in multiprocessing.active_children():
            child.join(timeout=60)
        recorder.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
