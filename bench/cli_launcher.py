"""Run ``hrpairs.cli.main`` with the benchmark's timing wrappers installed.

    python3 bench/cli_launcher.py SPANS_OUT VERB [ARGS...]

The command's spans and work counts are written to SPANS_OUT as JSON for
the parent benchmark process to merge; the exit code is the command's own.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import hrpairs.cli  # noqa: E402
import spans  # noqa: E402


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    tracer.recording = True
    try:
        return hrpairs.cli.main(argv)
    finally:
        tracer.recording = False
        restore()
        tracer.dump_child(out)


if __name__ == "__main__":
    raise SystemExit(main())
