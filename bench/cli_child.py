"""Traced stand-in for `python -m disctrace.cli`, used by the traced rounds
of the `cli` workload.

    python3 bench/cli_child.py SPANS.npz ARG...

runs `disctrace.cli.main([ARG...])` with every public function traced,
writes the spans to SPANS.npz and exits with the command's exit code.
"""

import sys

from spans import Recorder

import disctrace.cli


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    recorder.install()
    try:
        code = disctrace.cli.main(argv)
    finally:
        recorder.uninstall()
        recorder.save(path)
    return code


if __name__ == "__main__":
    sys.exit(main())
