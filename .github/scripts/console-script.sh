#!/usr/bin/env bash
# Exit-code checks of the installed disctrace console script, with the peak
# resident memory of a few cold commands printed for information.  Run it
# after `pip install -e .`; it exits 1 if any command's exit code differs
# from the expected one.  Scratch files go to $RUNNER_TEMP, or to a fresh
# temporary directory where that is unset.
set +e  # every exit code is checked below, including the expected 1s
tmp=${RUNNER_TEMP:-$(mktemp -d)}
holo="$tmp/holomorphic.json"
echo '{"terms": [{"alpha": [2, 1], "beta": [0, 0], "re": 1.0, "im": 0.0}]}' > "$holo"
fail=0
# peak resident memory, printed for information only: a cold import that
# compiles disctrace without writing bytecode, the case the benchmark
# measures; it runs before any command here can write a __pycache__
PYTHONDONTWRITEBYTECODE=1 python -c 'import os, subprocess, sys; p = subprocess.Popen([sys.executable, "-c", "import disctrace"]); _, status, ru = os.wait4(p.pid, 0); print(f"peak RSS {ru.ru_maxrss / 1024:.1f} MiB, exit {os.waitstatus_to_exitcode(status)}: cold import disctrace, no bytecode cache")'
expect() {  # expect CODE COMMAND...: run the command, compare its exit code
  want=$1; shift
  "$@" > /dev/null; got=$?
  echo "exit $got (want $want): $*"
  if [ "$got" -ne "$want" ]; then fail=1; fi
}
expect 0 disctrace lemmas --seed 0 --json-only
expect 0 disctrace kernel --points 0,0 0.5,0 0,0.5 --degree 4 --discs 60 --seed 7 --json-only
# n_min(12) = 45 at the standard scene and seed 7: 44 discs per point fall short
expect 0 disctrace kernel --points 0,0 0.5,0 0,0.5 --degree 12 --discs 45 --seed 7 --json-only
expect 1 disctrace kernel --points 0,0 0.5,0 0,0.5 --degree 12 --discs 44 --seed 7 --json-only
peak() {  # peak ARG...: print the peak resident memory of a cold disctrace ARG...
  python -c 'import os, subprocess, sys; p = subprocess.Popen(["disctrace", *sys.argv[1:]], stdout=subprocess.DEVNULL); _, status, ru = os.wait4(p.pid, 0); print(f"peak RSS {ru.ru_maxrss / 1024:.1f} MiB, exit {os.waitstatus_to_exitcode(status)}: disctrace", *sys.argv[1:])' "$@"
}
# peak resident memory, printed for information only: the passing
# degree-12 run, and the cold kernel, test and extend commands
peak kernel --points 0,0 0.5,0 0,0.5 --degree 12 --discs 45 --seed 7 --json-only
peak kernel --points 0,0 0.5,0 0,0.5 --degree 4 --discs 60 --seed 7 --json-only
peak test --function "$holo" --point 0.3,0.2
peak extend --function "$holo" --points 0,0 0.5,0 0,0.5 --at 0.2,0.1
expect 0 disctrace test --function "$holo" --point 0.3,0.2
expect 0 disctrace extend --function "$holo" --points 0,0 0.5,0 0,0.5 --at 0.2,0.1
# a usage error: a coordinate too large to square is outside the ball.
# The other exit codes are checked through disctrace.cli.main in
# tests/test_cli.py, which the tier-1 step of the same job runs.
expect 2 disctrace test --function "$holo" --point 1e200,0
exit "$fail"
