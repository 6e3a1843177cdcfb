#!/bin/sh
# Checks that tcprx_sim refuses each bad value at the command line with exactly the
# expected message and exit status 2, rather than aborting in the stack or printing a
# plausible-looking result.
#
#   tests/tcprx_sim_bad_values.sh build/tools/tcprx_sim

set -u

if [ $# -ne 1 ]; then
  echo "usage: $0 <tcprx_sim>" >&2
  exit 2
fi
sim=$1
failures=0

# expect <message> <tcprx_sim args...>
expect() {
  want=$1
  shift
  out=$("$sim" "$@" 2>&1)
  status=$?
  if [ "$status" -ne 2 ] || [ "$out" != "$want" ]; then
    echo "FAIL: tcprx_sim $*"
    echo "  want exit 2: $want"
    echo "  got exit $status: $out"
    failures=$((failures + 1))
  fi
}

expect "--mss must be between 1 and 65455" stream --mss=0
expect "--mss must be between 1 and 65455" stream --mss=65456
expect "--mss must be between 1 and 65455" stream --mss=100000
expect "--nics must be between 1 and 256" stream --nics=0
expect "--nics must be between 1 and 256" stream --nics=257
expect "--conns-per-nic must be >= 1" stream --conns-per-nic=0
expect "--measure-ms must be >= 1" stream --measure-ms=0
expect "--measure-ms must be >= 1" latency --measure-ms=0
for fault in drop reorder duplicate corrupt; do
  expect "--$fault must be between 0 and 1" stream --$fault=1.5
  expect "--$fault must be between 0 and 1" stream --$fault=-0.1
done
expect "--corrupt must be between 0 and 1" stream --corrupt=nan

# A value that is not wholly a number is refused, not read up to its first bad char.
expect "--nics must be a whole number, not '5x'" stream --nics=5x
expect "--limit must be a whole number, not 'abc'" stream --optimized --limit=abc
expect "--seed must be a whole number, not '-1'" stream --seed=-1
expect "--drop must be a number, not '0.01x'" stream --drop=0.01x

# The largest accepted values still run.
if ! "$sim" stream --mss=65455 --nics=1 --warmup-ms=1 --measure-ms=1 --json > /dev/null; then
  echo "FAIL: --mss=65455 should run"
  failures=$((failures + 1))
fi
if ! "$sim" stream --nics=256 --drop=1 --warmup-ms=1 --measure-ms=1 --json > /dev/null; then
  echo "FAIL: --nics=256 --drop=1 should run"
  failures=$((failures + 1))
fi

[ "$failures" -eq 0 ]
