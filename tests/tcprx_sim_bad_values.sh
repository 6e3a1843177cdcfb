#!/bin/sh
# Checks that tcprx_sim refuses each bad value at the command line with exactly the
# expected message and exit status 2, rather than aborting in the stack or printing a
# plausible-looking result. The range messages are the testbed's (ConfigErrors in
# src/sim/testbed.h); the name and number messages are the tool's own.
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

# expect_unknown <flag> <tcprx_sim args...>: refused as an unknown flag, exit status 2.
expect_unknown() {
  flag=$1
  shift
  out=$("$sim" "$@" 2>&1)
  status=$?
  if [ "$status" -ne 2 ] || [ "$(echo "$out" | head -n 1)" != "unknown flag: --$flag" ]; then
    echo "FAIL: tcprx_sim $*"
    echo "  want exit 2: unknown flag: --$flag"
    echo "  got exit $status: $(echo "$out" | head -n 1)"
    failures=$((failures + 1))
  fi
}

expect "--cores must be between 1 and 128" latency --cores=0
expect "--cores must be between 1 and 128" latency --cores=129
expect "--mss must be between 1 and 65455" stream --mss=0
expect "--mss must be between 1 and 65455" stream --mss=65456
expect "--mss must be between 1 and 65455" stream --mss=100000
expect "--nics must be between 1 and 256" stream --nics=0
expect "--nics must be between 1 and 256" stream --nics=257
expect "--conns-per-nic must be >= 1" stream --conns-per-nic=0
expect "--hardware-lro needs --aggregation or --optimized" stream --hardware-lro
expect "--measure-ms must be >= 1" stream --measure-ms=0
expect "--measure-ms must be >= 1" latency --measure-ms=0
for fault in drop reorder duplicate corrupt; do
  expect "--$fault must be between 0 and 1" stream --$fault=1.5
  expect "--$fault must be between 0 and 1" stream --$fault=-0.1
done
expect "--corrupt must be between 0 and 1" stream --corrupt=nan
expect "--drop must be between 0 and 1" latency --drop=2

# Burst loss drops the last --burst-drop-length frames of each period, so a longer
# burst, or a length with no period, would silently run lossless.
expect "--burst-drop-length must be at most --burst-drop-period" \
  stream --nics=1 --burst-drop-period=3 --burst-drop-length=5 --json
expect "--burst-drop-length must be at most --burst-drop-period" \
  stream --burst-drop-length=5

# A time whose nanoseconds do not fit 64 bits would wrap to a short window.
expect "--measure-ms must be at most 18446744073709, not 18446744073710" \
  stream --nics=1 --warmup-ms=10 --measure-ms=18446744073710 --json
expect "--warmup-ms must be at most 18446744073709, not 18446744073710" \
  latency --warmup-ms=18446744073710
expect "--reorder-delay-us must be at most 18446744073709551, not 18446744073709552" \
  stream --reorder=0.1 --reorder-delay-us=18446744073709552
expect "--warmup-ms plus --measure-ms must fit 64 bits of nanoseconds" \
  stream --warmup-ms=10 --measure-ms=18446744073709

# A link rate whose bits per second would not fit 64 bits is refused, not wrapped.
expect "--link-gbps must be between 1 and 1000000" stream --link-gbps=0
expect "--link-gbps must be between 1 and 1000000" stream --link-gbps=1000001
expect "--link-gbps must be between 1 and 1000000" stream --link-gbps=18446744074 --drop=0.1
expect "--link-gbps must be between 1 and 1000000" latency --link-gbps=18446744073709551615

# Client c connects from port 10000 + c, which must fit 16 bits.
expect "--conns-per-nic must be at most 55536" stream --conns-per-nic=55537

# Stream-only flags are unknown to latency, which would otherwise ignore them.
expect_unknown mss latency --mss=9000 --json
expect_unknown conns-per-nic latency --conns-per-nic=7 --json
expect_unknown nics latency --nics=3 --json

# --json's stdout is one JSON object, so the text reports are refused with it.
for report in trace connections profile harness-stats; do
  expect "--$report is a text report and cannot be combined with --json" \
    stream --json --$report
done

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
if ! "$sim" stream --link-gbps=1000000 --nics=1 --warmup-ms=1 --measure-ms=1 --json \
  > /dev/null; then
  echo "FAIL: --link-gbps=1000000 should run"
  failures=$((failures + 1))
fi

[ "$failures" -eq 0 ]
