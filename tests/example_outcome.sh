#!/bin/sh
# Runs one example and checks that it exits 0 and prints its stated outcome: exactly
# <count> lines that contain <text>.
#
#   tests/example_outcome.sh build/examples/quickstart 1 'aggr  7.00'

set -u

if [ $# -ne 3 ]; then
  echo "usage: $0 <example> <count> <text>" >&2
  exit 2
fi
out=$("$1")
status=$?
if [ "$status" -ne 0 ]; then
  echo "FAIL: $1 exited $status"
  printf '%s\n' "$out"
  exit 1
fi
found=$(printf '%s\n' "$out" | grep -cF -- "$3")
if [ "$found" -ne "$2" ]; then
  echo "FAIL: $1 printed '$3' on $found lines, want $2"
  printf '%s\n' "$out"
  exit 1
fi
