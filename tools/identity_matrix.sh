#!/bin/sh
# Runs a fixed matrix of tcprx_sim configurations and writes each run's output (with
# its exit status) to its own file, so two builds can be compared with `diff -r`:
#
#   tools/identity_matrix.sh build-base/tools/tcprx_sim out-base
#   tools/identity_matrix.sh build/tools/tcprx_sim out-head
#   diff -r out-base out-head
#
# A change that claims to leave behaviour alone must leave every file identical.
#
# The stream matrix is {up, smp, xen} x {baseline, optimized, aggregation,
# ack-offload + aggregation at limit 8} x {1 core, 4 cores, 4 cores without RSS} x
# {no loss, random drop, reorder + duplicate + corrupt, burst drop}. Besides it: a
# latency run per system and stack, the text report with --profile, a --trace run, an
# 80-connection SMP run, a --fill-checksums run with its --pcap capture, and the
# receive checksum paths: corrupted frames with real checksums at 1 and 4 cores (the NIC
# flags them, the aggregator bypasses them, the stack's software verify drops them),
# and aggregation without rx checksum offload.

set -eu

if [ $# -ne 2 ]; then
  echo "usage: $0 <tcprx_sim> <outdir>" >&2
  exit 2
fi
sim=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
mkdir -p "$2"
out=$(cd "$2" && pwd)

# 200 ms of warmup lets the minimum RTO fire inside the lossy runs.
window="--warmup-ms=200 --measure-ms=300"

# run <name> <tcprx_sim args...>: stdout and stderr, then the exit status.
run() {
  name=$1
  shift
  status=0
  (cd "$out" && "$sim" "$@") > "$out/$name.txt" 2>&1 || status=$?
  echo "exit $status" >> "$out/$name.txt"
}

for system in up smp xen; do
  for stack in base opt agg ackoff; do
    case $stack in
      base) stack_flags="" ;;
      opt) stack_flags="--optimized" ;;
      agg) stack_flags="--aggregation" ;;
      ackoff) stack_flags="--ack-offload --aggregation --limit=8" ;;
    esac
    for cores in 1 4 4norss; do
      case $cores in
        1) core_flags="" ;;
        4) core_flags="--cores=4" ;;
        4norss) core_flags="--cores=4 --no-rss" ;;
      esac
      for fault in clean drop mixed burst; do
        case $fault in
          clean) fault_flags="" ;;
          drop) fault_flags="--drop=0.01 --seed=3" ;;
          mixed) fault_flags="--reorder=0.02 --duplicate=0.01 --corrupt=0.005 --seed=5" ;;
          burst) fault_flags="--burst-drop-period=500 --burst-drop-length=3" ;;
        esac
        # shellcheck disable=SC2086  # the flag groups are meant to split
        run "stream-$system-$stack-$cores-$fault" stream --system=$system \
          $stack_flags $core_flags $fault_flags $window --json
      done
    done
  done
  run "latency-$system-base" latency --system=$system --json
  run "latency-$system-opt" latency --system=$system --optimized --json
done

# shellcheck disable=SC2086
run profile-up-opt stream --optimized --drop=0.01 --seed=3 $window --profile
run trace-up-agg stream --aggregation --limit=8 --nics=2 --measure-ms=5 --trace
# shellcheck disable=SC2086
run smp-80conn stream --system=smp --optimized --cores=4 --conns-per-nic=16 $window --json
run pcap-fill-checksums stream --optimized --fill-checksums --nics=1 --warmup-ms=5 \
  --measure-ms=5 --pcap=capture.pcap --json
# shellcheck disable=SC2086
run csum-corrupt-1 stream --optimized --fill-checksums --corrupt=0.002 --seed=7 $window --json
# shellcheck disable=SC2086
run csum-corrupt-4 stream --optimized --fill-checksums --corrupt=0.002 --seed=7 --cores=4 \
  $window --json
# shellcheck disable=SC2086
run agg-no-rx-csum-offload stream --aggregation --no-rx-csum-offload $window --json
