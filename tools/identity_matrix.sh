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
# {no loss, random drop, reorder + duplicate + corrupt, burst drop}, all at the default
# full prefetch. Besides it: the two other prefetch modes (none, partial) on the UP
# baseline and the Xen optimized stack, hardware LRO with random drop and with
# corruption (frames whose flipped header bits the host cannot parse), a latency run
# per system and stack, the text reports (--profile, --connections with its
# per-connection TCP states, and two latency reports without --json, one of them on a
# lossy link, whose echo server sees dropped, reordered and duplicated requests), a
# --trace run, an 80-connection SMP run, Figure 13's optimized 8-core point (400
# connections on --link-gbps=10 links) with a short window, a --fill-checksums run with
# its --pcap capture, an optimized lossy run (drop + reorder) with its --pcap capture and the
# default zero TCP checksums (the bytes of SYNs, data, retransmits and template ACKs as
# the frame writer lays them out), and the receive checksum paths: corrupted frames with
# real checksums at 1 and 4 cores (the NIC flags them, the aggregator bypasses them, the
# stack's software verify drops them), and aggregation without rx checksum offload.
# Last, a UP baseline stream on 10 Gb/s links with reordered and duplicated frames: its
# host polls nearly all the time, so almost every data frame is pulled off the wire
# while a driver polls, overtaking frames included.

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

for prefetch in none partial; do
  # shellcheck disable=SC2086
  run "prefetch-$prefetch-up-base" stream --prefetch=$prefetch $window --json
  # shellcheck disable=SC2086
  run "prefetch-$prefetch-xen-opt" stream --system=xen --optimized --prefetch=$prefetch \
    $window --json
done
# shellcheck disable=SC2086
run hardware-lro-up-opt-drop stream --optimized --hardware-lro --drop=0.01 --seed=3 \
  $window --json
# shellcheck disable=SC2086
run hardware-lro-up-opt-corrupt stream --optimized --hardware-lro --corrupt=0.01 --seed=7 \
  $window --json

# shellcheck disable=SC2086
run profile-up-opt stream --optimized --drop=0.01 --seed=3 $window --profile
# shellcheck disable=SC2086
run connections-smp-4 stream --system=smp --optimized --cores=4 --conns-per-nic=2 $window \
  --connections
run latency-xen-opt-text latency --system=xen --optimized
run latency-up-opt-lossy latency --optimized --drop=0.01 --reorder=0.05 --duplicate=0.02 --seed=7
run trace-up-agg stream --aggregation --limit=8 --nics=2 --measure-ms=5 --trace
# shellcheck disable=SC2086
run smp-80conn stream --system=smp --optimized --cores=4 --conns-per-nic=16 $window --json
run fig13-smp-8-opt stream --system=smp --optimized --cores=8 --conns-per-nic=80 --link-gbps=10 \
  --warmup-ms=50 --measure-ms=20 --json
run pcap-fill-checksums stream --optimized --fill-checksums --nics=1 --warmup-ms=5 \
  --measure-ms=5 --pcap=capture.pcap --json
run pcap-lossy stream --optimized --drop=0.01 --reorder=0.02 --seed=3 --nics=1 \
  --warmup-ms=5 --measure-ms=5 --pcap=capture-lossy.pcap --json
# shellcheck disable=SC2086
run csum-corrupt-1 stream --optimized --fill-checksums --corrupt=0.002 --seed=7 $window --json
# shellcheck disable=SC2086
run csum-corrupt-4 stream --optimized --fill-checksums --corrupt=0.002 --seed=7 --cores=4 \
  $window --json
# shellcheck disable=SC2086
run agg-no-rx-csum-offload stream --aggregation --no-rx-csum-offload $window --json
# shellcheck disable=SC2086
run up-base-10g-mixed stream --system=up --link-gbps=10 --reorder=0.02 --duplicate=0.01 \
  --seed=5 $window --json
