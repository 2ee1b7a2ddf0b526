#!/usr/bin/env bash
# Full verification: configure, build, test, then smoke the
# observability surface and the synscand daemon (serve/query round trip
# pinned against offline analyze output) — the same sequence CI runs.
# Usage:
#   scripts/check.sh [build-dir]
# Environment:
#   SYNSCAN_WERROR=ON|OFF   warnings-as-errors (default ON here, unlike
#                           the plain CMake default, so local runs match CI)
#   SANITIZER=thread|...    forward to -DSYNSCAN_SANITIZER
#   SYNSCAN_LINT=ON         also run scripts/lint.sh after the smoke test
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-${repo}/build-check}"
werror="${SYNSCAN_WERROR:-ON}"
sanitizer="${SANITIZER:-}"
jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

echo "== configure (${build}, WERROR=${werror}${sanitizer:+, sanitizer=${sanitizer}})"
configure_args=(-DSYNSCAN_WERROR="${werror}")
if [ -n "${sanitizer}" ]; then
  configure_args+=(-DSYNSCAN_SANITIZER="${sanitizer}")
fi
cmake -B "${build}" -S "${repo}" "${configure_args[@]}"

echo "== build"
cmake --build "${build}" -j "${jobs}"

echo "== test"
ctest --test-dir "${build}" --output-on-failure -j "${jobs}"

echo "== metrics smoke"
workdir="${build}/check-smoke"
mkdir -p "${workdir}"
cli="${build}/src/cli/synscan"
"${cli}" simulate --year=2020 --scale=128 --days=1 --out="${workdir}/window.pcap"
"${cli}" analyze "${workdir}/window.pcap" --metrics="${workdir}/metrics.json"
for needle in '"schema":"synscan.run_report/1"' 'sensor.scan_probes' \
              'tracker.probes' 'parallel.items' '"timings"'; do
  grep -qF "${needle}" "${workdir}/metrics.json" || {
    echo "metrics smoke: missing ${needle} in metrics.json" >&2
    exit 1
  }
done

echo "== synscand smoke"
# Daemon end to end: serve the capture analyzed above, drive the full
# command set through the query client, and check the daemon's QUERY
# output is byte-identical to the offline analyze --json export
# (docs/SYNSCAND.md). Reports do not depend on the worker count, so the
# daemon runs at its default --workers against a serial offline run.
sock="${workdir}/synscand.sock"
"${cli}" analyze "${workdir}/window.pcap" --workers=1 \
  --json="${workdir}/offline.jsonl" > /dev/null
"${cli}" serve --socket="${sock}" --capture="${workdir}/window.pcap" &
serve_pid=$!
trap '{ kill "${serve_pid}" 2>/dev/null || true; }' EXIT
for _ in $(seq 1 50); do
  [ -S "${sock}" ] && break
  sleep 0.1
done
"${cli}" query --socket="${sock}" PING
"${cli}" query --socket="${sock}" STATUS | grep -qF '"state":"ready"' || {
  echo "synscand smoke: STATUS did not report a resident capture" >&2
  exit 1
}
"${cli}" query --socket="${sock}" QUERY analyze > "${workdir}/daemon.jsonl"
cmp "${workdir}/offline.jsonl" "${workdir}/daemon.jsonl" || {
  echo "synscand smoke: daemon QUERY analyze diverged from offline --json" >&2
  exit 1
}
"${cli}" query --socket="${sock}" SHUTDOWN
wait "${serve_pid}"
trap - EXIT

if [ "${SYNSCAN_LINT:-OFF}" = "ON" ]; then
  echo "== lint"
  "${repo}/scripts/lint.sh"
fi
echo "== OK"
