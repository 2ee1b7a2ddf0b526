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
# ROLLUP: the window plus one from another year as a shard set. The
# daemon's merge must be byte-identical to the offline store-off
# rollup query of the same captures.
"${cli}" simulate --year=2021 --scale=128 --days=1 --out="${workdir}/window2021.pcap"
"${cli}" rollup query "${workdir}/window.pcap" "${workdir}/window2021.pcap" \
  --no-rollup-store --json="${workdir}/rollup_offline.jsonl" > /dev/null
# The same query served from the `.spr` store: build it, query it, and
# require the store-off bytes, v4 files and that both still load as hits.
# The files are removed afterwards, so the daemon's ROLLUP writes its own.
"${cli}" rollup build "${workdir}/window.pcap" "${workdir}/window2021.pcap" \
  > "${workdir}/rollup_store_build.txt"
grep -qxF 'rollups saved:  2' "${workdir}/rollup_store_build.txt" || {
  echo "rollup smoke: rollup build did not save both rollups" >&2
  exit 1
}
"${cli}" rollup query "${workdir}/window.pcap" "${workdir}/window2021.pcap" \
  --json="${workdir}/rollup_store.jsonl" > /dev/null
cmp "${workdir}/rollup_offline.jsonl" "${workdir}/rollup_store.jsonl" || {
  echo "rollup smoke: the store-hit rollup query diverged from the store-off one" >&2
  exit 1
}
"${cli}" rollup build "${workdir}/window.pcap" "${workdir}/window2021.pcap" \
  > "${workdir}/rollup_store_hits.txt"
for needle in 'store hits:     2' 'rollups saved:  0'; do
  grep -qxF "${needle}" "${workdir}/rollup_store_hits.txt" || {
    echo "rollup smoke: the stored rollups lack '${needle}' on reload" >&2
    exit 1
  }
done
"${cli}" rollup stat "${workdir}/window.pcap.spr" | grep -qxF 'version:        4' || {
  echo "rollup smoke: window.pcap.spr is not a version 4 rollup" >&2
  exit 1
}
rm -f "${workdir}/window.pcap.spr" "${workdir}/window2021.pcap.spr"
"${cli}" query --socket="${sock}" ROLLUP "${workdir}/window.pcap" \
  "${workdir}/window2021.pcap" > /dev/null
"${cli}" query --socket="${sock}" QUERY analyze > "${workdir}/rollup_daemon.jsonl"
cmp "${workdir}/rollup_offline.jsonl" "${workdir}/rollup_daemon.jsonl" || {
  echo "synscand smoke: daemon ROLLUP diverged from offline rollup query" >&2
  exit 1
}
# A rollup needs captures that do not overlap in time: the same window
# twice is refused, with a message naming the overlap.
if "${cli}" rollup query "${workdir}/window.pcap" "${workdir}/window.pcap" \
  --no-rollup-store > /dev/null 2> "${workdir}/rollup_overlap.txt"; then
  echo "rollup smoke: overlapping captures were merged" >&2
  exit 1
fi
grep -qF 'shards overlap in time' "${workdir}/rollup_overlap.txt" || {
  echo "rollup smoke: overlapping captures failed without the overlap message" >&2
  exit 1
}
# A capture given twice is refused before any shard runs, so even with
# the store on no `.spc` or `.spr` appears beside it.
twice="${workdir}/twice.pcap"
rm -f "${twice}" "${twice}.spc" "${twice}.spr"
cp -p "${workdir}/window.pcap" "${twice}"
if "${cli}" rollup query "${twice}" "${twice}" > /dev/null 2> "${workdir}/rollup_twice.txt"; then
  echo "rollup smoke: a capture given twice was merged" >&2
  exit 1
fi
grep -qF 'shards overlap in time' "${workdir}/rollup_twice.txt" || {
  echo "rollup smoke: a capture given twice failed without the overlap message" >&2
  exit 1
}
for sidecar in "${twice}.spc" "${twice}.spr"; do
  if [ -e "${sidecar}" ]; then
    echo "rollup smoke: the refused capture left ${sidecar}" >&2
    exit 1
  fi
done
# A capture cut short mid-record, as a killed capture process leaves it:
# `fingerprint` reports the readable prefix, exits 0 and says so on stderr.
cut_capture="${workdir}/cut.pcap"
rm -f "${cut_capture}" "${cut_capture}.spc"
head -c "$(( $(wc -c < "${workdir}/window.pcap") - 7 ))" "${workdir}/window.pcap" \
  > "${cut_capture}"
"${cli}" fingerprint "${cut_capture}" > /dev/null 2> "${workdir}/fingerprint_cut.txt" || {
  echo "fingerprint smoke: a capture cut short failed" >&2
  exit 1
}
grep -qF 'capture ends mid-record' "${workdir}/fingerprint_cut.txt" || {
  echo "fingerprint smoke: a capture cut short gave no truncation warning" >&2
  exit 1
}
# The sidecars the daemon and the CLI wrote must read back through the
# CLI: both `.spr` files the ROLLUP saved load as store hits (nothing is
# re-saved), and the `.spc` the first analyze cut verifies.
"${cli}" rollup build "${workdir}/window.pcap" "${workdir}/window2021.pcap" \
  > "${workdir}/rollup_build.txt"
for needle in 'store hits:     2' 'rollups saved:  0'; do
  grep -qxF "${needle}" "${workdir}/rollup_build.txt" || {
    echo "sidecar smoke: rollup build after ROLLUP lacks '${needle}'" >&2
    exit 1
  }
done
"${cli}" cache verify "${workdir}/window.pcap.spc" > "${workdir}/cache_verify.txt" &&
  grep -q '^valid' "${workdir}/cache_verify.txt" || {
  echo "sidecar smoke: cache verify rejected window.pcap.spc" >&2
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
