#!/usr/bin/env bash
# CI-style verification: Release build + full ctest, then a ThreadSanitizer
# build exercising the nec::runtime concurrency tests, plus an optional
# bench smoke step that runs the Table II harness briefly and fails on
# malformed output. The hot-path gates (0 mallocs per chunk on both
# runtime arms, disabled tracing within 2 % of a chunk) are test_hot_path
# in the full ctest run; serving throughput and latency are measured by
# benchmark/run.sh.
#
#   tools/check.sh                 # release: all tests; tsan: runtime tests
#   CHECK_TSAN_ALL=1 tools/check.sh  # run the ENTIRE suite under TSan (slow)
#   CHECK_BENCH_SMOKE=1 tools/check.sh  # also smoke bench_table2_runtime
#   CHECK_FAULTS=1 tools/check.sh    # also run the fault-injection stress
#                                    # suite and the conv/selector tests
#                                    # under ASan+UBSan (the TSan run
#                                    # above already covers it for races)
#   CHECK_OBS=1 tools/check.sh       # also boot a necd shard with
#                                    # --metrics-port, drive it with
#                                    # `necctl loadgen`, scrape /metrics +
#                                    # /healthz + /sessions, and validate
#                                    # the Chrome trace it dumps on SIGTERM
#   CHECK_NET=1 tools/check.sh       # also run the wire-codec + v2 payload
#                                    # fuzz tests under ASan+UBSan, boot an
#                                    # AUTHENTICATED 2-shard fleet + router
#                                    # on loopback, push a loadgen smoke
#                                    # through the router while draining one
#                                    # shard mid-traffic (zero faults
#                                    # required), prove a bad-secret probe
#                                    # is rejected and counted by the
#                                    # router and by a shard, scrape
#                                    # /metrics from all three daemons
#   CHECK_FLEET_OBS=1 tools/check.sh # also boot an authed 2-shard fleet +
#                                    # router with tracing armed, push a
#                                    # loadgen through it, assert the
#                                    # router's /fleet.json merges the
#                                    # member scrapes exactly (histogram
#                                    # sample counts add), render one
#                                    # `necctl top` frame, merge /trace
#                                    # pulls + the client dump with
#                                    # `necctl trace` and demand at least
#                                    # one cross-process flow
#   CHECK_JOBS=8 tools/check.sh      # override build/test parallelism
#
# Both builds configure with NEC_NATIVE_ARCH=OFF so the script behaves the
# same inside CI containers and on developer machines. Every ctest run also
# writes <build dir>/ctest.xml (JUnit), which keeps a failed test binary's
# output after the console log has scrolled away.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${CHECK_JOBS:-$(nproc)}"
BENCH_SMOKE="${CHECK_BENCH_SMOKE:-0}"
FAULTS="${CHECK_FAULTS:-0}"
OBS="${CHECK_OBS:-0}"
NET="${CHECK_NET:-0}"
FLEET_OBS="${CHECK_FLEET_OBS:-0}"
STEPS=4
[[ "${BENCH_SMOKE}" == "1" ]] && STEPS=$((STEPS + 1))
[[ "${FAULTS}" == "1" ]] && STEPS=$((STEPS + 1))
[[ "${OBS}" == "1" ]] && STEPS=$((STEPS + 1))
[[ "${NET}" == "1" ]] && STEPS=$((STEPS + 1))
[[ "${FLEET_OBS}" == "1" ]] && STEPS=$((STEPS + 1))
STEP=0
step() { STEP=$((STEP + 1)); echo "== [${STEP}/${STEPS}] $1 =="; }

step "configure + build: Release"
cmake -B build-check-release -S . \
  -DCMAKE_BUILD_TYPE=Release \
  -DNEC_NATIVE_ARCH=OFF \
  -DNEC_BUILD_BENCH="$([[ "${BENCH_SMOKE}" == "1" ]] && echo ON || echo OFF)" \
  -DNEC_BUILD_EXAMPLES="$([[ "${OBS}" == "1" || "${NET}" == "1" || "${FLEET_OBS}" == "1" ]] && echo ON || echo OFF)"
cmake --build build-check-release -j "${JOBS}"

step "ctest: Release (full suite)"
ctest --test-dir build-check-release --output-on-failure -j "${JOBS}" \
  --output-junit "${PWD}/build-check-release/ctest.xml"

step "configure + build: Release + ThreadSanitizer"
cmake -B build-check-tsan -S . \
  -DCMAKE_BUILD_TYPE=Release \
  -DNEC_NATIVE_ARCH=OFF \
  -DNEC_SANITIZE=thread \
  -DNEC_BUILD_BENCH=OFF -DNEC_BUILD_EXAMPLES=OFF
cmake --build build-check-tsan -j "${JOBS}"

step "ctest: TSan"
if [[ "${CHECK_TSAN_ALL:-0}" == "1" ]]; then
  ctest --test-dir build-check-tsan --output-on-failure -j "${JOBS}" \
    --output-junit "${PWD}/build-check-tsan/ctest.xml"
else
  # The concurrency-bearing tests (test_runtime, test_runtime_faults,
  # test_streaming, test_obs — the trace rings claim wait-freedom —
  # test_net, whose servers/router/prober all run their own threads, and
  # test_modulation, whose sessions race to build the shared carrier
  # table); the rest of the suite is single-threaded and already covered
  # by step 2 (CHECK_TSAN_ALL=1 runs everything).
  ctest --test-dir build-check-tsan --output-on-failure \
    -R 'test_runtime|test_streaming|test_obs|test_net|test_modulation' \
    --output-junit "${PWD}/build-check-tsan/ctest.xml"
fi

if [[ "${FAULTS}" == "1" ]]; then
  step "ASan+UBSan: fault-injection stress, conv and selector tests"
  # The containment paths move exception objects and purge queues across
  # threads; ASan+UBSan catches lifetime/UB bugs the TSan run (which
  # already includes test_runtime_faults) cannot see. test_layers and
  # test_selector run here too: the register-tiled conv reads into the
  # padded slab's right edge and stores partial vectors at row ends, so an
  # off-by-one there is an over-read or over-write the Release run cannot
  # see. The fault suite runs five times: its cases race injected
  # latencies against the dispatcher, so a timing-dependent case must
  # fail here rather than pass by luck once.
  cmake -B build-check-asan -S . \
    -DCMAKE_BUILD_TYPE=Release \
    -DNEC_NATIVE_ARCH=OFF \
    -DNEC_SANITIZE=address,undefined \
    -DNEC_BUILD_BENCH=OFF -DNEC_BUILD_EXAMPLES=OFF
  cmake --build build-check-asan -j "${JOBS}" \
    --target test_runtime_faults test_layers test_selector
  ctest --test-dir build-check-asan --output-on-failure \
    -R 'test_runtime_faults' --repeat until-fail:5 \
    --output-junit "${PWD}/build-check-asan/ctest-faults.xml"
  ctest --test-dir build-check-asan --output-on-failure \
    -R 'test_layers|test_selector' \
    --output-junit "${PWD}/build-check-asan/ctest.xml"
fi

if [[ "${BENCH_SMOKE}" == "1" ]]; then
  step "bench smoke: Table II JSON harness"
  # Shrunken workload (NEC_BENCH_SMOKE) — this validates wiring and the
  # BENCH_hotpath.json contract, not performance. Numbers in the smoke
  # file are flagged "smoke": true and must not be used as baselines.
  SMOKE_JSON="build-check-release/BENCH_smoke.json"
  rm -f "${SMOKE_JSON}"
  NEC_BENCH_SMOKE=1 NEC_BENCH_JSON="${SMOKE_JSON}" \
    ./build-check-release/bench/bench_table2_runtime \
    --benchmark_filter=BM_NONE
  python3 - "${SMOKE_JSON}" <<'EOF'
import json, sys
t2 = json.load(open(sys.argv[1]))["table2_modules"]
assert "selector_nec_ms" in t2 and "total_ms" in t2, t2
print("bench smoke: table2_modules ok")
EOF
fi

if [[ "${OBS}" == "1" ]]; then
  step "observability: live endpoints + trace dump"
  OBS_DIR="build-check-release/obs-check"
  rm -rf "${OBS_DIR}" && mkdir -p "${OBS_DIR}"

  # Boot a shard with ephemeral wire and metrics ports; it prints both on
  # stdout. --max-batch 2 routes chunks through the batcher, whose flow
  # links the trace check below demands. The untrained tiny model keeps
  # the stage hermetic: the standard model would first train for minutes
  # without a cache.
  ./build-check-release/examples/necd --listen 0 --model tiny \
    --max-batch 2 --metrics-port 0 \
    --trace-out "${OBS_DIR}/trace.json" \
    > "${OBS_DIR}/necd.out" 2> "${OBS_DIR}/necd.err" &
  NECD_PID=$!
  trap 'kill "${NECD_PID}" 2>/dev/null || true' EXIT

  for _ in $(seq 1 120); do
    grep -q 'metrics listening' "${OBS_DIR}/necd.out" 2>/dev/null && break
    kill -0 "${NECD_PID}" 2>/dev/null || break
    sleep 1
  done
  WIRE="$(grep -o 'wire listening on 127.0.0.1:[0-9]*' "${OBS_DIR}/necd.out" \
          | grep -o '[0-9]*$')"
  PORT="$(grep -o 'http://127.0.0.1:[0-9]*' "${OBS_DIR}/necd.out" \
          | grep -o '[0-9]*$')"
  [[ -n "${WIRE}" && -n "${PORT}" ]] || {
    echo "necd never bound its wire and metrics ports"; exit 1; }

  # Two wire sessions streamed to completion; loadgen exits non-zero if
  # any faults. The shard keeps every session it opened, so /sessions
  # below still lists them.
  ./build-check-release/examples/necctl loadgen \
    --endpoints "127.0.0.1:${WIRE}" --sessions 2 --json \
    > "${OBS_DIR}/loadgen.json"

  # Scrape the shard (no curl dependency in CI images).
  python3 - "${PORT}" <<'EOF'
import json, sys, urllib.request
port = sys.argv[1]
def get(path):
    r = urllib.request.urlopen(f"http://127.0.0.1:{port}{path}", timeout=10)
    return r.status, r.read().decode()
status, health = get("/healthz")
assert status == 200 and json.loads(health)["status"] == "ok", health
status, metrics = get("/metrics")
assert status == 200, status
for needle in ("# TYPE nec_chunks_processed_total counter",
               "nec_chunk_latency_seconds_bucket{le=",
               "nec_chunk_latency_seconds_count",
               "nec_faults_total{category="):
    assert needle in metrics, f"missing {needle!r} in /metrics"
status, sessions = get("/sessions")
assert status == 200 and json.loads(sessions)["sessions"], sessions
print("obs check: /healthz + /metrics (histogram buckets) + /sessions ok")
EOF

  # necctl must render the same scrape as a table.
  ./build-check-release/examples/necctl stats \
    --url "http://127.0.0.1:${PORT}" | grep -q nec_chunks_processed_total

  kill -TERM "${NECD_PID}"
  wait "${NECD_PID}"
  trap - EXIT

  # The SIGINT/SIGTERM drain path dumps a Chrome trace; validate it is
  # loadable JSON with per-chunk stage spans and batch flow links.
  python3 - "${OBS_DIR}/trace.json" <<'EOF'
import json, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
phases = {e["ph"] for e in events}
names = {e.get("name") for e in events}
assert "X" in phases, "no spans in trace"
assert {"s", "f"} <= phases, "no batch flow links in trace"
# A fully-batched run records the _batch variant of the shadow span.
assert names & {"pipeline.generate_shadow", "pipeline.generate_shadow_batch"}, \
    "missing pipeline.generate_shadow[_batch] span"
for span in ("dsp.stft", "dsp.istft", "channel.modulate_am", "runtime.batch"):
    assert span in names, f"missing span {span!r}"
print(f"obs check: trace well-formed, {len(events)} events,"
      f" {len(names)} distinct names")
EOF
fi

if [[ "${NET}" == "1" ]]; then
  step "networked serving: ASan codec fuzz + authed 2-shard fleet + drain"

  # The frame-codec and v2-payload fuzz suites assert typed errors and no
  # over-read on random/truncated/corrupted input (auth, status, and
  # snapshot frames included); ASan turns any over-read the assertions
  # miss into a hard failure. Auth.* covers SipHash KATs + tag binding.
  cmake -B build-check-asan -S . \
    -DCMAKE_BUILD_TYPE=Release \
    -DNEC_NATIVE_ARCH=OFF \
    -DNEC_SANITIZE=address,undefined \
    -DNEC_BUILD_BENCH=OFF -DNEC_BUILD_EXAMPLES=OFF
  cmake --build build-check-asan -j "${JOBS}" --target test_net
  ./build-check-asan/tests/test_net \
    --gtest_filter='Auth.*:Crc32.*:FrameCodec.*:PayloadReader.*:SocketIo.*'

  NET_DIR="build-check-release/net-check"
  rm -rf "${NET_DIR}" && mkdir -p "${NET_DIR}"
  NECD="./build-check-release/examples/necd"
  NECCTL="./build-check-release/examples/necctl"

  # Two tiny-model shards + the router, all on ephemeral loopback ports
  # grepped from stdout, and ALL requiring the v2 shared-secret handshake.
  # Tiny keeps the stage hermetic (no training cache).
  SECRET="fleet-check-secret"
  "${NECD}" --listen 0 --model tiny --metrics-port 0 --workers 2 \
    --secret "${SECRET}" \
    > "${NET_DIR}/shard1.out" 2> "${NET_DIR}/shard1.err" &
  SHARD1_PID=$!
  "${NECD}" --listen 0 --model tiny --metrics-port 0 --workers 2 \
    --secret "${SECRET}" \
    > "${NET_DIR}/shard2.out" 2> "${NET_DIR}/shard2.err" &
  SHARD2_PID=$!
  trap 'kill "${SHARD1_PID}" "${SHARD2_PID}" "${ROUTER_PID:-}" 2>/dev/null || true' EXIT
  for out in shard1.out shard2.out; do
    for _ in $(seq 1 60); do
      grep -q 'wire listening' "${NET_DIR}/${out}" 2>/dev/null && \
        grep -q 'metrics listening' "${NET_DIR}/${out}" 2>/dev/null && break
      sleep 1
    done
  done
  port_of() { grep -o "${2}" "${NET_DIR}/${1}" | grep -o '[0-9]*$' | head -1; }
  P1="$(port_of shard1.out 'wire listening on 127.0.0.1:[0-9]*')"
  M1="$(port_of shard1.out 'http://127.0.0.1:[0-9]*')"
  P2="$(port_of shard2.out 'wire listening on 127.0.0.1:[0-9]*')"
  M2="$(port_of shard2.out 'http://127.0.0.1:[0-9]*')"
  [[ -n "${P1}" && -n "${M1}" && -n "${P2}" && -n "${M2}" ]] || {
    echo "shards never bound their ports"; exit 1; }

  "${NECD}" --route "127.0.0.1:${P1}:${M1},127.0.0.1:${P2}:${M2}" \
    --metrics-port 0 --secret "${SECRET}" \
    > "${NET_DIR}/router.out" 2> "${NET_DIR}/router.err" &
  ROUTER_PID=$!
  for _ in $(seq 1 60); do
    grep -q 'routing on' "${NET_DIR}/router.out" 2>/dev/null && \
      grep -q 'metrics listening' "${NET_DIR}/router.out" 2>/dev/null && break
    sleep 1
  done
  RP="$(port_of router.out 'routing on 127.0.0.1:[0-9]*')"
  RM="$(port_of router.out 'http://127.0.0.1:[0-9]*')"
  [[ -n "${RP}" && -n "${RM}" ]] || { echo "router never bound"; exit 1; }

  # A probe with the wrong secret must be rejected as its own failure
  # class — auth_rejected, not refused and not a timeout — and counted on
  # /metrics. The router and the shards run one handshake gate; probe it
  # on both faces: the router, and shard 2's wire port directly.
  for face in "router:${RP}" "shard2:${P2}"; do
    "${NECCTL}" loadgen --endpoints "127.0.0.1:${face#*:}" \
      --secret "wrong-secret" \
      --sessions 1 --connections 1 --chunks 1 --streams 1 --json \
      > "${NET_DIR}/badsecret-${face%%:*}.json" && {
        echo "bad-secret loadgen at ${face} unexpectedly succeeded"
        exit 1; } || true
    python3 - "${NET_DIR}/badsecret-${face%%:*}.json" "${face%%:*}" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["ok"] is False, r
assert r["auth_rejected"] is True, f"not flagged as auth rejection: {r}"
print(f"net check: bad-secret probe at the {sys.argv[2]} rejected as"
      " auth_rejected")
EOF
  done

  # Authenticated loadgen through the router, with a zero-fault draining
  # reshard of shard 1 kicked off mid-traffic: every session must still
  # complete — migrated sessions continue on the surviving shard.
  "${NECCTL}" loadgen --endpoints "127.0.0.1:${RP}" --secret "${SECRET}" \
    --sessions 16 --connections 4 --chunks 6 --streams 2 --json \
    > "${NET_DIR}/loadgen.json" &
  LOADGEN_PID=$!
  sleep 2
  "${NECCTL}" drain --url "http://127.0.0.1:${RM}" \
    --shard "127.0.0.1:${P1}" > "${NET_DIR}/drain.out"
  grep -q '"draining"' "${NET_DIR}/drain.out" || {
    echo "drain request not accepted:"; cat "${NET_DIR}/drain.out"; exit 1; }
  wait "${LOADGEN_PID}"
  python3 - "${NET_DIR}/loadgen.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["ok"] is True, r
assert r["sessions_completed"] == 16 and r["sessions_faulted"] == 0, \
    f"drain faulted sessions: {r}"
assert r["chunks_acked"] == 96, r
print(f"net check: loadgen 16/16 sessions across a mid-traffic drain,"
      f" {r['chunks_per_sec']:.1f} chunks/s,"
      f" p50 {r['latency_p50_ms']:.0f} ms through the router")
EOF

  # The drained shard must reach the terminal state: zero sticky
  # sessions, drained gauge raised, nothing faulted by the reshard.
  python3 - "${RM}" "127.0.0.1:${P1}" <<'EOF'
import sys, time, urllib.request
port, shard = sys.argv[1], sys.argv[2]
def scrape():
    with urllib.request.urlopen(f"http://127.0.0.1:{port}/metrics",
                                timeout=10) as r:
        assert r.status == 200
        return r.read().decode()
def value(text, name):
    for line in text.splitlines():
        if line.startswith(f'{name}{{shard="{shard}"}}'):
            return float(line.split()[-1])
    raise AssertionError(f"{name} for {shard} not in /metrics")
for _ in range(100):
    text = scrape()
    if value(text, "nec_router_shard_drained") == 1.0:
        break
    time.sleep(0.2)
else:
    raise AssertionError("shard never reported drained")
assert value(text, "nec_router_shard_draining") == 1.0
assert value(text, "nec_router_shard_sessions") == 0.0
migrated = value(text, "nec_router_shard_sessions_migrated_total")
for line in text.splitlines():
    if line.startswith('nec_net_sessions_faulted_total{role="router"}'):
        assert float(line.split()[-1]) == 0.0, line
print(f"net check: shard drained clean ({migrated:.0f} session(s) migrated,"
      f" 0 faulted)")
EOF

  # All three daemons must expose per-connection counters on /metrics —
  # shards with role="server", router with role="router" + shard health.
  python3 - "${M1}" "${M2}" "${RM}" <<'EOF'
import sys, urllib.request
def scrape(port):
    with urllib.request.urlopen(f"http://127.0.0.1:{port}/metrics",
                                timeout=10) as r:
        assert r.status == 200
        return r.read().decode()
def value(text, needle):
    for line in text.splitlines():
        if line.startswith(needle):
            return float(line.split()[-1])
    raise AssertionError(f"{needle!r} not in /metrics")
for port in (sys.argv[1], sys.argv[2]):
    text = scrape(port)
    for needle in ('nec_net_connections_accepted_total{role="server"}',
                   'nec_net_frames_in_total{role="server"}',
                   'nec_net_sessions_opened_total{role="server"}',
                   "nec_chunks_processed_total"):
        assert needle in text, f"shard :{port} missing {needle!r}"
    # The router's upstream dials + status prober authenticate too.
    assert value(text, 'nec_net_auth_ok_total{role="server"}') > 0
# The bad-secret probe sent straight at shard 2 was counted there.
shard_rejected = value(scrape(sys.argv[2]),
                       'nec_net_auth_rejected_total{role="server"}')
assert shard_rejected > 0, "shard bad-secret probe not counted"
text = scrape(sys.argv[3])
for needle in ('nec_net_connections_accepted_total{role="router"}',
               "nec_router_shard_up{shard=",
               "nec_router_shard_sessions_assigned_total{shard="):
    assert needle in text, f"router missing {needle!r}"
# The good loadgen authenticated; the deliberate bad-secret probe must
# have been counted as a rejection.
assert value(text, 'nec_net_auth_ok_total{role="router"}') > 0
rejected = value(text, 'nec_net_auth_rejected_total{role="router"}')
assert rejected > 0, "bad-secret probe not counted in auth_rejected"
up = [l for l in text.splitlines()
      if l.startswith("nec_router_shard_up{") and l.endswith(" 1")]
assert len(up) == 2, f"expected 2 shards up, got {up}"
print("net check: /metrics ok on both shards + router"
      f" (2 shards up, {rejected:.0f} auth rejection(s) at the router,"
      f" {shard_rejected:.0f} at shard 2)")
EOF

  kill "${SHARD1_PID}" "${SHARD2_PID}" "${ROUTER_PID}" 2>/dev/null || true
  wait "${SHARD1_PID}" "${SHARD2_PID}" "${ROUTER_PID}" 2>/dev/null || true
  trap - EXIT
fi

if [[ "${FLEET_OBS}" == "1" ]]; then
  step "fleet observability: /fleet.json merge + necctl top + merged trace"
  FO_DIR="build-check-release/fleet-obs-check"
  rm -rf "${FO_DIR}" && mkdir -p "${FO_DIR}"
  NECD="./build-check-release/examples/necd"
  NECCTL="./build-check-release/examples/necctl"

  # Authed 2-shard fleet + router, tracing armed everywhere (--trace keeps
  # the per-process rings live for GET /trace without a shutdown dump).
  SECRET="fleet-obs-secret"
  "${NECD}" --listen 0 --model tiny --metrics-port 0 --workers 2 \
    --secret "${SECRET}" --trace \
    > "${FO_DIR}/shard1.out" 2> "${FO_DIR}/shard1.err" &
  SHARD1_PID=$!
  "${NECD}" --listen 0 --model tiny --metrics-port 0 --workers 2 \
    --secret "${SECRET}" --trace \
    > "${FO_DIR}/shard2.out" 2> "${FO_DIR}/shard2.err" &
  SHARD2_PID=$!
  trap 'kill "${SHARD1_PID}" "${SHARD2_PID}" "${ROUTER_PID:-}" 2>/dev/null || true' EXIT
  for out in shard1.out shard2.out; do
    for _ in $(seq 1 60); do
      grep -q 'wire listening' "${FO_DIR}/${out}" 2>/dev/null && \
        grep -q 'metrics listening' "${FO_DIR}/${out}" 2>/dev/null && break
      sleep 1
    done
  done
  port_of() { grep -o "${2}" "${FO_DIR}/${1}" | grep -o '[0-9]*$' | head -1; }
  P1="$(port_of shard1.out 'wire listening on 127.0.0.1:[0-9]*')"
  M1="$(port_of shard1.out 'http://127.0.0.1:[0-9]*')"
  P2="$(port_of shard2.out 'wire listening on 127.0.0.1:[0-9]*')"
  M2="$(port_of shard2.out 'http://127.0.0.1:[0-9]*')"
  [[ -n "${P1}" && -n "${M1}" && -n "${P2}" && -n "${M2}" ]] || {
    echo "shards never bound their ports"; exit 1; }

  "${NECD}" --route "127.0.0.1:${P1}:${M1},127.0.0.1:${P2}:${M2}" \
    --metrics-port 0 --secret "${SECRET}" --trace \
    > "${FO_DIR}/router.out" 2> "${FO_DIR}/router.err" &
  ROUTER_PID=$!
  for _ in $(seq 1 60); do
    grep -q 'routing on' "${FO_DIR}/router.out" 2>/dev/null && \
      grep -q 'metrics listening' "${FO_DIR}/router.out" 2>/dev/null && break
    sleep 1
  done
  RP="$(port_of router.out 'routing on 127.0.0.1:[0-9]*')"
  RM="$(port_of router.out 'http://127.0.0.1:[0-9]*')"
  [[ -n "${RP}" && -n "${RM}" ]] || { echo "router never bound"; exit 1; }

  # Traffic through the router; --trace-out arms the CLIENT-side recorder
  # so flow ids are minted and wire-propagated, and dumps its ring.
  "${NECCTL}" loadgen --endpoints "127.0.0.1:${RP}" --secret "${SECRET}" \
    --sessions 8 --connections 4 --chunks 4 --streams 2 --json \
    --trace-out "${FO_DIR}/client-trace.json" \
    > "${FO_DIR}/loadgen.json"
  python3 - "${FO_DIR}/loadgen.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["ok"] is True and r["sessions_faulted"] == 0, r
assert r["chunks_acked"] == 32, r
print(f"fleet-obs check: loadgen 8/8 sessions,"
      f" {r['chunks_per_sec']:.1f} chunks/s through the router")
EOF

  # /fleet.json must merge the member scrapes EXACTLY: every counter the
  # sum, every histogram's sample count the sum of the per-shard counts
  # (loadgen has finished, so the counters are quiescent).
  python3 - "${RM}" "${M1}" "${M2}" "127.0.0.1:${P1}" "127.0.0.1:${P2}" <<'EOF'
import json, sys, urllib.request
rm, m1, m2 = sys.argv[1], sys.argv[2], sys.argv[3]
shard_labels = {sys.argv[4], sys.argv[5]}
def get(port, path):
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}",
                                timeout=10) as r:
        assert r.status == 200, (port, path, r.status)
        return r.read().decode()
def hist_count(text, family):
    total = 0
    for line in text.splitlines():
        if line.startswith(f"{family}_count"):
            total += int(float(line.split()[-1]))
    return total
fleet = json.loads(get(rm, "/fleet.json"))
assert fleet["folded"] == 2, fleet["folded"]
rows = {m["label"]: m for m in fleet["members"]}
assert set(rows) == shard_labels, set(rows)
for label, row in rows.items():
    assert row["reachable"] and row["folded"], row
    assert row["chunks_total"] > 0, f"{label} served nothing"
shards = {s["label"]: s for s in fleet["shards"]}
assert set(shards) == shard_labels, set(shards)
assert all(s["up"] for s in shards.values()), shards
# Merged histogram totals == sum of the per-shard scrapes.
per_shard = hist_count(get(m1, "/metrics"), "nec_chunk_e2e_latency_seconds") \
          + hist_count(get(m2, "/metrics"), "nec_chunk_e2e_latency_seconds")
merged = next(f for f in fleet["merged"]["families"]
              if f["name"] == "nec_chunk_e2e_latency_seconds")
merged_count = sum(m["count"] for m in merged["metrics"])
assert merged_count == per_shard == fleet["fleet"]["e2e_count"], \
    (merged_count, per_shard, fleet["fleet"]["e2e_count"])
row_sum = sum(r["e2e_count"] for r in rows.values())
assert row_sum == merged_count, (row_sum, merged_count)
chunk_sum = sum(r["chunks_total"] for r in rows.values())
assert chunk_sum == fleet["fleet"]["chunks_total"] == 32, chunk_sum
assert fleet["fleet"]["e2e_p99_ms"] > 0, fleet["fleet"]
print(f"fleet-obs check: /fleet.json merged 2 members exactly"
      f" ({merged_count} e2e samples, fleet p99"
      f" {fleet['fleet']['e2e_p99_ms']:.1f} ms)")
EOF

  # The human surfaces over the same data: /fleet text and one top frame.
  "${NECCTL}" top --url "http://127.0.0.1:${RM}" --once \
    > "${FO_DIR}/top.out"
  grep -q "127.0.0.1:${P1}" "${FO_DIR}/top.out" || {
    echo "necctl top missing shard row:"; cat "${FO_DIR}/top.out"; exit 1; }
  grep -q '^fleet:' "${FO_DIR}/top.out" || {
    echo "necctl top missing fleet summary"; exit 1; }

  # Merge the three live rings + the client dump into one trace; necctl
  # itself fails unless at least one flow spans two processes with both
  # endpoints (the client-submit ... shard-compute arrow).
  "${NECCTL}" trace \
    --url "http://127.0.0.1:${RM}" \
    --url "http://127.0.0.1:${M1}" \
    --url "http://127.0.0.1:${M2}" \
    --file "${FO_DIR}/client-trace.json" \
    --expect-cross-flow --out "${FO_DIR}/trace-merged.json" \
    > "${FO_DIR}/trace.out"
  cat "${FO_DIR}/trace.out"
  python3 - "${FO_DIR}/trace-merged.json" <<'EOF'
import json, sys
from collections import defaultdict
events = json.load(open(sys.argv[1]))["traceEvents"]
names = {e.get("name") for e in events}
procs = {e["args"]["name"] for e in events
         if e.get("ph") == "M" and e.get("name") == "process_name"}
assert len(procs) == 4, f"expected 4 process rows, got {procs}"
flow_pids = defaultdict(set)
flow_phs = defaultdict(set)
for e in events:
    if "id" in e:
        flow_pids[e["id"]].add(e["pid"])
        flow_phs[e["id"]].add(e["ph"])
cross = [f for f in flow_pids
         if len(flow_pids[f]) >= 2 and {"s", "f"} <= flow_phs[f]]
assert cross, "no cross-process flow with both endpoints in merged trace"
for span in ("client.submit", "shard.compute"):
    assert span in names, f"missing {span!r} span in merged trace"
print(f"fleet-obs check: merged trace ok — {len(events)} events,"
      f" {len(procs)} processes, {len(cross)} cross-process flow(s)")
EOF

  kill "${SHARD1_PID}" "${SHARD2_PID}" "${ROUTER_PID}" 2>/dev/null || true
  wait "${SHARD1_PID}" "${SHARD2_PID}" "${ROUTER_PID}" 2>/dev/null || true
  trap - EXIT
fi

echo "check.sh: all green"
