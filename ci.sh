#!/bin/sh
# ci.sh — the repo's tiered verification gate.
#
#   ci.sh quick   fmt + vet + build + full tests (the tier-1 gate)
#   ci.sh chaos   the fault-injection and crash-recovery suite under the
#                 race detector: every failpoint armed, a server process
#                 SIGKILLed mid-job, journal recovery replayed, the
#                 journal lock, and the cancel-vs-start race
#   ci.sh full    quick + chaos, plus the race detector over every
#                 concurrent subsystem, a short fuzz of the trace-file
#                 decoder, a benchmark smoke of Pythia's train and
#                 QVStore hot paths, MLOP, SPP and Bingo training, the
#                 hierarchy's demand access, a
#                 stored-result hit, trace generation and delivery, a
#                 trace-cache fill
#                 and a fresh-scale Fig. 14 job (the benchmark run also
#                 executes the
#                 allocation-budget tests), the
#                 perfbench tests plus a short run of each workload
#                 (correctness checks gate, timings do not), a
#                 pythia-sim -tracefile check (a tracegen file prints
#                 what its registry workload prints, and a 200-record
#                 one prints no NaN), a policy
#                 lifecycle check (examples/policy trains, hits the
#                 store, warm-starts, refuses a mismatched config and
#                 downloads the snapshot), a
#                 pythia-bench CLI check (CSV tables byte-identical at
#                 -parallel 1 and 2 and over a cold and a warm result
#                 store, the warm pass simulating nothing; bad -exp
#                 exits 2), a load smoke: pythia-load drives a
#                 live pythia-serve under SLOs and proves the store
#                 absorbs repeat traffic, and a restart smoke: a
#                 pythia-serve SIGKILLed mid-job finishes the job after
#                 a restart over its journal, and a second pythia-serve
#                 over a held journal refuses to start
#
# With no argument, full runs (unchanged historical behavior).
set -eu

cd "$(dirname "$0")"

tier="${1:-full}"
case "$tier" in
quick | chaos | full) ;;
*)
    echo "usage: ci.sh [quick|chaos|full]" >&2
    exit 2
    ;;
esac

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

if [ "$tier" != chaos ]; then
    echo "== go test =="
    go test ./...
fi

echo "== no-new-panics gate (error-propagation model) =="
# The simulation stack reports failures as values (DESIGN.md "Error model
# and cancellation"); a panic() reappearing outside tests in these
# packages is a regression of that model. Allow-list: the fault
# registry's deliberate injected panic (tagged "fault: injected panic"),
# which exists so chaos tests can simulate crashes.
panics=$(grep -rn 'panic(' internal/stream internal/harness internal/serve internal/cpu internal/policy internal/fault \
    internal/results internal/fsutil \
    --include='*.go' | grep -v '_test\.go' | grep -v 'fault: injected panic' || true)
if [ -n "$panics" ]; then
    echo "panic() on an error-propagation hot path:" >&2
    echo "$panics" >&2
    exit 1
fi

echo "== harness run-environment gate =="
# The harness keeps the state its runs share in one Env (DESIGN.md "Run
# environment"). A package-level var outside this allow-list is state
# that escaped it: the Env itself, the Scale presets, two read-only
# tables and a metric handle. Declare one name per var line (no var
# blocks), so this grep sees every name.
hvars=$(grep -n '^var[ (]' internal/harness/*.go | grep -v '_test\.go:' |
    grep -vE ':var (defaultEnv|ScaleQuick|ScaleDefault|ScaleFull|ScaleLong|BandwidthPoints|warmCheckpoints|simRate) ' || true)
if [ -n "$hvars" ]; then
    echo "package-level state in internal/harness outside its Env:" >&2
    echo "$hvars" >&2
    exit 1
fi

echo "== single-fault-framework gate =="
# All fault injection goes through internal/fault's registry (DESIGN.md
# "Fault model and recovery"). A package growing a private failpoint
# mechanism again — the pre-registry state — fails here.
private_fps=$(grep -rnE '(func|var)( \([^)]*\))? [Ff]ailpoint' internal cmd examples \
    --include='*.go' | grep -v '^internal/fault/' || true)
if [ -n "$private_fps" ]; then
    echo "private failpoint mechanism outside internal/fault:" >&2
    echo "$private_fps" >&2
    exit 1
fi

echo "== error-envelope gate (unified API errors) =="
# Every non-2xx serve response is the api.Error JSON envelope, written
# through writeError (DESIGN.md "API v1"). A raw http.Error reappearing
# in the serving layer would hand clients an untyped text/plain error
# with no code, no Retryable, no Retry-After contract.
raw_errors=$(grep -rn 'http\.Error(' internal/serve --include='*.go' |
    grep -v '_test\.go' || true)
if [ -n "$raw_errors" ]; then
    echo "http.Error() in internal/serve (use writeError + api.Errorf):" >&2
    echo "$raw_errors" >&2
    exit 1
fi

echo "== route-metrics gate (telemetry coverage) =="
# Every serve route must flow through the Server.route() helper so it
# gets a per-route pythia_http_requests_total counter (DESIGN.md
# "Observability"). A bare mux.HandleFunc registration outside the
# helper — recognizable by the missing "route-metrics-allow" marker on
# the wrapping closure — would silently drop that route from /metrics.
unrouted=$(grep -rn 'mux\.HandleFunc(' internal/serve --include='*.go' |
    grep -v '_test\.go' | grep -v 'route-metrics-allow' || true)
if [ -n "$unrouted" ]; then
    echo "serve route registered without the route() metrics helper:" >&2
    echo "$unrouted" >&2
    echo "(register through Server.route(), or tag the closure with // route-metrics-allow)" >&2
    exit 1
fi

if command -v staticcheck >/dev/null 2>&1; then
    echo "== staticcheck =="
    staticcheck ./...
else
    echo "== staticcheck (not installed, skipped; CI runs it) =="
fi

if [ "$tier" = chaos ] || [ "$tier" = full ]; then
    echo "== chaos tier: fault injection + crash recovery under -race =="
    # The durable-execution invariants (crash-recoverable queue, retry,
    # breakers): failpoints at every store write and the trace decoder, a
    # SIGKILLed server subprocess, journal recovery replayed from
    # snapshots (an older release's journal, terminal jobs re-tracked),
    # the journal lock (a held journal refuses a second server and is
    # taken over once its holder closes), and the cancel-vs-start race,
    # shutdown drain and queue bound that the job mutex decides, and the
    # per-job progress that simulation goroutines publish — all under the
    # race detector.
    go test -race ./internal/fault/...
    go test -race -run 'Chaos|Journal|Fault|Breaker|Failpoint|Sweep|Cancel|Shutdown|BoundedQueue|LeaseTakeover|CancelStartRace|TerminalJobSurvivesRestart|RemoveCleansClaim|ClaimMutualExclusion|Progress|OverlappingJobsCountOwnSims' \
        ./internal/serve/... ./internal/fsutil/... \
        ./internal/stream/... ./internal/results/... ./internal/policy/...
fi

if [ "$tier" = full ]; then
    echo "== go test -race (worker pool + stream pipeline + trace io + store core + result/policy stores + serve/cancellation) =="
    # The repo's concurrency lives in the harness worker pool/singleflights,
    # the stream chunk pipeline / trace-cache population, the store core
    # (internal/fsutil) and the persistent result and policy stores built
    # on it, the serving layer's queue/SSE fan-out (now
    # including POST-able training jobs), and the cancellation paths
    # threading contexts through cpu/harness/serve; run those packages
    # under the race detector.
    go test -race ./internal/harness/... ./internal/stream/... ./internal/trace/... \
        ./internal/results/... ./internal/policy/... ./internal/serve/... \
        ./internal/flight/... ./internal/fsutil/... ./internal/cpu/...

    echo "== batch bit-identity under -race (fused kernel vs shim, worker counts) =="
    # The fused chunk kernel must stay bit-identical to the record-at-a-time
    # shim the tests keep as its reference, at every chunk edge and chunk
    # size and on randomly drawn systems, and experiment results must not
    # depend on worker count. These run inside the package sweeps above
    # too; the explicit invocation keeps the invariant visible and failing
    # on its own line.
    go test -race -run 'BatchedMatchesShim|BatchedChunkSizeInvariance|FusedMatchesShimRandomSystems|DeterministicAcrossWorkerCounts' \
        ./internal/cpu/... ./internal/harness/...

    echo "== pythia-sim -tracefile (a trace file replays as its registry workload) =="
    # A trace written by tracegen and run with -tracefile must print
    # exactly what the registry workload it came from prints: the file
    # path (trace.Read into a fixed workload) and the generator path
    # deliver the same records. Fresh trace-cache and store directories
    # keep earlier runs out of it.
    tf=$(mktemp -d)
    go build -o "$tf/tracegen" ./cmd/tracegen
    go build -o "$tf/pythia-sim" ./cmd/pythia-sim
    "$tf/tracegen" -workload 459.GemsFDTD-100B -n 120000 -o "$tf/gems.pytr" >/dev/null
    run_sim() { # run_sim ARM FLAG... runs pythia-sim into $tf/ARM.txt
        arm=$1
        shift
        PYTHIA_TRACE_CACHE="$tf/traces-$arm" PYTHIA_RESULT_STORE="$tf/results-$arm" \
            PYTHIA_POLICY_STORE="$tf/policies-$arm" \
            "$tf/pythia-sim" -scale quick "$@" >"$tf/$arm.txt"
    }
    run_sim file -tracefile "$tf/gems.pytr"
    run_sim registry -workload 459.GemsFDTD-100B
    if ! diff "$tf/file.txt" "$tf/registry.txt"; then
        echo "pythia-sim -tracefile differs from -workload on the same trace" >&2
        rm -rf "$tf"
        exit 1
    fi
    # A trace too short to miss in the LLC leaves the baseline with no
    # misses: coverage and overprediction must print 0, never NaN.
    "$tf/tracegen" -workload 459.GemsFDTD-100B -n 200 -o "$tf/tiny.pytr" >/dev/null
    run_sim tiny -tracefile "$tf/tiny.pytr" -pf spp
    if grep NaN "$tf/tiny.txt"; then
        echo "pythia-sim printed NaN on a trace with no baseline LLC misses" >&2
        rm -rf "$tf"
        exit 1
    fi
    rm -rf "$tf"

    echo "== policy lifecycle (examples/policy: train, store hit, warm start, mismatch, download) =="
    # The example trains a policy, serves the repeat from its store,
    # warm-starts evaluations from it, refuses to restore it into another
    # configuration and downloads its snapshot over the v1 API. Fresh
    # trace-cache and result-store directories keep earlier runs out of
    # it; each act must print its success line.
    pol=$(mktemp -d)
    pol_status=0
    PYTHIA_TRACE_CACHE="$pol/traces" PYTHIA_RESULT_STORE="$pol/results" \
        go run ./examples/policy >"$pol/out.txt" 2>&1 || pol_status=$?
    if [ "$pol_status" -ne 0 ]; then
        echo "examples/policy exited $pol_status:" >&2
        cat "$pol/out.txt" >&2
        rm -rf "$pol"
        exit 1
    fi
    for want in 'hit=true' 'policy.ErrMismatch) = true' 'identical to local copy: true'; do
        if ! grep -qF "$want" "$pol/out.txt"; then
            echo "examples/policy output lacks \"$want\":" >&2
            cat "$pol/out.txt" >&2
            rm -rf "$pol"
            exit 1
        fi
    done
    rm -rf "$pol"

    echo "== fuzz smoke (trace-file decoder, every chunk size against chunk size 1 and Read) =="
    go test -run='^$' -fuzz=FuzzRoundTrip -fuzztime=10s ./internal/trace

    echo "== bench smoke (Pythia train and QVStore hot paths, MLOP/SPP/Bingo train, hierarchy access, stored-result hit, trace generation and delivery, cache fill, fresh-scale job) =="
    go test -run='AllocationFree' -bench='PythiaTrain|QVStore|MLOPTrain|SPPTrain|BingoTrain|HierarchyAccess|RunCachedStoreHit|TraceGen|TraceDelivery|TraceCacheFill|FreshScaleJob' -benchtime=100x -benchmem .

    echo "== perfbench (benchmark tests + one short run per workload) =="
    # perfbench is a module of its own, outside ./...: vet and test it,
    # then run every workload BENCHMARK.json declares for two seconds.
    # Its correctness checks gate (a non-zero exit, or "failed" > 0 in the
    # JSON line); its timings never do. The JSON lines are kept in
    # $PERFBENCH_OUT (a temp dir by default) so CI can upload them.
    (cd perfbench && go vet . && go test .)
    pb_out=${PERFBENCH_OUT:-$(mktemp -d)}
    mkdir -p "$pb_out"
    for w in $(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'); do
        bash perfbench/run.sh --workload "$w" --seed 1 --seconds 2 --trace 0 >"$pb_out/$w.json"
        tail -n 1 "$pb_out/$w.json" | python3 -c '
import json, sys
d = json.load(sys.stdin)
print("perfbench %s: %d checks, %d failed" % (sys.argv[1], d["attempted"], d["failed"]))
sys.exit(1 if d["failed"] > 0 else 0)' "$w"
    done

    echo "== pythia-bench CLI (worker-count determinism, warm store, bad -exp exits 2) =="
    # Worker count changes wall time only, never a table: the CSVs of one
    # experiment set at -parallel 1 and -parallel 2 must be byte-identical.
    # Fig. 14 is in the set because it fans its cells out through RunAll,
    # which runs one goroutine more than the sim slots. Fig. 8d, 9a, 12,
    # 15 and 16 fan out through the speedup grid: 9a's GEOMEAN row and
    # 12's two systems aggregate across groups of one grid. The scorecard
    # runs first, so that its one grid over every claim's cells
    # simulates instead of reading memo hits that fig9a and fig12 leave.
    cli=$(mktemp -d)
    go build -o "$cli/pythia-bench" ./cmd/pythia-bench
    for p in 1 2; do
        "$cli/pythia-bench" -exp scorecard,fig8d,ext-warmstart,fig14,fig15,fig16,fig9a,fig12 -scale quick -parallel "$p" \
            -csv "$cli/csv-p$p" >"$cli/p$p.log"
    done
    if ! diff -r "$cli/csv-p1" "$cli/csv-p2"; then
        echo "pythia-bench tables differ between -parallel 1 and -parallel 2" >&2
        rm -rf "$cli"
        exit 1
    fi
    # A warm result store answers a repeat run: the second pass over one
    # -results directory must write byte-identical tables and simulate
    # nothing.
    for pass in cold warm; do
        "$cli/pythia-bench" -exp fig8d -scale quick -results "$cli/store" \
            -csv "$cli/csv-$pass" -json "$cli/$pass.json" >"$cli/$pass.log"
    done
    if ! diff -r "$cli/csv-cold" "$cli/csv-warm"; then
        echo "pythia-bench tables differ between a cold and a warm result store" >&2
        rm -rf "$cli"
        exit 1
    fi
    if ! python3 -c '
import json, sys
sims = {e["id"]: e["sims"] for e in json.load(open(sys.argv[1]))["experiments"]}
print("warm store pass: fig8d sims=%s" % sims.get("fig8d"))
sys.exit(0 if sims.get("fig8d") == 0 else 1)' "$cli/warm.json"; then
        echo "pythia-bench re-simulated fig8d over a warm result store" >&2
        rm -rf "$cli"
        exit 1
    fi
    exp_status=0
    "$cli/pythia-bench" -exp bogus 2>/dev/null || exp_status=$?
    if [ "$exp_status" -ne 2 ]; then
        echo "pythia-bench -exp bogus exited $exp_status, want 2" >&2
        rm -rf "$cli"
        exit 1
    fi
    rm -rf "$cli"

    echo "== load smoke (pythia-load vs live pythia-serve) =="
    # Boot a real pythia-serve subprocess, seed its result store, and
    # drive a short constant-RPS mixed storm through cmd/pythia-load:
    # zero SLO violations required, and the store must absorb repeat
    # traffic (-min-store-hits proves hits climbed during the run).
    smoke=$(mktemp -d)
    go build -o "$smoke/pythia-serve" ./cmd/pythia-serve
    go build -o "$smoke/pythia-load" ./cmd/pythia-load
    "$smoke/pythia-serve" -addr 127.0.0.1:18741 \
        -results "$smoke/results" -policies "$smoke/policies" \
        >"$smoke/serve.log" 2>&1 &
    serve_pid=$!
    load_status=0
    "$smoke/pythia-load" -addr http://127.0.0.1:18741 -wait-ready 15s \
        -rps 25 -duration 5s -scale quick \
        -experiments fig14,table2 -mix "read=0.7,meta=0.2,simulate=0.1" \
        -slo "read:p95ms=1000,err=0;simulate:err=0" -min-store-hits 1 \
        -json "$smoke/loadtest.json" || load_status=$?
    kill "$serve_pid" 2>/dev/null || true
    wait "$serve_pid" 2>/dev/null || true
    if [ "$load_status" -ne 0 ]; then
        echo "load smoke failed (exit $load_status); server log:" >&2
        tail -20 "$smoke/serve.log" >&2
        rm -rf "$smoke"
        exit 1
    fi
    rm -rf "$smoke"

    echo "== restart smoke (SIGKILL mid-job, restart over the journal) =="
    # Launch a long fig7 job at a custom scale no run has stored, SIGKILL
    # the server while it runs, and restart it over the same journal and
    # stores: the kernel dropped the dead process's journal lock, so the
    # job must be running again within 2 s and then run to done. A second
    # server over the held journal must exit 2 naming the journal. A
    # repeat launch must then be a store hit that simulates nothing.
    smoke=$(mktemp -d)
    go build -o "$smoke/pythia-serve" ./cmd/pythia-serve
    base=http://127.0.0.1:18743
    long_scale="custom:warmup=100000,sim=200000000,tracelen=100000,wps=1,mixes=1"
    start_serve() {
        PYTHIA_TRACE_CACHE="$smoke/traces" "$smoke/pythia-serve" -addr 127.0.0.1:18743 \
            -results "$smoke/results" -policies "$smoke/policies" -journal "$smoke/journal" \
            >>"$smoke/serve.log" 2>&1 &
        serve_pid=$!
        for i in $(seq 1 150); do
            curl -fsS "$base/healthz" >/dev/null 2>&1 && return 0
            sleep 0.2
        done
        return 1
    }
    job_field() { # job_field ID FIELD prints one field of a job's status
        curl -fsS "$base/api/v1/runs/$1" |
            python3 -c 'import json,sys; print(json.load(sys.stdin)["job"][sys.argv[1]])' "$2"
    }
    restart_fail() {
        echo "restart smoke: $1; server log:" >&2
        tail -30 "$smoke/serve.log" >&2
        kill -9 "$serve_pid" 2>/dev/null || true
        rm -rf "$smoke"
        exit 1
    }
    start_serve || restart_fail "server never came up"
    long_job=$(curl -fsS -X POST "$base/api/v1/runs" \
        -d "{\"experiment\":\"fig7\",\"scale\":\"$long_scale\"}" |
        python3 -c 'import json,sys; print(json.load(sys.stdin)["job"]["id"])') ||
        restart_fail "launch failed"
    for i in $(seq 1 100); do
        [ "$(job_field "$long_job" status)" = running ] && break
        sleep 0.1
    done
    sleep 2
    [ "$(job_field "$long_job" status)" = running ] || restart_fail "$long_job not running 2 s in"
    echo "SIGKILLing pythia-serve pid $serve_pid mid-job ($long_job)"
    kill -9 "$serve_pid"
    wait "$serve_pid" 2>/dev/null || true
    start_serve || restart_fail "restarted server never came up"
    status=""
    for i in $(seq 1 20); do
        status=$(job_field "$long_job" status) || status=""
        case "$status" in running | done) break ;; esac
        sleep 0.1
    done
    case "$status" in
    running | done) ;;
    *) restart_fail "$long_job is ${status:-unknown} 2 s after the restart, want running or done" ;;
    esac
    second_status=0
    PYTHIA_TRACE_CACHE="$smoke/traces" timeout 20 "$smoke/pythia-serve" -addr 127.0.0.1:18744 \
        -results "$smoke/results" -policies "$smoke/policies" -journal "$smoke/journal" \
        >"$smoke/second.log" 2>&1 || second_status=$?
    [ "$second_status" -eq 2 ] ||
        restart_fail "a second pythia-serve over the held journal exited $second_status, want 2"
    grep -qF "$smoke/journal" "$smoke/second.log" ||
        restart_fail "the second pythia-serve's error does not name the journal: $(cat "$smoke/second.log")"
    for i in $(seq 1 240); do
        status=$(job_field "$long_job" status) || status=""
        case "$status" in done | error | canceled) break ;; esac
        sleep 1
    done
    [ "$status" = done ] || restart_fail "$long_job ended ${status:-open} after the restart, want done"
    repeat=$(curl -fsS -X POST "$base/api/v1/runs" \
        -d "{\"experiment\":\"fig7\",\"scale\":\"$long_scale\"}" |
        python3 -c 'import json,sys; print(json.load(sys.stdin)["job"]["id"])') ||
        restart_fail "repeat launch failed"
    for i in $(seq 1 100); do
        [ "$(job_field "$repeat" status)" = done ] && break
        sleep 0.1
    done
    sims=$(job_field "$repeat" sims) || sims=""
    [ "$sims" = 0 ] || restart_fail "repeat launch simulated $sims times, want 0"
    kill "$serve_pid" 2>/dev/null || true
    wait "$serve_pid" 2>/dev/null || true
    echo "restart smoke OK: $long_job done after a SIGKILL and restart, second server refused, repeat sims: 0"
    rm -rf "$smoke"
fi

echo "CI OK ($tier)"
