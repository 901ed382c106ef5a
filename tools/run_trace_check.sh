#!/bin/sh
# Run a demo with tracing on, require the Chrome trace-event file it
# writes, then check that file:
#
#   run_trace_check.sh <demo-binary> <out-dir> <check>
#
# <check> is one of:
#   events         the file is well-formed JSON (loadable by Perfetto /
#                  about:tracing; checked when python3 is present) and holds
#                  the custom-pack fragment, SG-lowering, rendezvous, pipeline
#                  fragment, retransmit and fault-drop events the
#                  instrumentation promises (docs/OBSERVABILITY.md). Demo:
#                  trace_demo, which drops one scheduled fragment.
#   trace_analyze  tools/trace_analyze.py --check: at least one complete
#                  per-message span whose prep/wire/deliver phases sum
#                  exactly to its end-to-end latency, with a monotone
#                  critical path; its --json report carries the aggregate.
#                  Demo: trace_demo.
#   coll_analyze   tools/coll_analyze.py --check: every op's round tree
#                  complete on every rank, and the cross-rank critical path
#                  tiling the op's end-to-end virtual-time latency exactly;
#                  its --json report holds the demo's four collective
#                  families and a hierarchical op. Demo: coll_trace_demo.
#
# The analyzer checks exit 77 (ctest SKIP_RETURN_CODE) when python3 is
# absent. ctest runs the three as trace_demo (label `trace`),
# trace_analyze and coll_analyze (label `analyze`).
set -eu

if [ $# -ne 3 ]; then
    echo "usage: $0 <demo-binary> <out-dir> events|trace_analyze|coll_analyze" >&2
    exit 2
fi

demo=$1
dir=$2
check=$3
tools_dir=$(dirname "$0")
me="run_trace_check ($check)"

case $check in
    events) ;;
    trace_analyze|coll_analyze)
        if ! command -v python3 >/dev/null 2>&1; then
            echo "$me: python3 not found, skipping" >&2
            exit 77 # ctest SKIP_RETURN_CODE
        fi
        ;;
    *)
        echo "$me: unknown check" >&2
        exit 2
        ;;
esac

mkdir -p "$dir"
out="$dir/trace.json"
log="$dir/demo.log"
rm -f "$out"

if ! MPICD_TRACE=1 MPICD_TRACE_FILE="$out" "$demo" > "$log" 2>&1; then
    cat "$log" >&2
    echo "$me: $demo failed" >&2
    exit 1
fi

if [ ! -s "$out" ]; then
    echo "$me: $demo did not write $out" >&2
    exit 1
fi

case $check in
events)
    if command -v python3 >/dev/null 2>&1; then
        python3 -m json.tool "$out" > /dev/null || {
            echo "$me: $out is not valid JSON" >&2
            exit 1
        }
    else
        echo "$me: python3 not found, skipping JSON validation" >&2
    fi
    # Each instrumented layer: custom-type pack fragments and SG lowering
    # (engine), the rendezvous handshake and pipeline fragments (ucx), the
    # recovery from the scheduled drop, and the fault injector's view of it
    # (net).
    for ev in custom_pack_frag sg_lower_send rndv_rts frag_send retransmit fault_drop; do
        if ! grep -q "\"$ev\"" "$out"; then
            echo "$me: no \"$ev\" event in $out" >&2
            exit 1
        fi
    done
    ;;
*)
    python3 "$tools_dir/$check.py" --check "$out"
    # The machine-readable report must parse and carry the aggregate.
    python3 "$tools_dir/$check.py" --json "$out" > "$dir/report.json"
    if [ "$check" = trace_analyze ]; then
        python3 - "$dir/report.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
agg = doc["aggregate"]
assert agg["complete_spans"] >= 1, "no complete spans in --json report"
assert agg["latency_us"]["p99"] > 0, "degenerate latency percentiles"
EOF
    else
        python3 - "$dir/report.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
agg = doc["aggregate"]
assert agg["ops"] >= 4, "expected >= 4 collective ops, got %d" % agg["ops"]
assert agg["ops_with_critical_path"] == agg["ops"], "incomplete op trees"
fams = {op["fam"] for op in doc["ops"]}
assert {"barrier", "bcast", "allreduce", "allgatherv"} <= fams, fams
assert any(op["algo"] == "hier" for op in doc["ops"]), "no hier op traced"
for op in doc["ops"]:
    assert op["cp_us"] <= op["e2e_us"] + 0.01, op
    assert op["rounds"] >= 1 and op["messages"] >= 1, op
EOF
    fi
    ;;
esac

echo "$me: OK $out"
