#!/usr/bin/env python3
"""Reconstruct collective-op trees and cross-rank critical paths from an
mpicd Chrome trace-event file.

Builds on trace_analyze.py's per-message span reconstruction. Collective
instrumentation (see docs/OBSERVABILITY.md "Collective op spans") emits,
per op and per rank, ``coll.op_begin`` / ``coll.round`` /
``coll.step_send`` / ``coll.step_recv`` / ``coll.op_end`` instants. The
op id is identical on every rank for the same collective instance (it is
derived from the lockstep per-communicator tag epoch), so one trace file
containing all ranks lets this tool rebuild:

  op ── rank ── round ── steps, where each step's fresh msg id hangs the
  full point-to-point span tree (prep/wire/deliver, retransmits, faults)
  off that round.

From the message edges it then walks the op's **cross-rank critical
path** backwards in virtual time: starting at the straggler rank's
``op_end``, repeatedly jump through the latest receive that completed
before the current point, charging

  local    time on a rank between a receive completing and the next
           dependency (or op_end)
  deliver / wire / prep
           that message's phases, from trace_analyze.analyze_msg; the
           wire segment separately reports how much of it was
           ``fabric.uplink_wait`` (queuing behind unrelated traffic on
           the node-pair uplink serializer)
  entry_skew
           how late the path's first rank entered the op relative to
           the globally earliest ``op_begin``

The segments tile [earliest op_begin, latest op_end] exactly, so the
critical-path length equals the op's end-to-end virtual-time latency;
``--check`` verifies that identity plus round-tree completeness, which
makes this script the validation step of the ``coll_analyze`` ctest.

Usage:
    coll_analyze.py trace.json            # human-readable report
    coll_analyze.py --json trace.json     # machine-readable report
    coll_analyze.py --check trace.json    # validate, exit 1 on failure
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import trace_analyze as ta  # noqa: E402

# Keep in sync with Fam / Algo in src/p2p/coll/topology.hpp.
FAM_NAMES = {
    0: "barrier",
    1: "bcast",
    2: "gather",
    3: "allreduce",
    5: "allgatherv",
}
ALGO_NAMES = {0: "flat", 1: "hier"}


def build_ops(events):
    """Group coll.* events into op -> rank -> round trees.

    Steps pair with rounds by record order per (op, rank): the round
    instant is emitted immediately before its phase posts, and advance()
    serializes one op's events under the op mutex, so wall-clock ts
    order is program order.
    """
    coll = sorted((e for e in events if e["cat"] == "coll"),
                  key=lambda e: e["ts"])
    ops = {}
    for ev in coll:
        a = ev["args"]
        if "op" not in a or "rank" not in a:
            continue
        op = ops.setdefault(int(a["op"]), {"id": int(a["op"]), "ranks": {}})
        rank = int(a["rank"])
        rk = op["ranks"].setdefault(rank, {
            "rank": rank,
            "begin_vt": None,
            "end_vt": None,
            "status": None,
            "fam": None,
            "algo": None,
            "rounds_declared": None,
            "rounds": [],
            "orphan_steps": 0,
        })
        name = ev["name"]
        if name == "op_begin":
            rk["begin_vt"] = ev["vt"]
            rk["fam"] = int(a.get("fam", -1))
            rk["algo"] = int(a.get("algo", 0))
        elif name == "round":
            rk["rounds"].append({"round": int(a.get("round", len(rk["rounds"]))),
                                 "vt": ev["vt"], "steps": []})
        elif name in ("step_send", "step_recv"):
            step = {
                "dir": "send" if name == "step_send" else "recv",
                "peer": int(a.get("peer", -1)),
                "sub": int(a.get("sub", 0)),
                "msg": ev["msg"],
                "vt": ev["vt"],
            }
            if rk["rounds"]:
                rk["rounds"][-1]["steps"].append(step)
            else:
                rk["orphan_steps"] += 1
        elif name == "op_end":
            rk["end_vt"] = ev["vt"]
            rk["status"] = int(a.get("status", 0))
            rk["rounds_declared"] = int(a.get("rounds", 0))
    return ops


def uplink_by_msg(events):
    """msg id -> total fabric.uplink_wait in us (send-side attributed)."""
    out = {}
    for ev in events:
        if ev["name"] == "uplink_wait" and ev["msg"] != 0:
            out[ev["msg"]] = (out.get(ev["msg"], 0.0)
                              + float(ev["args"].get("wait_ns", 0)) / 1000.0)
    return out


def op_edges(op, spans_by_msg):
    """Cross-rank dependency edges: one per send step whose message has a
    complete span (send_post and recv_complete both present)."""
    edges = []
    for rank, rk in op["ranks"].items():
        for rnd in rk["rounds"]:
            for st in rnd["steps"]:
                if st["dir"] != "send":
                    continue
                s = spans_by_msg.get(st["msg"])
                if s is not None and s["complete"]:
                    edges.append({"src": rank, "dst": st["peer"],
                                  "sub": st["sub"], "round": rnd["round"],
                                  "msg": st["msg"], "span": s})
    return edges


def critical_path(op, edges, uplink_us):
    """Backward walk from the straggler's op_end. Returns None when no
    rank has both op_begin and op_end in the trace."""
    ranks = {r: rk for r, rk in op["ranks"].items()
             if rk["begin_vt"] is not None and rk["end_vt"] is not None}
    if not ranks:
        return None
    g_begin = min(rk["begin_vt"] for rk in ranks.values())
    g_end = max(rk["end_vt"] for rk in ranks.values())
    straggler = max(ranks.values(), key=lambda rk: (rk["end_vt"], rk["rank"]))
    by_dst = {}
    for e in edges:
        by_dst.setdefault(e["dst"], []).append(e)

    segs = []
    cur_rank, cur_t = straggler["rank"], straggler["end_vt"]
    for _ in range(100000):
        cand = [e for e in by_dst.get(cur_rank, ())
                if e["span"]["complete_vt"] <= cur_t + 1e-9
                and e["span"]["post_vt"] < cur_t - 1e-9]
        if not cand:
            rk = ranks.get(cur_rank)
            entry = rk["begin_vt"] if rk is not None else g_begin
            entry = min(entry, cur_t)
            segs.append({"kind": "local", "rank": cur_rank,
                         "from_vt": entry, "to_vt": cur_t,
                         "us": cur_t - entry})
            if entry > g_begin:
                segs.append({"kind": "entry_skew", "rank": cur_rank,
                             "from_vt": g_begin, "to_vt": entry,
                             "us": entry - g_begin})
            break
        e = max(cand, key=lambda e: e["span"]["complete_vt"])
        s = e["span"]
        segs.append({"kind": "local", "rank": cur_rank,
                     "from_vt": s["complete_vt"], "to_vt": cur_t,
                     "us": cur_t - s["complete_vt"]})
        segs.append({"kind": "deliver", "rank": cur_rank, "msg": e["msg"],
                     "from_vt": s["last_arrival_vt"],
                     "to_vt": s["complete_vt"],
                     "us": s["phases"]["deliver_us"]})
        segs.append({"kind": "wire", "rank": e["src"], "msg": e["msg"],
                     "from_vt": s["first_arrival_vt"],
                     "to_vt": s["last_arrival_vt"],
                     "us": s["phases"]["wire_us"],
                     "uplink_wait_us": uplink_us.get(e["msg"], 0.0),
                     "retransmits": s["retransmits"]})
        segs.append({"kind": "prep", "rank": e["src"], "msg": e["msg"],
                     "from_vt": s["post_vt"], "to_vt": s["first_arrival_vt"],
                     "us": s["phases"]["prep_us"]})
        cur_rank, cur_t = e["src"], s["post_vt"]
    segs.reverse()
    return {
        "begin_vt": g_begin,
        "end_vt": g_end,
        "e2e_us": g_end - g_begin,
        "straggler_rank": straggler["rank"],
        "segments": segs,
        "length_us": sum(s["us"] for s in segs),
    }


def analyze_op(op, spans_by_msg, uplink_us):
    ranks = op["ranks"]
    fam = next((rk["fam"] for rk in ranks.values()
                if rk["fam"] is not None), -1)
    algo = next((rk["algo"] for rk in ranks.values()
                 if rk["algo"] is not None), 0)
    edges = op_edges(op, spans_by_msg)
    cp = critical_path(op, edges, uplink_us)
    complete_ranks = [rk for rk in ranks.values()
                      if rk["begin_vt"] is not None
                      and rk["end_vt"] is not None]
    sum_work = sum(rk["end_vt"] - rk["begin_vt"] for rk in complete_ranks)
    op_uplink = sum(uplink_us.get(e["msg"], 0.0) for e in edges)
    rounds = max((len(rk["rounds"]) for rk in ranks.values()), default=0)
    res = {
        "op": op["id"],
        "fam": FAM_NAMES.get(fam, "fam%d" % fam),
        "algo": ALGO_NAMES.get(algo, "algo%d" % algo),
        "ranks": len(ranks),
        "complete_ranks": len(complete_ranks),
        "rounds": rounds,
        "messages": len(edges),
        "retransmits": sum(e["span"]["retransmits"] for e in edges),
        "uplink_wait_us": op_uplink,
        "status_worst": max((rk["status"] or 0 for rk in ranks.values()),
                            default=0),
        "tree": op,
        "critical_path": cp,
    }
    if cp is not None:
        res["e2e_us"] = cp["e2e_us"]
        res["cp_us"] = cp["length_us"]
        res["sum_work_us"] = sum_work
        res["cp_vs_work"] = (cp["length_us"] / sum_work
                             if sum_work > 0 else 1.0)
        # Per-rank attribution of the critical path: what each rank
        # contributed to the op's end-to-end latency. Wire time is the
        # fabric's, not any rank's; entry skew names the late enterer.
        attr = {}
        for s in cp["segments"]:
            if s["kind"] in ("local", "prep", "deliver", "entry_skew"):
                attr[s["rank"]] = attr.get(s["rank"], 0.0) + s["us"]
        res["cp_rank_attr_us"] = attr
    return res


def aggregate_ops(op_results):
    with_cp = [r for r in op_results if r["critical_path"] is not None]
    lat = sorted(r["e2e_us"] for r in with_cp)
    straggler_counts = {}
    for r in with_cp:
        sr = r["critical_path"]["straggler_rank"]
        straggler_counts[sr] = straggler_counts.get(sr, 0) + 1
    by_kind = {}
    for r in with_cp:
        key = "%s_%s" % (r["fam"], r["algo"])
        k = by_kind.setdefault(key, {"ops": 0, "e2e_us": [],
                                     "uplink_wait_us": 0.0})
        k["ops"] += 1
        k["e2e_us"].append(r["e2e_us"])
        k["uplink_wait_us"] += r["uplink_wait_us"]
    for k in by_kind.values():
        vals = sorted(k.pop("e2e_us"))
        k["e2e_p50_us"] = ta.percentile(vals, 50)
        k["e2e_p99_us"] = ta.percentile(vals, 99)
        k["e2e_max_us"] = vals[-1] if vals else 0.0
    return {
        "ops": len(op_results),
        "ops_with_critical_path": len(with_cp),
        "e2e_us": {
            "p50": ta.percentile(lat, 50),
            "p95": ta.percentile(lat, 95),
            "p99": ta.percentile(lat, 99),
            "max": lat[-1] if lat else 0.0,
        },
        "uplink_wait_us": sum(r["uplink_wait_us"] for r in op_results),
        "straggler_counts": straggler_counts,
        "by_kind": by_kind,
    }


def check(op_results, agg, tolerance_us):
    """Validation mode for the ctest `coll_analyze` target."""
    errors = []
    if agg["ops_with_critical_path"] == 0:
        errors.append("no collective op with a critical path reconstructed "
                      "(missing coll.op_begin/op_end events)")
    for r in op_results:
        tag = "op %x (%s/%s)" % (r["op"], r["fam"], r["algo"])
        if r["complete_ranks"] != r["ranks"]:
            errors.append("%s: %d of %d ranks missing op_begin/op_end"
                          % (tag, r["ranks"] - r["complete_ranks"],
                             r["ranks"]))
        for rank, rk in sorted(r["tree"]["ranks"].items()):
            if rk["orphan_steps"]:
                errors.append("%s rank %d: %d steps outside any round"
                              % (tag, rank, rk["orphan_steps"]))
            ordinals = [rd["round"] for rd in rk["rounds"]]
            if ordinals != list(range(len(ordinals))):
                errors.append("%s rank %d: round ordinals %r not 0..%d"
                              % (tag, rank, ordinals, len(ordinals) - 1))
            if (rk["rounds_declared"] is not None
                    and rk["rounds_declared"] != len(rk["rounds"])):
                errors.append("%s rank %d: op_end declares %d rounds, trace "
                              "has %d" % (tag, rank, rk["rounds_declared"],
                                          len(rk["rounds"])))
        cp = r["critical_path"]
        if cp is None:
            continue
        if abs(cp["length_us"] - cp["e2e_us"]) > tolerance_us:
            errors.append("%s: critical path sums to %.3f us but op e2e is "
                          "%.3f us" % (tag, cp["length_us"], cp["e2e_us"]))
        if cp["length_us"] > cp["e2e_us"] + tolerance_us:
            errors.append("%s: critical path longer than op e2e" % tag)
        t = None
        for s in cp["segments"]:
            if s["to_vt"] < s["from_vt"] - 1e-9:
                errors.append("%s: segment %s runs backwards" % (tag, s["kind"]))
            if t is not None and s["kind"] != "entry_skew" \
                    and s["from_vt"] < t - 1e-6:
                errors.append("%s: critical path not contiguous at %s"
                              % (tag, s["kind"]))
            t = s["to_vt"]
        # A hop's uplink queuing happens between the send post and the
        # packet's arrival. For a single-packet message that whole window
        # is the span's *prep* phase (first_arrival == last_arrival, so
        # wire is 0 by construction) — bound the wait by prep+wire of the
        # same message, not by the wire phase alone.
        hop_us = {}
        for seg in cp["segments"]:
            if seg["kind"] in ("prep", "wire"):
                hop_us[seg["msg"]] = hop_us.get(seg["msg"], 0.0) + seg["us"]
        for seg in cp["segments"]:
            if seg["kind"] == "wire" and \
                    seg.get("uplink_wait_us", 0.0) > \
                    hop_us.get(seg["msg"], 0.0) + tolerance_us:
                errors.append("%s msg %d: uplink wait %.3f us exceeds hop "
                              "prep+wire %.3f us" % (tag, seg["msg"],
                                                     seg["uplink_wait_us"],
                                                     hop_us.get(seg["msg"],
                                                                0.0)))
    return errors


def print_report(op_results, agg, out=sys.stdout):
    w = out.write
    w("collective ops (virtual us):\n")
    w("  %10s %-10s %-4s %5s %6s %5s %9s %9s %8s %9s %5s\n"
      % ("op", "fam", "algo", "ranks", "rounds", "msgs", "e2e", "cp",
         "cp/work", "uplink", "strag"))
    for r in sorted(op_results, key=lambda r: r["op"]):
        cp = r["critical_path"]
        if cp is None:
            w("  %10x %-10s %-4s %5d %6d %5d  (incomplete: %d/%d ranks)\n"
              % (r["op"], r["fam"], r["algo"], r["ranks"], r["rounds"],
                 r["messages"], r["complete_ranks"], r["ranks"]))
            continue
        w("  %10x %-10s %-4s %5d %6d %5d %9.2f %9.2f %8.3f %9.2f %5d\n"
          % (r["op"], r["fam"], r["algo"], r["ranks"], r["rounds"],
             r["messages"], r["e2e_us"], r["cp_us"], r["cp_vs_work"],
             r["uplink_wait_us"], cp["straggler_rank"]))
    w("\naggregate:\n")
    w("  ops: %d (%d with a full cross-rank critical path)\n"
      % (agg["ops"], agg["ops_with_critical_path"]))
    lat = agg["e2e_us"]
    w("  op e2e us: p50=%.2f p95=%.2f p99=%.2f max=%.2f\n"
      % (lat["p50"], lat["p95"], lat["p99"], lat["max"]))
    w("  uplink wait total: %.2f us\n" % agg["uplink_wait_us"])
    if agg["straggler_counts"]:
        w("  stragglers: %s\n"
          % "  ".join("rank %d x%d" % (r, c) for r, c in
                      sorted(agg["straggler_counts"].items(),
                             key=lambda rc: -rc[1])))
    for key, k in sorted(agg["by_kind"].items()):
        w("  %-16s ops=%-3d p50=%.2fus p99=%.2fus max=%.2fus uplink=%.2fus\n"
          % (key, k["ops"], k["e2e_p50_us"], k["e2e_p99_us"],
             k["e2e_max_us"], k["uplink_wait_us"]))

    slowest = max((r for r in op_results if r["critical_path"] is not None),
                  key=lambda r: r["e2e_us"], default=None)
    if slowest is not None:
        cp = slowest["critical_path"]
        w("\nslowest op %x (%s/%s, %.2f us) critical path:\n"
          % (slowest["op"], slowest["fam"], slowest["algo"],
             slowest["e2e_us"]))
        for s in cp["segments"]:
            extra = ""
            if s["kind"] == "wire":
                extra = " uplink=%.2fus rexmt=%d" % (
                    s.get("uplink_wait_us", 0.0), s.get("retransmits", 0))
            if "msg" in s:
                extra += " msg=%d" % s["msg"]
            w("  %-10s rank=%-4d %9.2f..%-9.2f %8.2f us%s\n"
              % (s["kind"], s["rank"], s["from_vt"], s["to_vt"], s["us"],
                 extra))
        attr = slowest.get("cp_rank_attr_us", {})
        if attr:
            w("  rank attribution: %s\n"
              % "  ".join("r%d=%.2fus" % (r, us) for r, us in
                          sorted(attr.items(), key=lambda x: -x[1])))


def strip_trees(op_results):
    """Drop the verbose per-event trees for JSON output; keep structure."""
    out = []
    for r in op_results:
        c = dict(r)
        tree = c.pop("tree")
        c["ranks_detail"] = {
            str(rank): {
                "begin_vt": rk["begin_vt"],
                "end_vt": rk["end_vt"],
                "status": rk["status"],
                "rounds": [
                    {"round": rd["round"], "vt": rd["vt"],
                     "steps": rd["steps"]}
                    for rd in rk["rounds"]
                ],
            }
            for rank, rk in sorted(tree["ranks"].items())
        }
        out.append(c)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trace", help="Chrome trace-event JSON written by "
                                  "MPICD_TRACE_FILE / trace::write_chrome_json")
    ap.add_argument("--json", action="store_true", dest="as_json",
                    help="emit the report as JSON")
    ap.add_argument("--check", action="store_true",
                    help="validate op/round/critical-path reconstruction; "
                         "exit 1 on failure")
    ap.add_argument("--tolerance-us", type=float, default=0.01,
                    help="allowed |cp - e2e| in --check (default 0.01)")
    args = ap.parse_args(argv)

    events = ta.load_events(args.trace)
    spans_by_msg = {m: ta.analyze_msg(m, evs)
                    for m, evs in ta.group_by_msg(events).items()}
    uplink = uplink_by_msg(events)
    ops = build_ops(events)
    op_results = [analyze_op(op, spans_by_msg, uplink)
                  for _, op in sorted(ops.items())]
    agg = aggregate_ops(op_results)

    if args.as_json:
        json.dump({"ops": strip_trees(op_results), "aggregate": agg},
                  sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        print_report(op_results, agg)

    if args.check:
        errors = check(op_results, agg, args.tolerance_us)
        for e in errors:
            sys.stderr.write("coll_analyze: CHECK FAILED: %s\n" % e)
        if errors:
            return 1
        sys.stderr.write("coll_analyze: check OK (%d ops, %d with critical "
                         "path)\n" % (agg["ops"],
                                      agg["ops_with_critical_path"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
