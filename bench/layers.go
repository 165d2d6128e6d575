package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// traced is the result of one traced run of one workload: every
// per-layer metric, and the verdict of every pass it took to get them.
type traced struct {
	layers    map[string]float64
	attempted int
	failed    int
	err       error
}

// runTraced produces the per-layer ladder for sp. Whatever the workload,
// it takes the same five passes, all on sp's engine configuration, so
// that every layer has a measured value on every workload:
//
//	U  the workload itself, untraced: the base for the tracing overhead,
//	   and the process-wide costs
//	T  the replay driver on a StackSet, traced and probed (for a replay
//	   workload this is the workload; for live-oltp it is the frame path
//	   the server drives, at the same population)
//	E  the replay driver on a bare engine.Stack holding one shard's share
//	   of the population, traced and probed
//	V  the live driver through server.New, traced (for live-oltp this is
//	   the workload; for a replay workload it is what the frontend would
//	   add, with at most 2000 sockets and no churn)
//	F  the live driver against the echo server: the loopback floor
//
// The spans of the workload's own traced pass are written to
// outDir/trace-<workload>.jsonl.
func runTraced(sp spec, seed uint64, seconds float64, outDir string) traced {
	res := traced{layers: map[string]float64{}}
	part := func(share float64) time.Duration { return time.Duration(share * seconds * float64(time.Second)) }
	add := func(what string, r round) {
		res.attempted += r.attempted
		res.failed += r.failed
		if res.err == nil && r.err != nil {
			res.err = fmt.Errorf("%s pass: %w", what, r.err)
		}
	}
	// 2000 sockets cover replay-scan's whole list, the one table whose
	// frame cost depends on the population; the hashed tables' does not,
	// so their 6000 connections need not all become file descriptors.
	sockets := min(sp.resident, 2000)
	shareT, shareV := 0.3, 0.15 // the workload's own traced pass gets the larger share
	if sp.live {
		shareT, shareV = shareV, shareT
	}

	// Each traced pass has a span buffer of its own, folded into layer
	// times (and, for the workload's own pass, written out) as soon as
	// the pass ends, so that only one buffer is live at a time.
	var traceErr error
	tracedPass := func(own bool, run func(tr *tracer)) layerTimes {
		tr := newTracer(seed)
		run(tr)
		if own && traceErr == nil {
			traceErr = tr.write(filepath.Join(outDir, "trace-"+sp.name+".jsonl"))
		}
		return tr.layerTimes()
	}

	// T, U and E. U is not first: the process's first pass runs slower
	// than its later ones, and U is the base T's overhead is taken from.
	frame := sp
	if sp.live {
		frame.live, frame.lag = false, 0
	}
	var t, e replayPass
	mT := tracedPass(!sp.live, func(tr *tracer) {
		t = replayRound(frame, frame.resident, false, seed, part(shareT), 0, tr)
	})
	add("StackSet", t.round)
	u := runRound(sp, seed, part(0.2), 0)
	add("untraced", u)
	mE := tracedPass(false, func(tr *tracer) {
		e = replayRound(frame, max(1, frame.resident/frame.shards), true, seed, part(0.2), 0, tr)
	})
	add("engine", e.round)

	// V and F
	probe := sp
	probe.churn, probe.lag, probe.wantExamined = false, 0, 0
	probe.inboundPerTxn = 2
	var v livePass
	mV := tracedPass(sp.live, func(tr *tracer) {
		v = liveRound(probe, sockets, false, seed, part(shareV), 0, tr)
	})
	add("live", v.round)
	f := liveRound(probe, sockets, true, seed, part(0.1), 0, nil)
	add("echo", f.round)
	if res.err == nil {
		res.err = traceErr
	}
	if res.err != nil {
		return res
	}
	own, ownM := t.round, mT
	if sp.live {
		own, ownM = v.round, mV
	}

	L := res.layers
	L["wire.extract_ns_per_frame"] = mT.perSpan(spanExtract)
	L["wire.parse_ns_per_frame"] = mT.perSpan(spanParse)
	L["wire.build_ns_per_frame"] = mT.perSpan(spanBuild)
	L["wire.parse_allocs_per_frame"], L["wire.build_allocs_per_frame"] = wireAllocs()
	L["shard.steer_ns_per_frame"] = mT.perSpan(spanSteer)
	L["discipline.lookup_ns_per_frame"] = mT.perSpan(spanLookup)
	L["discipline.insert_ns"] = t.insertNs
	L["discipline.remove_ns"] = t.removeNs
	L["discipline.examined_per_frame"] = own.counts["discipline.examined_per_frame"]
	L["discipline.cache_hit_ratio"] = t.counts["discipline.cache_hit_ratio"]
	L["discipline.shadow_match"] = min(t.counts["discipline.shadow_match"], e.counts["discipline.shadow_match"])

	// The handler span is Deliver's only child, so Deliver's self time is
	// the frame path alone, with internal/server's protocol code taken out.
	shardDeliver := mT.selfPerSpan(spanShardDeliver)
	engineDeliver := mE.selfPerSpan(spanEngineDeliver)
	egressPerFrame := e.counts["engine.egress_frames_per_txn"] / e.counts["engine.inbound_frames_per_txn"]
	L["engine.deliver_ns_per_frame"] = engineDeliver
	L["engine.allocs_per_frame"] = e.frameAllocs
	L["engine.self_ns_per_frame"] = engineDeliver - mE.perSpan(spanParse) -
		mE.perSpan(spanLookup) - egressPerFrame*mE.perSpan(spanBuild)
	L["engine.inbound_frames_per_txn"] = t.counts["engine.inbound_frames_per_txn"]
	L["engine.egress_frames_per_txn"] = t.counts["engine.egress_frames_per_txn"]
	L["engine.retransmits"] = t.counts["engine.retransmits"] + e.counts["engine.retransmits"] + v.counts["engine.retransmits"]
	L["engine.tick_ns"] = t.tickNs
	L["shard.deliver_ns_per_frame"] = shardDeliver
	L["shard.allocs_per_frame"] = t.frameAllocs
	L["shard.self_ns_per_frame"] = shardDeliver - engineDeliver
	for _, name := range []string{"shard.inbox_full_events", "shard.shed_frames"} {
		L[name] = t.counts[name] + v.counts[name]
	}
	L["shard.steer_imbalance"] = t.counts["shard.steer_imbalance"]
	L["shard.ledger_balanced"] = min(t.counts["shard.ledger_balanced"], v.counts["shard.ledger_balanced"])

	protocol := mT.perSpan(spanProtocol)
	L["server.protocol_ns_per_txn"] = protocol
	L["server.txn_p50_us"] = v.e2e["txn_p50_us"]
	L["server.txn_p999_us"] = v.p999Us
	L["server.self_us_per_txn"] = v.e2e["txn_p50_us"] - f.e2e["txn_p50_us"] -
		(v.counts["engine.inbound_frames_per_txn"]*shardDeliver+protocol)/1e3
	L["server.accept_us_per_conn"] = v.setupS / float64(sockets) * 1e6
	L["server.goroutines_per_conn"] = v.goroutinesPerConn
	L["server.frames_synth_per_txn"] = v.counts["engine.inbound_frames_per_txn"]
	L["server.shed_conns"] = v.counts["server.shed_conns"]
	L["server.ledger_balanced"] = v.counts["server.ledger_balanced"]

	L["process.cpu_us_per_txn"] = float64(u.usage.cpu.Microseconds()) / float64(u.txns)
	L["process.allocs_per_txn"] = float64(u.usage.mallocs) / float64(u.txns)
	L["process.gc_cycles"] = float64(u.usage.gcs)
	L["process.retained_bytes_per_txn"] = u.retained

	L["harness.allocs_per_txn"] = t.harnessAllocs
	if sp.live {
		L["harness.allocs_per_txn"] = f.allocsPerTxn
	}
	L["harness.client_ns_per_txn"] = ownM.selfPerTxn(spanTxn) + ownM.selfPerTxn(spanSynth) +
		ownM.selfPerTxn(spanRoute) + ownM.selfPerTxn(spanVerify)
	L["harness.loopback_floor_us"] = f.e2e["txn_p50_us"]
	L["harness.calib_ns_per_op"] = median([]float64{u.calib, t.calib, e.calib, v.calib, f.calib})
	L["harness.trace_overhead_ratio"] = u.e2e["txn_per_s"] / own.e2e["txn_per_s"]
	L["harness.span_ns"] = ownM.pairNs
	L["harness.txn_samples"] = float64(u.samples)
	L["harness.txn_tail_pct"] = u.tailPct
	L["harness.txn_tail_us"] = u.tailUs
	return res
}
