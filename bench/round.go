package main

import (
	"fmt"
	"math"
	"time"
)

// warmUp is the untimed stretch that precedes every measured window, so
// that caches fill and lazy set-up finishes before timing.
const warmUp = 300 * time.Millisecond

// round is one untraced measurement of one workload on a freshly built
// system: the five end-to-end metrics, the exact counts, and the checks.
type round struct {
	e2e       map[string]float64
	counts    map[string]float64
	attempted int
	failed    int
	samples   int
	tailPct   float64 // the highest percentile with ten samples beyond it
	tailUs    float64
	calib     float64
	slices    sliceStats
	usage     usage
	// retained is the memory the system held on to per transaction served
	// since set-up, warm-up included, the latency buffer left out.
	retained float64
	txns     uint64
	err      error
}

// runRound measures sp for dur (or, for the determinism test, exactly
// maxTxns transactions).
func runRound(sp spec, seed uint64, dur time.Duration, maxTxns int) round {
	if sp.live {
		return liveRound(sp, sp.resident, false, seed, dur, maxTxns, nil).round
	}
	return replayRound(sp, sp.resident, false, seed, dur, maxTxns, nil).round
}

// replayPass is a replayRound's result with what the traced run needs on
// top.
type replayPass struct {
	round
	harnessAllocs, frameAllocs float64
	insertNs, removeNs         float64
	tickNs                     float64
}

// replayRound builds the target, warms it, measures one window, and
// checks the pass. With a tracer it also runs the allocation probe and
// times the shadow's mutations before tearing down.
func replayRound(sp spec, resident int, bare bool, seed uint64, dur time.Duration, maxTxns int, tr *tracer) replayPass {
	p := replayPass{round: round{calib: calibrate()}}
	mem0 := residentBytes()
	t0 := time.Now()
	r, err := newReplay(sp, resident, bare, seed, tr)
	setup := time.Since(t0).Seconds()
	if err != nil {
		p.err = fmt.Errorf("set-up: %w", err)
		p.attempted, p.failed = 1, 1
		return p
	}
	mem1 := residentBytes()

	warm := r.run(warmUp, maxTxns)
	if r.lagN < len(r.lagQ) {
		r.run(0, len(r.lagQ)) // a window has two frames per transaction only once the lag queue is full
	}
	r.lat.lat = make([]uint32, 0, int(float64(warm.txns)/warm.seconds*dur.Seconds()*1.5)+maxTxns+1024)
	win := r.run(dur, maxTxns)
	p.retained = (residentBytes() - mem1 - float64(4*cap(r.lat.lat))) / float64(r.attempted)
	if tr != nil && r.err == nil {
		p.allocProbe(r)
	}
	p.counts = r.finish()
	p.fill(sp, win, setup, (mem1-mem0)/float64(resident))
	p.counts["discipline.examined_per_frame"] = float64(win.examined) / float64(win.inbound)
	p.counts["engine.egress_frames_per_txn"] = float64(win.egress) / float64(win.txns)
	if win.ticks > 0 {
		p.tickNs = float64(win.tickNs) / float64(win.ticks)
	}
	if r.shadow != nil {
		p.counts["discipline.shadow_match"] = b2f(r.shadow.examined == r.examinedTotal)
		p.insertNs, p.removeNs = r.shadow.mutationCost(r.src, r.conns)
	}
	p.attempted, p.failed, p.err = r.attempted, r.failed, r.err
	p.check(sp)
	return p
}

// allocProbe runs 256 transactions with every Deliver bracketed by
// ReadMemStats, which is exact but far too slow for a timed window.
func (p *replayPass) allocProbe(r *replay) {
	tr := r.tr
	r.tr = nil
	r.allocProbe = true
	before := r.mallocs()
	win := r.run(0, 256)
	total := r.mallocs() - before
	r.allocProbe = false
	r.tr = tr
	p.frameAllocs = float64(r.deliverAllocs-r.handlerAllocs) / float64(win.inbound)
	p.harnessAllocs = float64(total-r.deliverAllocs) / float64(win.txns)
}

// fill turns a measured window into the round's metrics.
func (p *round) fill(sp spec, win window, setupS, memPerConn float64) {
	// Every live worker is sliced by itself, and the workers run side by
	// side: the window's rate is a slice's, times the worker count.
	workers := 1.0
	if sp.live {
		workers = float64(liveWorkers())
	}
	rate, lat := fastest(win.slices)
	p.e2e = map[string]float64{
		"txn_per_s":          workers * rate,
		"txn_p50_us":         percentile(lat, 0.50),
		"txn_p99_us":         percentile(lat, 0.99),
		"mem_per_conn_bytes": memPerConn,
		"setup_s":            setupS,
	}
	p.slices = perSlice(win.slices) // before the whole window is sorted: the slices are views of it
	sortLat(win.lat)
	p.samples = len(win.lat)
	p.tailPct, p.tailUs = tail(win.lat)
	p.usage, p.txns = win.usage, win.txns
	if p.counts == nil {
		p.counts = map[string]float64{}
	}
	p.counts["engine.inbound_frames_per_txn"] = float64(win.inbound) / float64(win.txns)
}

// check applies the workload's self-checks to a finished round.
func (p *round) check(sp spec) {
	if p.err != nil {
		return
	}
	if got := p.counts["engine.inbound_frames_per_txn"]; got != sp.inboundPerTxn {
		p.err = fmt.Errorf("%g inbound frames per transaction, want exactly %g", got, sp.inboundPerTxn)
	}
	if got := p.counts["discipline.examined_per_frame"]; sp.wantExamined > 0 && math.Abs(got-sp.wantExamined) > 0.01*sp.wantExamined {
		p.err = fmt.Errorf("%.1f PCBs examined per frame, want %g within 1%%", got, sp.wantExamined)
	}
	if p.err != nil {
		p.failed++
	}
}

// livePass is a liveRound's result with what the traced run needs on
// top.
type livePass struct {
	round
	setupS            float64
	goroutinesPerConn float64
	p999Us            float64
	allocsPerTxn      float64
}

// liveRound starts the frontend (or the echo server), opens the resident
// sockets, warms up, measures one window, and shuts down.
func liveRound(sp spec, resident int, echo bool, seed uint64, dur time.Duration, maxTxns int, tr *tracer) livePass {
	p := livePass{round: round{calib: calibrate()}}
	mem0 := residentBytes()
	t0 := time.Now()
	l, err := newLive(sp, resident, echo, seed, tr)
	p.setupS = time.Since(t0).Seconds()
	if err != nil {
		if l != nil {
			_, _ = l.finish()
		}
		p.err = fmt.Errorf("set-up: %w", err)
		p.attempted, p.failed = 1, 1
		return p
	}
	mem1 := residentBytes()
	p.goroutinesPerConn = l.goroutinesPerConn

	warm := l.run(warmUp, maxTxns)
	latBytes := 0
	for _, w := range l.workers {
		w.lat.lat = make([]uint32, 0, int(float64(warm.txns)/warm.seconds*dur.Seconds()*1.5)+maxTxns+1024)
		latBytes += 4 * cap(w.lat.lat)
	}
	win := l.run(dur, maxTxns)
	p.attempted, p.failed, p.err = l.tally()
	p.retained = (residentBytes() - mem1 - float64(latBytes)) / float64(warm.txns+win.txns)
	var ferr error
	p.counts, ferr = l.finish()
	if p.err == nil && ferr != nil {
		p.err = ferr
		p.failed++
	}
	p.fill(sp, win, p.setupS, (mem1-mem0)/float64(resident))
	p.p999Us = percentile(win.lat, 0.999)
	p.allocsPerTxn = float64(win.usage.mallocs) / float64(win.txns)
	if l.srv != nil {
		var lookups, examined uint64
		for i := 0; i < l.srv.StackSet().Shards(); i++ {
			st := l.srv.StackSet().Shard(i).Demuxer().Stats()
			lookups, examined = lookups+st.Lookups, examined+st.Examined
		}
		p.counts["discipline.examined_per_frame"] = float64(examined) / float64(lookups)
		p.check(sp)
	}
	return p
}
