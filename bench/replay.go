package main

// The in-process frame path: a population of mini-clients drives
// Deliver on a shard.StackSet (or, for the per-layer ladder, a bare
// engine.Stack) and reads the replies off the egress tap. One goroutine,
// closed loop: a terminal's next request follows its previous reply.

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"tcpdemux/internal/core"
	"tcpdemux/internal/engine"
	"tcpdemux/internal/rng"
	"tcpdemux/internal/server"
	"tcpdemux/internal/shard"
)

// tickEvery is how often the driver advances the engine's clock, the
// cadence demuxd uses (server.DefaultTickInterval).
const tickEvery = 5 * time.Millisecond

// frameTarget is what the replay driver needs from the system under
// test; *shard.StackSet and *engine.Stack both provide it.
type frameTarget interface {
	Deliver(frame []byte) (core.Result, error)
	Tick(now float64)
	Listen(port uint16, h engine.Handler) error
	SetEgressTap(fn func(frame []byte))
	LifecycleCounters() (retransmits, aborts, synExpired, timeWaitExpired uint64)
}

// conn is the mini-client's state for the connection a resident slot
// currently holds.
type conn struct {
	tpl            template
	id             uint32
	sndNxt, rcvNxt uint32
}

// counters are what one measured window counts.
type counters struct {
	txns, inbound, egress, examined uint64
	ticks                           uint64
	tickNs                          int64
}

type replay struct {
	sp          spec
	tgt         frameTarget
	set         *shard.StackSet // nil when the target is a bare engine.Stack
	stack       *engine.Stack   // nil when the target is a StackSet
	deliverSpan spanName

	src    *rng.Source
	conns  []conn
	terms  []terminal
	nextID uint32 // synthetic client ids are never reused within a pass
	ledger *server.Ledger

	egress [][]byte // frames the tap captured during the current Deliver
	// lagQ is a ring of the slots whose reply is not yet acknowledged:
	// lagN of them, the oldest at lagHead.
	lagQ          []int32
	lagHead, lagN int
	epoch         time.Time
	nextTick      time.Duration

	tr     *tracer
	shadow *shadow
	// allocProbe brackets every Deliver with ReadMemStats; see allocPass.
	allocProbe                   bool
	deliverAllocs, handlerAllocs uint64
	ms                           runtime.MemStats

	req, want []byte
	lat       slicer // per-transaction latency of the current window
	c         counters
	// examinedTotal is what Deliver reported over the whole pass, to hold
	// the shadow tables against.
	examinedTotal uint64
	attempted     int
	failed        int
	err           error // the first failure; the pass stops at it
}

// newReplay builds the system under test and opens the resident
// population: everything setup_s covers. With bare set, the target is a
// single engine.Stack holding the whole population in one table.
func newReplay(sp spec, resident int, bare bool, seed uint64, tr *tracer) (*replay, error) {
	sel, err := sp.selection()
	if err != nil {
		return nil, err
	}
	r := &replay{
		sp:     sp,
		src:    rng.New(seed),
		conns:  make([]conn, resident),
		terms:  make([]terminal, resident),
		ledger: server.NewLedger(),
		lagQ:   make([]int32, sp.lag),
		tr:     tr,
		epoch:  time.Now(),
	}
	if bare {
		table, err := sel.New()
		if err != nil {
			return nil, err
		}
		r.stack = engine.NewStack(serverAddr, table, seed)
		r.tgt, r.deliverSpan = r.stack, spanEngineDeliver
	} else {
		r.set, err = shard.NewStackSet(serverAddr, shard.Config{
			Shards:     sp.shards,
			NewDemuxer: sel.PerShard(),
			Seed:       seed,
		})
		if err != nil {
			return nil, err
		}
		r.tgt, r.deliverSpan = r.set, spanShardDeliver
	}
	r.tgt.SetEgressTap(func(frame []byte) { r.egress = append(r.egress, frame) })
	if err := r.tgt.Listen(servicePort, r.handle); err != nil {
		return nil, err
	}
	if tr != nil {
		if r.shadow, err = newShadow(sel, r.set); err != nil {
			return nil, err
		}
	}
	for slot := range r.conns {
		r.terms[slot] = newTerminal(slot)
		r.open(slot)
	}
	return r, r.err
}

// handle is the application behind the listener: internal/server's
// TPC/A protocol code against one shared ledger, as server.handleApp
// runs it. It executes inside Deliver.
func (r *replay) handle(_ *engine.Conn, payload []byte) []byte {
	id := r.tr.begin(spanProtocol, false)
	var m0 uint64
	if r.allocProbe {
		m0 = r.mallocs()
	}
	var out []byte
	n := len(payload)
	if n == 0 || payload[n-1] != '\n' {
		out = server.FormatError("partial line")
	} else if req, err := server.ParseRequest(payload[:n-1]); err != nil {
		out = server.FormatError(err.Error())
	} else {
		a, t, b := r.ledger.Apply(req)
		out = server.FormatResponse(req.Account, a, t, b)
	}
	if r.allocProbe {
		r.handlerAllocs += r.mallocs() - m0
	}
	r.tr.end(id)
	return out
}

func (r *replay) mallocs() uint64 {
	runtime.ReadMemStats(&r.ms)
	return r.ms.Mallocs
}

func (r *replay) fail(err error) {
	r.failed++
	if r.err == nil {
		r.err = err
	}
}

// frameKind tells deliver what the engine will do with a frame, so the
// shadow table can mirror it.
type frameKind uint8

const (
	kindData    frameKind = iota // request, or FIN: looked up as data
	kindAck                      // pure acknowledgement
	kindSyn                      // looked up as data, then the PCB is inserted
	kindLastAck                  // pure acknowledgement, then the PCB is removed
)

// send builds c's next frame and delivers it.
func (r *replay) send(c *conn, flags uint8, payload []byte, kind frameKind) {
	id := r.tr.begin(spanSynth, false)
	frame := c.tpl.build(c.sndNxt, c.rcvNxt, flags, payload)
	c.sndNxt += uint32(len(payload))
	if flags&(flagSYN|flagFIN) != 0 {
		c.sndNxt++
	}
	r.tr.end(id)

	r.c.inbound++
	id = r.tr.begin(r.deliverSpan, false)
	var m0 uint64
	if r.allocProbe {
		m0 = r.mallocs()
	}
	res, err := r.tgt.Deliver(frame)
	if r.allocProbe {
		r.deliverAllocs += r.mallocs() - m0
	}
	r.tr.end(id)
	if err != nil {
		r.fail(fmt.Errorf("Deliver: %w", err))
	}
	r.c.examined += uint64(res.Examined)
	r.examinedTotal += uint64(res.Examined)
	if r.shadow != nil {
		id = r.tr.begin(spanProbes, true)
		r.shadow.frame(r.tr, frame, c.tpl.key(), kind)
		r.tr.end(id)
	}
}

// recv takes the one frame the last Deliver must have produced for c and
// checks it against the mini-client's sequence state.
func (r *replay) recv(c *conn, wantFlags uint8) segment {
	id := r.tr.begin(spanRoute, false)
	defer r.tr.end(id)
	frames := r.egress
	r.egress = r.egress[:0]
	r.c.egress += uint64(len(frames))
	if len(frames) != 1 {
		r.fail(fmt.Errorf("client %d: want 1 egress frame, got %d", c.id, len(frames)))
		return segment{}
	}
	seg, err := parse(frames[0])
	switch {
	case err != nil:
		r.fail(err)
	case seg.id != c.id:
		r.fail(fmt.Errorf("client %d: egress frame addressed to client %d", c.id, seg.id))
	case seg.flags != wantFlags:
		r.fail(fmt.Errorf("client %d: flags %#x, want %#x", c.id, seg.flags, wantFlags))
	case seg.ack != c.sndNxt:
		r.fail(fmt.Errorf("client %d: ack %d, want %d", c.id, seg.ack, c.sndNxt))
	case wantFlags&flagSYN == 0 && seg.seq != c.rcvNxt:
		r.fail(fmt.Errorf("client %d: seq %d, want %d", c.id, seg.seq, c.rcvNxt))
	}
	if r.tr.sampling() {
		id := r.tr.begin(spanProbes, true)
		probeBuild(r.tr, frames[0])
		r.tr.end(id)
	}
	return seg
}

// quiet checks that the last Deliver produced nothing.
func (r *replay) quiet(c *conn) {
	if n := len(r.egress); n != 0 {
		r.c.egress += uint64(n)
		r.egress = r.egress[:0]
		r.fail(fmt.Errorf("client %d: %d unexpected egress frame(s)", c.id, n))
	}
}

// open gives slot a fresh tuple and completes the three-way handshake:
// two inbound frames.
func (r *replay) open(slot int) {
	c := &r.conns[slot]
	*c = conn{tpl: newTemplate(r.nextID), id: r.nextID, sndNxt: uint32(r.src.Uint64())}
	r.nextID++
	r.send(c, flagSYN, nil, kindSyn)
	seg := r.recv(c, flagSYN|flagACK)
	c.rcvNxt = seg.seq + 1
	r.send(c, flagACK, nil, kindAck)
	r.quiet(c)
}

// close ends slot's connection from the client side (FIN, the engine's
// FIN|ACK, the last ACK) and releases its claim as the serving frontend
// does: two inbound frames.
func (r *replay) close(slot int) {
	c := &r.conns[slot]
	r.send(c, flagFIN|flagACK, nil, kindData)
	r.recv(c, flagFIN|flagACK)
	c.rcvNxt++
	r.send(c, flagACK, nil, kindLastAck)
	r.quiet(c)
	if r.set != nil {
		r.set.Release(c.tpl.key())
	}
}

// request runs one TPC/A transaction on slot up to the verified reply.
func (r *replay) request(slot int) {
	c, t := &r.conns[slot], &r.terms[slot]
	id := r.tr.begin(spanSynth, false)
	k, delta := r.src.Intn(accountsPer), int64(r.src.Intn(1999)-999)
	r.req, r.want = t.next(r.req[:0], r.want[:0], k, delta)
	r.tr.end(id)
	r.send(c, flagACK|flagPSH, r.req, kindData)
	seg := r.recv(c, flagACK|flagPSH)
	if r.err == nil && !bytes.Equal(seg.payload, r.want) {
		r.fail(fmt.Errorf("client %d: got %q want %q", c.id, seg.payload, r.want))
	}
	c.rcvNxt += uint32(len(seg.payload))
}

// ack acknowledges slot's latest reply.
func (r *replay) ack(slot int32) {
	c := &r.conns[slot]
	r.send(c, flagACK, nil, kindAck)
	r.quiet(c)
}

// ackLater queues slot's acknowledgement behind the lag newer replies;
// once the queue is full each call delivers the oldest.
func (r *replay) ackLater(slot int32) {
	lag := len(r.lagQ)
	switch {
	case lag == 0:
		r.ack(slot)
	case r.lagN < lag:
		r.lagQ[(r.lagHead+r.lagN)%lag] = slot
		r.lagN++
	default:
		r.ack(r.lagQ[r.lagHead])
		r.lagQ[r.lagHead] = slot
		r.lagHead = (r.lagHead + 1) % lag
	}
}

// window is what one measured stretch of transactions produced: every
// latency sample, in ns, and the same samples cut into slices.
type window struct {
	counters
	seconds float64
	lat     []uint32
	slices  []slice
	usage   usage
}

// run drives transactions until dur has passed or, when maxTxns is
// positive, until exactly that many are done, whatever the clock says. A
// transaction is the workload's whole unit: on a churn workload it starts
// by replacing a connection. The acknowledgement of a reply is delivered
// lag transactions later, the gap TPC/A's response time opens between a
// request and its ACK.
func (r *replay) run(dur time.Duration, maxTxns int) window {
	r.c = counters{}
	u0 := readUsage()
	r.lat.reset(time.Now())
	start := time.Since(r.epoch)
	now := start
	for r.err == nil {
		root := r.tr.startTxn()
		r.attempted++
		t0 := time.Now()
		if r.sp.churn {
			slot := r.src.Intn(len(r.conns))
			r.close(slot)
			r.open(slot)
		}
		slot := r.src.Intn(len(r.conns))
		r.request(slot)
		t1 := time.Now()
		r.lat.add(t1.Sub(t0), t1)
		r.ackLater(int32(slot))
		r.tr.endTxn(root)
		r.c.txns++

		now = t1.Sub(r.epoch)
		if now >= r.nextTick {
			r.tick(now)
		}
		if (maxTxns == 0 && now-start >= dur) || (maxTxns > 0 && int(r.c.txns) >= maxTxns) {
			break
		}
	}
	seconds := (time.Since(r.epoch) - start).Seconds()
	return window{
		counters: r.c,
		seconds:  seconds,
		usage:    readUsage().sub(u0),
		slices:   r.lat.slices(seconds),
		lat:      r.lat.lat,
	}
}

// tick advances the engine's virtual clock to wall time, as demuxd's
// engine loop does.
func (r *replay) tick(now time.Duration) {
	t0 := time.Now()
	r.tgt.Tick(now.Seconds())
	r.c.tickNs += time.Since(t0).Nanoseconds()
	r.c.ticks++
	r.nextTick = now + tickEvery
	r.quietTick()
}

// quietTick fails the pass if a Tick emitted anything: on a lossless path
// only a retransmission could.
func (r *replay) quietTick() {
	if n := len(r.egress); n != 0 {
		r.egress = r.egress[:0]
		r.fail(fmt.Errorf("Tick emitted %d frame(s): retransmission on a lossless path", n))
	}
}

// population is the target's PCB count, listeners included.
func (r *replay) population() int {
	if r.set != nil {
		return r.set.Len()
	}
	return r.stack.Demuxer().Len()
}

// finish delivers the acknowledgements still owed and runs the checks
// that hold for the pass as a whole. It returns the count metrics the
// target's own counters give.
func (r *replay) finish() map[string]float64 {
	for ; r.lagN > 0 && r.err == nil; r.lagN-- {
		r.ack(r.lagQ[r.lagHead])
		r.lagHead = (r.lagHead + 1) % len(r.lagQ)
	}
	counts := map[string]float64{}
	retransmits, aborts, _, _ := r.tgt.LifecycleCounters()
	counts["engine.retransmits"] = float64(retransmits)
	if retransmits != 0 || aborts != 0 {
		r.fail(fmt.Errorf("engine retransmitted %d segment(s), aborted %d connection(s)", retransmits, aborts))
	}
	listeners := 1
	var lookups, hits uint64
	tableStats := func(s *engine.Stack) {
		st := s.Demuxer().Stats()
		lookups += st.Lookups
		hits += st.Hits
	}
	if r.set == nil {
		tableStats(r.stack)
	} else {
		listeners = r.set.Shards()
		acc := r.set.Accounting()
		balanced := acc.Balanced() && acc.Queued == 0
		counts["shard.ledger_balanced"] = b2f(balanced)
		counts["shard.inbox_full_events"] = float64(r.set.InboxFullEvents)
		counts["shard.shed_frames"] = float64(acc.Shed)
		if !balanced || acc.Shed != 0 {
			r.fail(fmt.Errorf("shard ledger: %+v", acc))
		}
		var most, sum uint64
		for i, n := range r.set.Steered {
			most, sum = max(most, n), sum+n
			tableStats(r.set.Shard(i))
		}
		counts["shard.steer_imbalance"] = float64(most) * float64(len(r.set.Steered)) / float64(sum)
	}
	if lookups > 0 {
		counts["discipline.cache_hit_ratio"] = float64(hits) / float64(lookups)
	}
	if got, want := r.population(), len(r.conns)+listeners; got != want {
		r.fail(fmt.Errorf("population %d at the end, want %d: a connection leaked or was lost", got, want))
	}
	return counts
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
