package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"sort"
	"time"
)

// spanName says which call a span timed. The names starting "harness"
// are the benchmark's own work; the rest are calls into a layer.
type spanName uint8

const (
	spanTxn           spanName = iota // root: one transaction
	spanSynth                         // build a request line or a frame
	spanRoute                         // read and check the reply frame
	spanVerify                        // compare a live reply with the oracle
	spanShardDeliver                  // StackSet.Deliver
	spanEngineDeliver                 // engine.Stack.Deliver
	spanProtocol                      // the TPC/A handler inside Deliver
	spanRoundTrip                     // socket Write to full reply line
	spanProbes                        // groups the probe spans of one frame
	spanExtract                       // probe: wire.ExtractTuple
	spanSteer                         // probe: shard.Steering.Shard
	spanParse                         // probe: wire.ParseSegment
	spanLookup                        // probe: discipline lookup on the shadow table
	spanBuild                         // probe: wire.BuildSegment
	spanEmpty                         // tracer cost: an empty span
	spanOuter                         // tracer cost: a span holding one empty span
	spanInner
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"bench.txn", "harness.synth", "harness.route", "harness.verify",
	"shard.Deliver", "engine.Deliver", "server.protocol", "server.roundtrip",
	"probes", "wire.ExtractTuple", "shard.Steering.Shard", "wire.ParseSegment",
	"discipline.Lookup", "wire.BuildSegment",
	"tracer.empty", "tracer.outer", "tracer.inner",
}

// A span is one timed call recorded from the benchmark's own files.
// parent is the index of the enclosing span (-1 for a root); spans of one
// transaction share txn. A probe span repeats a layer's work on the same
// frame to time it alone and is not part of the transaction's blocking
// path. The struct holds no pointers, so the collector never scans the
// span buffer.
type span struct {
	txn        uint64
	start, end int64 // ns since the tracer's epoch
	parent     int32
	name       spanName
	probe      bool
}

// maxSpans caps what one pass keeps in memory.
const maxSpans = 1 << 20

// sampleEvery is the sampling period, in transactions.
const sampleEvery = 64

// tracer records spans for every sampleEvery-th transaction. All methods
// accept a nil receiver, which is the untraced run.
type tracer struct {
	spans []span
	epoch time.Time
	phase uint64 // which residue of txn%sampleEvery is sampled; from the seed
	txn   uint64
	on    bool  // the current transaction is sampled
	cur   int32 // innermost open span, the parent of the next begin
}

func newTracer(seed uint64) *tracer {
	return &tracer{spans: make([]span, 0, maxSpans), epoch: time.Now(), phase: seed % sampleEvery, cur: -1}
}

// startTxn opens the root span of the next transaction if it is sampled.
func (t *tracer) startTxn() int32 {
	if t == nil {
		return -1
	}
	t.txn++
	t.on = t.txn%sampleEvery == t.phase && len(t.spans) < maxSpans-64
	t.cur = -1
	return t.begin(spanTxn, false)
}

func (t *tracer) sampling() bool { return t != nil && t.on }

func (t *tracer) begin(name spanName, probe bool) int32 {
	if t == nil || !t.on {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, txn: t.txn, parent: t.cur, probe: probe})
	t.cur = id
	t.spans[id].start = int64(time.Since(t.epoch))
	return id
}

func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.spans[id].end = now
	t.cur = t.spans[id].parent
}

// endTxn closes a transaction's root span. On a sampled transaction it
// first records three empty spans, one alone and one inside another:
// what they measure is the tracer's own cost where it is paid, with the
// span buffer cold, and layerTimes subtracts it from everything else.
func (t *tracer) endTxn(root int32) {
	if root < 0 {
		return
	}
	t.end(t.begin(spanEmpty, true))
	outer := t.begin(spanOuter, true)
	t.end(t.begin(spanInner, true))
	t.end(outer)
	t.end(root)
}

// layerTime is what the spans of one name add up to, corrected for the
// tracer's own cost: total duration, and total self time (duration minus
// the part the span's children cover).
type layerTime struct {
	n         int
	dur, self float64
}

// layerTimes is the result of a traced pass, by span name; pairNs is
// what one begin/end pair cost the span around it.
type layerTimes struct {
	by     [numSpanNames]layerTime
	pairNs float64
}

func (t *tracer) layerTimes() layerTimes {
	// The slowest hundredth of the traced transactions are left out, all
	// their spans together, so that the layers still add up to the
	// transaction. On a shared host those are the transactions the
	// hypervisor interrupted: one 30 ms gap among 10000 spans of 1 us would
	// otherwise quadruple that span's mean.
	var roots []int64
	for _, s := range t.spans {
		if s.name == spanTxn {
			roots = append(roots, s.end-s.start)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
	cut := int64(math.MaxInt64)
	if len(roots) >= 100 {
		cut = roots[len(roots)*99/100]
	}
	keep := make([]bool, len(t.spans))
	kept := false
	for i, s := range t.spans {
		if s.name == spanTxn {
			kept = s.end-s.start < cut
		}
		keep[i] = kept
	}

	// emptyNs is the duration an empty span records.
	var emptyNs, outerNs, n float64
	for i, s := range t.spans {
		switch {
		case !keep[i]:
		case s.name == spanEmpty:
			emptyNs += float64(s.end - s.start)
			n++
		case s.name == spanOuter:
			outerNs += float64(s.end - s.start)
		}
	}
	if n > 0 {
		emptyNs, outerNs = emptyNs/n, outerNs/n
	}
	out := layerTimes{pairNs: outerNs - emptyNs}

	// Children follow their parents in t.spans, so one reverse sweep
	// counts every span's descendants; each descendant's begin/end pair
	// ran inside the ancestor and is not the ancestor's work.
	desc := make([]int, len(t.spans))
	for i := len(t.spans) - 1; i >= 0; i-- {
		if p := t.spans[i].parent; p >= 0 {
			desc[p] += desc[i] + 1
		}
	}
	work := make([]float64, len(t.spans))
	children := make([]float64, len(t.spans))
	for i, s := range t.spans {
		work[i] = float64(s.end-s.start) - emptyNs - float64(desc[i])*out.pairNs
		if s.parent >= 0 {
			children[s.parent] += work[i]
		}
	}
	for i, s := range t.spans {
		if !keep[i] {
			continue
		}
		lt := &out.by[s.name]
		lt.n++
		lt.dur += work[i]
		lt.self += work[i] - children[i]
	}
	return out
}

// perSpan is the named span's mean duration, floored at zero.
func (m *layerTimes) perSpan(name spanName) float64 {
	lt := m.by[name]
	if lt.n == 0 {
		return 0
	}
	return max(0, lt.dur/float64(lt.n))
}

// selfPerSpan is the named span's mean self time.
func (m *layerTimes) selfPerSpan(name spanName) float64 {
	lt := m.by[name]
	if lt.n == 0 {
		return 0
	}
	return lt.self / float64(lt.n)
}

// selfPerTxn is the named span's total self time per recorded
// transaction, floored at zero.
func (m *layerTimes) selfPerTxn(name spanName) float64 {
	roots := m.by[spanTxn].n
	if roots == 0 {
		return 0
	}
	return max(0, m.by[name].self/float64(roots))
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range t.spans {
		err := enc.Encode(struct {
			Name   string `json:"name"`
			Txn    uint64 `json:"txn"`
			ID     int    `json:"id"`
			Parent int32  `json:"parent"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
			Probe  bool   `json:"probe,omitempty"`
		}{spanNames[s.name], s.txn, i, s.parent, s.start, s.end, s.probe})
		if err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
