package main

// Probes: a layer's public function called again, alone, on the frame
// the workload just delivered, so that its time can be read off a span.
// They run after the real Deliver (which is therefore undisturbed) and
// are marked as probes: they are not on the transaction's blocking path.
// internal/wire is called from here and from nowhere else in the harness.

import (
	"runtime"
	"time"

	"tcpdemux/internal/core"
	"tcpdemux/internal/discipline"
	"tcpdemux/internal/rng"
	"tcpdemux/internal/shard"
	"tcpdemux/internal/wire"
)

// shadow is a second copy of the target's demux tables, built from
// discipline.Selection.New like the real ones, holding the same
// population and given the same lookups in the same order. It therefore
// examines what the real tables examine, where a span can time it.
type shadow struct {
	tables   []core.Demuxer
	set      *shard.StackSet // nil: one table, no steering
	examined uint64
}

func newShadow(sel discipline.Selection, set *shard.StackSet) (*shadow, error) {
	n := 1
	if set != nil {
		n = set.Shards()
	}
	sh := &shadow{tables: make([]core.Demuxer, n), set: set}
	for i := range sh.tables {
		t, err := sel.New()
		if err != nil {
			return nil, err
		}
		if err := t.Insert(core.NewListenPCB(core.ListenKey(serverAddr, servicePort))); err != nil {
			return nil, err
		}
		sh.tables[i] = t
	}
	return sh, nil
}

// frame repeats on the shadow what the engine just did for one inbound
// frame. Every frame of a traced pass comes through here, so that the
// shadow's state tracks the real tables'; spans are recorded only on
// sampled transactions.
func (sh *shadow) frame(tr *tracer, frame []byte, key core.Key, kind frameKind) {
	id := tr.begin(spanExtract, true)
	tup, _ := wire.ExtractTuple(frame)
	tr.end(id)
	table := sh.tables[0]
	if sh.set != nil {
		steer := sh.set.Steering()
		id = tr.begin(spanSteer, true)
		idx := steer.Shard(tup)
		tr.end(id)
		table = sh.tables[idx]
	}
	if tr.sampling() {
		id = tr.begin(spanParse, true)
		_, _ = wire.ParseSegment(frame)
		tr.end(id)
	}
	dir := core.DirData
	if kind == kindAck || kind == kindLastAck {
		dir = core.DirAck
	}
	id = tr.begin(spanLookup, true)
	res := table.Lookup(key, dir)
	tr.end(id)
	sh.examined += uint64(res.Examined)
	switch kind {
	case kindSyn:
		_ = table.Insert(core.NewPCB(key))
	case kindLastAck:
		table.Remove(key)
	}
}

// mutationCost times Remove and Insert on the shadow at full population,
// one call at a time, for up to 2000 seeded-random resident keys. It
// runs after the pass, so reordering the shadow no longer matters.
func (sh *shadow) mutationCost(src *rng.Source, conns []conn) (insertNs, removeNs float64) {
	n := min(len(conns), 2000)
	var ins, rem time.Duration
	for i := 0; i < n; i++ {
		key := conns[src.Intn(len(conns))].tpl.key()
		table := sh.tables[0]
		if sh.set != nil {
			table = sh.tables[sh.set.Steering().Shard(key.Tuple())]
		}
		t0 := time.Now()
		table.Remove(key)
		t1 := time.Now()
		_ = table.Insert(core.NewPCB(key))
		t2 := time.Now()
		rem += t1.Sub(t0)
		ins += t2.Sub(t1)
	}
	// One clock reading per call is part of the figure: about 20 ns.
	return float64(ins.Nanoseconds()) / float64(n), float64(rem.Nanoseconds()) / float64(n)
}

// probeBuild times wire.BuildSegment on the headers and payload of one
// egress frame.
func probeBuild(tr *tracer, frame []byte) {
	seg, err := wire.ParseSegment(frame)
	if err != nil {
		return
	}
	id := tr.begin(spanBuild, true)
	_, _ = wire.BuildSegment(seg.IP, seg.TCP, seg.Payload)
	tr.end(id)
}

// wireAllocs counts the heap allocations of one ParseSegment and one
// BuildSegment call on a request frame.
func wireAllocs() (parse, build float64) {
	const n = 64
	tpl := newTemplate(0)
	frame := tpl.build(1, 1, flagACK|flagPSH, []byte("TXN 0 0 0 1\n"))
	seg, err := wire.ParseSegment(frame)
	if err != nil {
		return 0, 0
	}
	parse = allocsPer(n, func() { _, _ = wire.ParseSegment(frame) })
	build = allocsPer(n, func() { _, _ = wire.BuildSegment(seg.IP, seg.TCP, seg.Payload) })
	return parse, build
}

// allocsPer is the mean number of heap objects one call of fn allocates.
func allocsPer(n int, fn func()) float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs-before) / float64(n)
}
