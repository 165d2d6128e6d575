package flat

import "tcpdemux/internal/core"

// This file is the software-pipelined batch lookup path. The per-packet
// path resolves a packet and only then computes the next packet's hash —
// so every probe-group load sits on the critical path, and the CPU
// stalls for the full memory latency of any group not already cached.
// The batch path breaks that serialization the way Jiang et al.'s
// pipelined hash tables do (PAPERS.md): pass 1 hashes the whole train
// (pure arithmetic, no memory dependence), then the resolution loop
// issues a prefetch for the probe group packet i+k will need before
// resolving packet i. By the time the pipeline reaches packet i+k its
// window is (ideally) already in cache, overlapping k resolutions with
// each group's memory latency.
//
// The contract is core.Batcher's: the Result sequence and the statistics
// it folds are identical to calling Lookup once per key in order — the
// cross-discipline batch conformance test asserts this byte for byte,
// and it holds by construction because both paths resolve through the
// same lookupHashed.

// lookupBatch is the one pipeline behind Hopscotch.LookupBatch and
// Concurrent.LookupBatch: it resolves the train without touching the
// table's own statistics and returns the batch's accumulated stats for
// the caller to fold wherever it accounts lookups.
//
//demux:hotpath
func (t *Hopscotch) lookupBatch(keys []core.Key, out []core.Result) ([]core.Result, core.Stats) {
	out = core.SizeResults(out, len(keys))
	var st core.Stats
	if len(keys) == 0 {
		return out, st
	}
	s := t.scratchFor(len(keys))
	for i, k := range keys {
		s.hash[i] = t.hashOf(k)
	}
	d := t.depth
	for i := range keys {
		if j := i + d; d > 0 && j < len(keys) {
			prefetchSpan(t.window(s.hash[j]), &s.sink)
		}
		r := t.lookupHashed(keys[i], s.hash[i])
		st.Record(r)
		out[i] = r
	}
	t.releaseScratch(s)
	return out, st
}

// LookupBatch implements core.Batcher: one Result per key in key order,
// with the probe group for packet i+k prefetched while packet i resolves
// (k = PrefetchDepth; 0 disables the pipeline). out is reused when it
// has capacity.
//
//demux:hotpath
func (t *Hopscotch) LookupBatch(keys []core.Key, _ core.Direction, out []core.Result) []core.Result {
	out, st := t.lookupBatch(keys, out)
	t.stats.Merge(st)
	return out
}
