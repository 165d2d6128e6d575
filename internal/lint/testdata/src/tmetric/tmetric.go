// Package tmetric is the hotalloc fixture for telemetry-style metric
// code: per-bucket atomic words updated by zero-alloc hot paths, the
// shape demuxvet checks in internal/telemetry.
package tmetric

import "sync/atomic"

type hist struct {
	counts [4]atomic.Uint64
	sums   [4]atomic.Uint64
	name   string
}

// observe is the intended hot-path shape: two atomic adds, no
// allocation.
//
//demux:hotpath
func (h *hist) observe(v uint64) {
	h.counts[v&3].Add(1)
	h.sums[v&3].Add(v)
}

// observeSnapshotting allocates a result slice on the hot path — the
// snapshot belongs off the hot path.
//
//demux:hotpath
func (h *hist) observeSnapshotting(v uint64) []uint64 {
	h.counts[0].Add(1)
	out := make([]uint64, 1) // want `make allocates`
	out[0] = v
	return out
}

// snapshot is unmarked: allocation is fine off the hot path.
func snapshot(h *hist) []uint64 {
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}
