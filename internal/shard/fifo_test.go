package shard

import "testing"

// TestFifoOrderAndWrap laps a small queue several times (fixed slots,
// wrapping indices): frames come out in the order they went in across the
// index wrap, a push beyond the bound is refused, nothing is allocated
// before the first push, and a popped slot no longer holds its frame.
func TestFifoOrderAndWrap(t *testing.T) {
	const bound = 3
	q := fifo{bound: bound}
	if _, ok := q.pop(); ok {
		t.Fatal("pop on an empty queue succeeded")
	}
	if q.buf != nil {
		t.Fatal("slots allocated before the first push")
	}
	// Frame i is the one byte i.
	next := byte(0)
	push := func() bool {
		ok := q.push([]byte{next})
		if ok {
			next++
		}
		return ok
	}
	// One frame stays queued across the laps so that head moves off a
	// multiple of the bound and every lap wraps mid-way.
	push()
	for want, lap := byte(0), 0; lap < 5; lap++ {
		for q.len() < bound {
			if !push() {
				t.Fatalf("push refused with %d of %d queued", q.len(), bound)
			}
		}
		if push() {
			t.Fatal("push succeeded on a full queue")
		}
		for q.len() > 1 {
			v, ok := q.pop()
			if !ok || len(v) != 1 || v[0] != want {
				t.Fatalf("pop %d returned frame %v, %v", want, v, ok)
			}
			want++
		}
	}
	q.pop()
	if q.len() != 0 {
		t.Fatalf("%d queued after draining", q.len())
	}
	for i, v := range q.buf {
		if v != nil {
			t.Fatalf("slot %d still holds a popped frame", i)
		}
	}
}
