package shard

import "testing"

// TestRingFIFOAndWrap laps a small queue several times (the fifo is a ring
// buffer in the plain sense: fixed slots, wrapping indices): elements come
// out in the order they went in across the index wrap, a push beyond the
// bound is refused, nothing is allocated before the first push, and a
// popped slot no longer holds its element.
func TestRingFIFOAndWrap(t *testing.T) {
	const bound = 3
	q := fifo[*int]{bound: bound}
	if _, ok := q.pop(); ok {
		t.Fatal("pop on an empty queue succeeded")
	}
	if q.buf != nil {
		t.Fatal("slots allocated before the first push")
	}
	vals := make([]int, 5*bound+1)
	next := 0
	// One element stays queued across the laps so that head moves off a
	// multiple of the bound and every lap wraps mid-way.
	q.push(&vals[next])
	next++
	for want, lap := 0, 0; lap < 5; lap++ {
		for q.len() < bound {
			if !q.push(&vals[next]) {
				t.Fatalf("push refused with %d of %d queued", q.len(), bound)
			}
			next++
		}
		if q.push(&vals[0]) {
			t.Fatal("push succeeded on a full queue")
		}
		for q.len() > 1 {
			v, ok := q.pop()
			if !ok || v != &vals[want] {
				t.Fatalf("pop %d returned element %v, %v", want, v, ok)
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
			t.Fatalf("slot %d still holds a popped element", i)
		}
	}
}
