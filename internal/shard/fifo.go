package shard

// fifo is a bounded first-in first-out queue with one owner: the goroutine
// that drives the StackSet is on both ends of it. It holds the frames
// steered at a faulted shard that the shard cannot take at once, and refuses
// a push beyond its bound, which is where the shed ledger starts. The slots
// are allocated by the first push, so a set that never sees a fault never
// pays for them.
type fifo struct {
	buf     [][]byte
	bound   int
	head, n int
}

func (q *fifo) len() int { return q.n }

// push enqueues v, reporting false when the queue is full.
func (q *fifo) push(v []byte) bool {
	if q.n == q.bound {
		return false
	}
	if q.buf == nil {
		q.buf = make([][]byte, q.bound)
	}
	q.buf[(q.head+q.n)%q.bound] = v
	q.n++
	return true
}

// pop dequeues the oldest element, reporting false when the queue is empty.
func (q *fifo) pop() ([]byte, bool) {
	if q.n == 0 {
		return nil, false
	}
	v := q.buf[q.head]
	q.buf[q.head] = nil // drop the reference for the collector
	q.head = (q.head + 1) % q.bound
	q.n--
	return v, true
}
