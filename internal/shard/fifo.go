package shard

// fifo is a bounded first-in first-out queue with one owner: the goroutine
// that drives the StackSet is on both ends of it. It holds what a shard
// cannot take at once — the frames steered at a faulted shard, the
// connections migrating between one ordered pair of shards — and refuses a
// push beyond its bound, which is where the shed ledger and the migration
// fallbacks start. The slots are allocated by the first push, so a set that
// never sees a fault or a rekey never pays for them.
type fifo[T any] struct {
	buf     []T
	bound   int
	head, n int
}

func (q *fifo[T]) len() int { return q.n }

// push enqueues v, reporting false when the queue is full.
func (q *fifo[T]) push(v T) bool {
	if q.n == q.bound {
		return false
	}
	if q.buf == nil {
		q.buf = make([]T, q.bound)
	}
	q.buf[(q.head+q.n)%q.bound] = v
	q.n++
	return true
}

// pop dequeues the oldest element, reporting false when the queue is empty.
func (q *fifo[T]) pop() (T, bool) {
	var zero T
	if q.n == 0 {
		return zero, false
	}
	v := q.buf[q.head]
	q.buf[q.head] = zero // drop the reference for the collector
	q.head = (q.head + 1) % q.bound
	q.n--
	return v, true
}
