// Package timer implements a hierarchical timer wheel on the same
// float64 virtual clock the frag and sim packages use. It is the
// engine's connection-lifecycle clockwork: retransmission timeouts,
// SYN_RCVD give-up, and TIME_WAIT's 2MSL linger all hang off one wheel
// that the owner advances explicitly with Advance (the engine's
// Stack.Tick), so every run stays deterministic and simulation-speed.
//
// The design is the classic kernel wheel (Varghese & Lauck): virtual
// time is quantized into ticks, each of the four levels holds 64 slots,
// and a slot at level l spans 64^l ticks. Insertion and cancellation are
// O(1); advancing does O(1) amortized work per tick plus a cascade when
// a level wraps. Timers beyond the top level's horizon (64^4 ticks) wait
// in an overflow list that is reconsidered at each top-level wrap.
//
// Within one tick, timers fire ordered by (deadline, schedule order), so
// firing order is globally deterministic and fire times are
// nondecreasing. A timer never fires early: deadlines are rounded up to
// the next tick boundary.
//
// The wheel is not safe for concurrent use: it belongs to whatever single
// goroutine drives its owner (the engine's Stack).
//
// Scheduling allocates nothing in steady state. A timer's storage is a
// node the wheel recycles: Cancel takes the node out of its bucket on the
// spot (a swap with the bucket's last entry; order inside a bucket means
// nothing, firing sorts) and puts it on a free list, a fired node follows
// after its callback, and the next Schedule reuses it. The pool is
// therefore as large as the most timers ever pending at once, however many
// are armed and canceled per second. The callback is a plain function that
// receives the subject it was scheduled with, so arming a timer builds no
// closure.
package timer

import (
	"math"
	"slices"
)

// Wheel geometry.
const (
	slotBits = 6
	numSlots = 1 << slotBits // 64 slots per level
	slotMask = numSlots - 1
	levels   = 4
	// horizonTicks is the largest delta (exclusive) the wheel proper can
	// hold; anything farther out waits in the overflow list.
	horizonTicks = 1 << (slotBits * levels)
)

// DefaultTick is the wheel granularity used when none is given: 1 ms of
// virtual time, three orders of magnitude below the engine's coarsest
// timer (2MSL) and fine enough for sub-RTT retransmission timeouts.
const DefaultTick = 1e-3

// Func is a timer callback. It receives the effective fire time and the
// subject the timer was scheduled with.
type Func func(now float64, arg any)

// node is the wheel's storage for one scheduled callback. Nodes are
// recycled, so nothing outside the wheel holds one directly: a Timer names
// one scheduling of a node by that scheduling's seq.
type node struct {
	deadline float64
	fn       Func
	arg      any
	seq      uint64 // schedule order; unique per scheduling, never reused
	wheel    *Wheel
	// bucket and idx say where the node was filed: (*bucket)[idx] is the
	// node, unless that bucket has since been taken out for processing.
	bucket *bucket
	idx    int
	state  timerState
}

// bucket is one list of filed nodes: a wheel slot, the due list or the
// overflow list. Order within it carries no meaning.
type bucket []*node

// put files n at the end of b.
func (b *bucket) put(n *node) {
	n.bucket, n.idx = b, len(*b)
	*b = append(*b, n)
}

// remove takes n out of b, if b still holds it, by moving b's last entry
// into its place. It reports false when b was taken out for processing
// after n was filed (take): n is then in the batch being walked.
func (b *bucket) remove(n *node) bool {
	s := *b
	if n.idx >= len(s) || s[n.idx] != n {
		return false
	}
	last := s[len(s)-1]
	s[n.idx], last.idx = last, n.idx
	s[len(s)-1] = nil
	*b = s[:len(s)-1]
	return true
}

// take empties b for processing and returns what it held.
func (b *bucket) take() []*node {
	batch := *b
	*b = nil
	return batch
}

// giveBack returns a processed batch's array to the bucket it was taken
// from, so a bucket that is filled every revolution grows once. If
// processing filed something in the bucket meanwhile, that stays and the
// old array is dropped.
func (b *bucket) giveBack(batch []*node) {
	if *b == nil {
		*b = batch[:0]
	}
}

type timerState uint8

const (
	statePending timerState = iota
	stateFired
	stateCanceled
)

// Timer is the handle Schedule returns: valid to Cancel until the timer
// fires. It stays safe after that. Once its timer has fired or been
// canceled, and even after the wheel has reused the node for someone
// else's timer, Pending reports false and Cancel does nothing. The zero
// Timer is a handle on nothing.
type Timer struct {
	n   *node
	seq uint64
}

// Pending reports whether the timer is still waiting to fire.
func (t Timer) Pending() bool {
	return t.n != nil && t.n.seq == t.seq && t.n.state == statePending
}

// Cancel prevents a pending timer from firing and reports whether it was
// still pending. Canceling a fired or already-canceled timer is a no-op.
// Cancel is O(1) and frees the timer's storage for reuse at once; only a
// timer canceled by a callback of its own bucket's batch waits for that
// batch's loop to release it.
func (t Timer) Cancel() bool {
	if !t.Pending() {
		return false
	}
	n, w := t.n, t.n.wheel
	n.state = stateCanceled
	w.pending--
	if n.bucket.remove(n) {
		w.release(n)
	}
	return true
}

// Wheel is the timer wheel. Use New; the zero value is not ready.
type Wheel struct {
	tick float64
	cur  uint64 // current tick number (floor(now / tick))
	seq  uint64 // schedule order, breaks deadline ties deterministically

	slots [levels][numSlots]bucket
	// due holds timers scheduled at or before the current tick; they fire
	// on the next Advance (or during the current one, for reinsertions).
	due bucket
	// overflowQ holds timers beyond horizonTicks.
	overflowQ bucket
	// free is the pool of nodes no bucket holds.
	free []*node

	pending int // live timers anywhere

	// Fired counts timers that have run, for instrumentation.
	Fired uint64
}

// New builds a wheel with the given tick granularity in virtual seconds
// (DefaultTick if tick <= 0). The clock starts at zero.
func New(tick float64) *Wheel {
	if tick <= 0 {
		tick = DefaultTick
	}
	return &Wheel{tick: tick}
}

// Tick returns the wheel granularity in virtual seconds.
func (w *Wheel) Tick() float64 { return w.tick }

// Now returns the wheel's current virtual time.
func (w *Wheel) Now() float64 { return float64(w.cur) * w.tick }

// Pending returns the number of live (scheduled, unfired, uncanceled)
// timers.
func (w *Wheel) Pending() int { return w.pending }

// Schedule registers fn to run with arg when virtual time reaches at. A
// deadline at or before the current time fires on the next Advance. The
// callback receives the effective fire time, which is never before at.
func (w *Wheel) Schedule(at float64, fn Func, arg any) Timer {
	var n *node
	if last := len(w.free) - 1; last >= 0 {
		n, w.free = w.free[last], w.free[:last]
	} else {
		n = &node{wheel: w}
	}
	n.deadline, n.fn, n.arg, n.seq, n.state = at, fn, arg, w.seq, statePending
	w.seq++
	w.pending++
	w.place(n)
	return Timer{n: n, seq: n.seq}
}

// release returns a node no bucket holds any more to the pool, letting go
// of its subject. Any Timer still naming the node is already dead (its
// state is not pending) and stays dead when the node is reused (its seq
// moves).
func (w *Wheel) release(n *node) {
	n.fn, n.arg = nil, nil
	w.free = append(w.free, n)
}

// tickOf converts a deadline to its tick number, rounding up so a timer
// never fires before its deadline.
func (w *Wheel) tickOf(at float64) uint64 {
	if at <= 0 {
		return 0
	}
	return uint64(math.Ceil(at / w.tick))
}

// place files a live timer into the structure appropriate for its
// distance from the current tick.
func (w *Wheel) place(t *node) {
	tk := w.tickOf(t.deadline)
	if tk <= w.cur {
		w.due.put(t)
		return
	}
	delta := tk - w.cur
	if delta >= horizonTicks {
		w.overflowQ.put(t)
		return
	}
	level := 0
	for delta >= numSlots<<(uint(level)*slotBits) {
		level++
	}
	slot := (tk >> (uint(level) * slotBits)) & slotMask
	w.slots[level][slot].put(t)
}

// Advance moves virtual time forward to 'to', firing every timer whose
// deadline has been reached, in nondecreasing (deadline, schedule order).
// Callbacks run synchronously inside Advance and may schedule or cancel
// other timers, including reinsertion at the current time. Advancing
// backwards is a no-op.
func (w *Wheel) Advance(to float64) {
	target := uint64(to / w.tick)
	w.fireDue()
	for w.cur < target {
		if w.pending == 0 {
			// Empty wheel: jump the clock.
			w.cur = target
			break
		}
		if w.pending == len(w.overflowQ) {
			// Everything live is beyond the horizon: skip empty ticks up
			// to the next top-level wrap (where overflow is reconsidered)
			// or the target, whichever is nearer.
			next := (w.cur/horizonTicks + 1) * horizonTicks
			if next-1 < target {
				w.cur = next - 1
			} else {
				w.cur = target
				break
			}
		}
		w.cur++
		if w.cur&slotMask == 0 {
			w.cascade()
		}
		w.fireSlot()
		w.fireDue()
	}
	w.fireDue()
}

// cascade redistributes the buckets that the just-incremented tick
// exposes at each wrapped level, innermost first. At a top-level wrap the
// overflow list is reconsidered too. No callback runs in here, so every
// node it meets is pending.
func (w *Wheel) cascade() {
	for level := 1; level < levels; level++ {
		shift := uint(level) * slotBits
		w.refile(&w.slots[level][(w.cur>>shift)&slotMask])
		if (w.cur>>shift)&slotMask != 0 {
			break
		}
	}
	if w.cur&(horizonTicks-1) == 0 {
		w.refile(&w.overflowQ)
	}
}

// refile places every node of b again, now that the clock is nearer.
func (w *Wheel) refile(b *bucket) {
	batch := b.take()
	for _, t := range batch {
		w.place(t)
	}
	b.giveBack(batch)
}

// fireSlot runs the level-0 bucket for the current tick.
func (w *Wheel) fireSlot() {
	if b := &w.slots[0][w.cur&slotMask]; len(*b) > 0 {
		w.fireBucket(b)
	}
}

// fireDue drains the due list, which callbacks may refill (a reinsertion
// at or before the current time fires within the same Advance).
func (w *Wheel) fireDue() {
	for len(w.due) > 0 {
		w.fireBucket(&w.due)
	}
}

// fireBucket runs b's timers in (deadline, seq) order and releases their
// nodes. All deadlines in a bucket fall within one tick, and ticks are
// processed in order, so sorting here makes global fire order
// nondecreasing.
func (w *Wheel) fireBucket(b *bucket) {
	batch := b.take()
	slices.SortFunc(batch, func(a, b *node) int {
		if a.deadline != b.deadline {
			if a.deadline < b.deadline {
				return -1
			}
			return 1
		}
		if a.seq < b.seq {
			return -1
		}
		return 1 // seqs are unique
	})
	now := w.Now()
	for _, t := range batch {
		// A node canceled by an earlier callback of this batch is only
		// released (Cancel could not: the batch is out of its bucket). One
		// that fires is released after its callback, so the callback's own
		// Schedule cannot be handed the node it runs from.
		if t.state == statePending {
			t.state = stateFired
			w.pending--
			w.Fired++
			at := t.deadline
			if at < now {
				at = now // scheduled in the past: fires "now"
			}
			t.fn(at, t.arg)
		}
		w.release(t)
	}
	b.giveBack(batch)
}
