package timer

import (
	"math"
	"sort"
	"testing"

	"tcpdemux/internal/rng"
)

// refWheel is the wheel as it was before nodes were recycled: a fresh
// *refTimer per Schedule, a canceled entry left in its bucket until the
// bucket is visited, sort.Slice per bucket. TestRecycledNodesMatchReference drives
// it in lockstep with Wheel and requires the same fires in the same
// order at the same times.
type refTimer struct {
	deadline float64
	fn       func(now float64)
	seq      uint64
	wheel    *refWheel
	state    timerState
	overflow bool
}

func (t *refTimer) cancel() bool {
	if t == nil || t.state != statePending {
		return false
	}
	t.state = stateCanceled
	t.wheel.pending--
	if t.overflow {
		t.wheel.overflowLive--
	}
	return true
}

type refWheel struct {
	tick         float64
	cur, seq     uint64
	slots        [levels][numSlots][]*refTimer
	due          []*refTimer
	overflowQ    []*refTimer
	pending      int
	overflowLive int
}

func (w *refWheel) now() float64 { return float64(w.cur) * w.tick }

func (w *refWheel) schedule(at float64, fn func(now float64)) *refTimer {
	t := &refTimer{deadline: at, fn: fn, seq: w.seq, wheel: w}
	w.seq++
	w.pending++
	w.place(t)
	return t
}

func (w *refWheel) place(t *refTimer) {
	var tk uint64
	if t.deadline > 0 {
		tk = uint64(math.Ceil(t.deadline / w.tick))
	}
	if tk <= w.cur {
		w.due = append(w.due, t)
		return
	}
	delta := tk - w.cur
	if delta >= horizonTicks {
		t.overflow = true
		w.overflowLive++
		w.overflowQ = append(w.overflowQ, t)
		return
	}
	level := 0
	for delta >= numSlots<<(uint(level)*slotBits) {
		level++
	}
	slot := (tk >> (uint(level) * slotBits)) & slotMask
	w.slots[level][slot] = append(w.slots[level][slot], t)
}

func (w *refWheel) advance(to float64) {
	target := uint64(to / w.tick)
	w.fireDue()
	for w.cur < target {
		if w.pending == 0 {
			w.cur = target
			break
		}
		if w.pending == w.overflowLive {
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
		slot := w.cur & slotMask
		if batch := w.slots[0][slot]; len(batch) > 0 {
			w.slots[0][slot] = nil
			w.fireBatch(batch)
		}
		w.fireDue()
	}
	w.fireDue()
}

func (w *refWheel) cascade() {
	for level := 1; level < levels; level++ {
		shift := uint(level) * slotBits
		slot := (w.cur >> shift) & slotMask
		batch := w.slots[level][slot]
		w.slots[level][slot] = nil
		for _, t := range batch {
			if t.state == statePending {
				w.place(t)
			}
		}
		if (w.cur>>shift)&slotMask != 0 {
			break
		}
	}
	if w.cur&(horizonTicks-1) == 0 {
		batch := w.overflowQ
		w.overflowQ = nil
		for _, t := range batch {
			if t.state != statePending {
				continue
			}
			t.overflow = false
			w.overflowLive--
			w.place(t)
		}
	}
}

func (w *refWheel) fireDue() {
	for len(w.due) > 0 {
		batch := w.due
		w.due = nil
		w.fireBatch(batch)
	}
}

func (w *refWheel) fireBatch(batch []*refTimer) {
	live := batch[:0]
	for _, t := range batch {
		if t.state == statePending {
			live = append(live, t)
		}
	}
	sort.Slice(live, func(i, j int) bool {
		if live[i].deadline != live[j].deadline {
			return live[i].deadline < live[j].deadline
		}
		return live[i].seq < live[j].seq
	})
	now := w.now()
	for _, t := range live {
		if t.state != statePending {
			continue
		}
		t.state = stateFired
		w.pending--
		at := t.deadline
		if at < now {
			at = now
		}
		t.fn(at)
	}
}

type fire struct {
	id int
	at float64
}

// TestRecycledNodesMatchReference schedules, cancels and re-arms well
// over 10 000 timers on a wheel and on the reference wheel in lockstep.
// Every handle ever returned is kept, so most cancel attempts go through
// a stale one: a handle whose timer has fired or was canceled, and whose
// node the wheel has since handed to another timer. Such a Cancel must
// report false, exactly as the reference's does, and must not touch the
// node's new tenant, which the identical fire logs prove. A fifth of the
// callbacks re-arm from inside the callback.
func TestRecycledNodesMatchReference(t *testing.T) {
	const tick = 0.001
	src := rng.New(0x7ec1c1e)
	w, ref := New(tick), &refWheel{tick: tick}
	var got, want []fire
	var handles []Timer
	var refHandles []*refTimer
	nodes := map[*node]bool{}
	scheduled := 0

	// The subject rides as the callback's argument on the wheel under
	// test, and in the closure on the reference.
	type subject struct {
		id    int
		rearm bool
	}
	var onFire Func
	var arm func(at float64, rearm bool)
	arm = func(at float64, rearm bool) {
		sub := &subject{id: scheduled, rearm: rearm}
		scheduled++
		h := w.Schedule(at, onFire, sub)
		handles = append(handles, h)
		nodes[h.n] = true
		refHandles = append(refHandles, ref.schedule(at, func(now float64) {
			want = append(want, fire{sub.id, now})
		}))
	}
	onFire = func(now float64, arg any) {
		sub := arg.(*subject)
		got = append(got, fire{sub.id, now})
		if sub.rearm {
			// Re-arm from inside the callback; the reference's twin is
			// armed by arm as well, so both wheels see the same schedule
			// order. The reference's own callback only logs.
			arm(now+src.Float64()*0.2, false)
		}
	}

	now := 0.0
	for scheduled < 12000 {
		switch op := src.Intn(10); {
		case op < 5:
			var d float64
			switch src.Intn(4) {
			case 0:
				d = src.Float64() * 0.05 // level 0
			case 1:
				d = src.Float64() * 2 // level 1, the RTO's home
			case 2:
				d = src.Float64() * 200 // levels 2 and 3
			default:
				d = math.Floor(src.Float64()*8) * 0.25 // ties
			}
			arm(now+d-0.01, src.Intn(5) == 0)
		case op < 8:
			if len(handles) == 0 {
				continue
			}
			// Any handle ever issued: after the first few hundred
			// operations most of them are stale.
			i := src.Intn(len(handles))
			g, r := handles[i].Cancel(), refHandles[i].cancel()
			if g != r {
				t.Fatalf("Cancel of handle %d reported %v, reference %v", i, g, r)
			}
			if handles[i].Pending() {
				t.Fatalf("handle %d pending after Cancel", i)
			}
		default:
			now += src.Float64() * 0.3
			w.Advance(now)
			ref.advance(now)
			if w.Pending() != ref.pending {
				t.Fatalf("pending = %d, reference %d at %v", w.Pending(), ref.pending, now)
			}
		}
	}
	now += 1000
	w.Advance(now)
	ref.advance(now)

	if len(got) != len(want) {
		t.Fatalf("fired %d timers, reference %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire %d: timer %d at %v, reference timer %d at %v", i, got[i].id, got[i].at, want[i].id, want[i].at)
		}
	}
	if w.Pending() != 0 {
		t.Fatalf("pending = %d after the final Advance", w.Pending())
	}
	for i, h := range handles {
		if h.Pending() || h.Cancel() {
			t.Fatalf("handle %d still live after everything fired", i)
		}
	}
	if len(nodes) >= scheduled/4 {
		t.Fatalf("%d schedulings used %d distinct nodes: nothing was recycled", scheduled, len(nodes))
	}
	t.Logf("%d schedulings, %d fires, %d distinct nodes", scheduled, len(got), len(nodes))
}

// TestStaleHandleCannotCancelRecycledNode is the property in the small:
// the node of a canceled timer, reused for a second timer, does not answer
// to the first timer's handle.
func TestStaleHandleCannotCancelRecycledNode(t *testing.T) {
	w := New(0.001)
	ran := false
	first := w.Schedule(0.010, func(float64, any) { t.Fatal("canceled timer fired") }, nil)
	first.Cancel() // the node leaves its bucket for the free list
	second := w.Schedule(0.030, func(float64, any) { ran = true }, nil)
	if second.n != first.n {
		t.Fatal("the freed node was not reused; the test needs it to be")
	}
	if first.Pending() || first.Cancel() {
		t.Fatal("stale handle acted on the recycled node")
	}
	if !second.Pending() {
		t.Fatal("second timer lost its node to a stale Cancel")
	}
	w.Advance(0.040)
	if !ran {
		t.Fatal("second timer did not fire")
	}
	if (Timer{}).Pending() || (Timer{}).Cancel() {
		t.Fatal("zero Timer is live")
	}
}

// TestSteadyStateSchedulingDoesNotAllocate: arm, cancel and advance in the
// engine's pattern (RTOs armed per transaction and canceled by the
// acknowledgements, fifty outstanding at a time) allocates nothing once
// the pool and the buckets have grown to that. With a beat always pending
// (a shard's heartbeat) the clock walks every tick; without one the wheel
// is empty at every Advance and the clock jumps.
func TestSteadyStateSchedulingDoesNotAllocate(t *testing.T) {
	for _, beating := range []bool{true, false} {
		w := New(0.001)
		now := 0.0
		fn := func(float64, any) {}
		var beat Func
		beat = func(at float64, _ any) { w.Schedule(at+0.05, beat, nil) }
		if beating {
			beat(0, nil)
		}
		var pending [50]Timer
		step := func() {
			for i := range pending {
				pending[i] = w.Schedule(now+1.0, fn, w)
			}
			for i := range pending {
				pending[i].Cancel()
			}
			w.Schedule(now+0.002, fn, w) // one that fires
			now += 0.005
			w.Advance(now)
		}
		for i := 0; i < 2000; i++ { // ten seconds: every level-1 bucket used
			step()
		}
		if n := len(w.free); n > len(pending)+2 {
			t.Fatalf("beating=%v: the pool holds %d nodes for %d timers outstanding at once", beating, n, len(pending)+2)
		}
		if n := testing.AllocsPerRun(500, step); n != 0 {
			t.Fatalf("beating=%v: steady-state scheduling allocates %v times per step, want 0", beating, n)
		}
	}
}
