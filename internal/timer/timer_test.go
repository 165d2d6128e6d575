package timer

import (
	"math"
	"sort"
	"testing"

	"tcpdemux/internal/rng"
)

func TestFiresAtDeadline(t *testing.T) {
	w := New(0.001)
	var fired []float64
	w.Schedule(0.050, func(now float64, _ any) { fired = append(fired, now) }, nil)
	w.Advance(0.049)
	if len(fired) != 0 {
		t.Fatalf("fired %v before deadline", fired)
	}
	w.Advance(0.051)
	if len(fired) != 1 {
		t.Fatalf("fired %d times, want 1", len(fired))
	}
	if fired[0] < 0.050 {
		t.Fatalf("fired at %v, before deadline", fired[0])
	}
	if w.Pending() != 0 {
		t.Fatalf("pending = %d after fire", w.Pending())
	}
}

// TestBucketRollover schedules timers whose deltas land in every wheel
// level — including across level boundaries and in the overflow list —
// and verifies each fires exactly once, never early, and within one tick
// of its deadline.
func TestBucketRollover(t *testing.T) {
	const tick = 0.01
	w := New(tick)
	// Deltas in ticks: within level 0, at the 64 boundary, level 1, at
	// the 4096 boundary, level 2, at the 64^3 boundary, level 3, and past
	// the 64^4 horizon into overflow.
	deltas := []uint64{1, 2, 63, 64, 65, 100, 4095, 4096, 4097, 262143, 262144, 262145, horizonTicks - 1, horizonTicks, horizonTicks + 7}
	fireAt := make([]float64, len(deltas))
	for i, d := range deltas {
		i, d := i, d
		w.Schedule(float64(d)*tick, func(now float64, _ any) { fireAt[i] = now }, nil)
	}
	if w.Pending() != len(deltas) {
		t.Fatalf("pending = %d, want %d", w.Pending(), len(deltas))
	}
	w.Advance(float64(horizonTicks+10) * tick)
	for i, d := range deltas {
		deadline := float64(d) * tick
		if fireAt[i] == 0 {
			t.Fatalf("timer %d (delta %d ticks) never fired", i, d)
		}
		if fireAt[i] < deadline-1e-9 {
			t.Fatalf("timer %d fired at %v, before deadline %v", i, fireAt[i], deadline)
		}
		if fireAt[i] > deadline+2*tick {
			t.Fatalf("timer %d fired at %v, way past deadline %v", i, fireAt[i], deadline)
		}
	}
	if w.Pending() != 0 {
		t.Fatalf("pending = %d after all fired", w.Pending())
	}
}

func TestCancel(t *testing.T) {
	w := New(0.001)
	ran := false
	tm := w.Schedule(0.5, func(float64, any) { ran = true }, nil)
	if !tm.Pending() {
		t.Fatal("scheduled timer not pending")
	}
	if !tm.Cancel() {
		t.Fatal("cancel of pending timer reported false")
	}
	if tm.Cancel() {
		t.Fatal("double cancel reported true")
	}
	if w.Pending() != 0 {
		t.Fatalf("pending = %d after cancel", w.Pending())
	}
	w.Advance(1.0)
	if ran {
		t.Fatal("canceled timer fired")
	}
}

// TestCancelVsFireWithReinsertion exercises the races the engine relies
// on: a callback canceling a same-tick timer scheduled after it, a
// callback rescheduling itself (periodic reinsertion), and a callback
// scheduling new work at the current instant.
func TestCancelVsFireWithReinsertion(t *testing.T) {
	w := New(0.001)

	// Same-tick cancel: a fires first (earlier schedule order at the same
	// deadline) and cancels b.
	var bRan bool
	var b Timer
	w.Schedule(0.010, func(float64, any) { b.Cancel() }, nil)
	b = w.Schedule(0.010, func(float64, any) { bRan = true }, nil)
	w.Advance(0.020)
	if bRan {
		t.Fatal("timer canceled by same-tick peer still fired")
	}

	// Periodic reinsertion: a self-rearming timer ticks a fixed cadence.
	var fires []float64
	var rearm func(now float64, _ any)
	rearm = func(now float64, _ any) {
		fires = append(fires, now)
		if len(fires) < 5 {
			w.Schedule(now+0.100, rearm, nil)
		}
	}
	w.Schedule(0.100, rearm, nil)
	w.Advance(1.0)
	if len(fires) != 5 {
		t.Fatalf("periodic timer fired %d times, want 5", len(fires))
	}
	for i := 1; i < len(fires); i++ {
		if fires[i] <= fires[i-1] {
			t.Fatalf("periodic fires not increasing: %v", fires)
		}
	}

	// Reinsertion at the current instant fires within the same Advance.
	nested := 0
	w.Schedule(1.5, func(now float64, _ any) {
		w.Schedule(now, func(float64, any) { nested++ }, nil)
	}, nil)
	w.Advance(2.0)
	if nested != 1 {
		t.Fatalf("same-instant reinsertion fired %d times", nested)
	}
}

// TestCancelFromEarlierCallbackAcrossTicks: a timer canceled by a
// callback that fires on an earlier tick of the same Advance must not
// run.
func TestCancelFromEarlierCallbackAcrossTicks(t *testing.T) {
	w := New(0.001)
	var victim Timer
	vRan := false
	w.Schedule(0.010, func(float64, any) { victim.Cancel() }, nil)
	victim = w.Schedule(0.900, func(float64, any) { vRan = true }, nil)
	w.Advance(2.0)
	if vRan {
		t.Fatal("victim fired despite cancellation mid-Advance")
	}
	if w.Pending() != 0 {
		t.Fatalf("pending = %d", w.Pending())
	}
}

func TestPastDeadlineFiresNext(t *testing.T) {
	w := New(0.001)
	w.Advance(5.0)
	var at float64
	w.Schedule(1.0, func(now float64, _ any) { at = now }, nil) // already past
	w.Advance(5.0)                                              // no time motion needed
	if at != 5.0 {
		t.Fatalf("past-deadline timer fired at %v, want clamped to 5.0", at)
	}
}

func TestZeroTickDefaults(t *testing.T) {
	w := New(0)
	if w.Tick() != DefaultTick {
		t.Fatalf("tick = %v", w.Tick())
	}
	ran := false
	w.Schedule(0.002, func(float64, any) { ran = true }, nil)
	w.Advance(0.010)
	if !ran {
		t.Fatal("default-tick wheel did not fire")
	}
}

// TestFireOrderNondecreasing is the property test: random deadlines
// (including duplicates and already-past ones), advanced in random
// increments, must fire exactly once each, in nondecreasing virtual
// time, never before their deadline, and with the observed fire times
// themselves nondecreasing.
func TestFireOrderNondecreasing(t *testing.T) {
	src := rng.New(0x71e5)
	for trial := 0; trial < 20; trial++ {
		w := New(0.01)
		type rec struct {
			deadline float64
			firedAt  float64
			order    int
		}
		n := 50 + src.Intn(200)
		recs := make([]*rec, n)
		fired := 0
		horizon := 0.0
		for i := range recs {
			r := &rec{firedAt: -1}
			// Mix of scales so every level gets traffic; some duplicates.
			switch src.Intn(4) {
			case 0:
				r.deadline = src.Float64() * 0.5
			case 1:
				r.deadline = src.Float64() * 50
			case 2:
				r.deadline = src.Float64() * 5000
			default:
				r.deadline = math.Floor(src.Float64()*20) * 0.25 // duplicates
			}
			if r.deadline > horizon {
				horizon = r.deadline
			}
			recs[i] = r
			r2 := r
			w.Schedule(r.deadline, func(now float64, _ any) {
				r2.firedAt = now
				r2.order = fired
				fired++
			}, nil)
		}
		now := 0.0
		for now < horizon+1 {
			now += src.Float64() * (horizon / 10)
			w.Advance(now)
		}
		if fired != n {
			t.Fatalf("trial %d: fired %d of %d", trial, fired, n)
		}
		byOrder := append([]*rec(nil), recs...)
		sort.Slice(byOrder, func(i, j int) bool { return byOrder[i].order < byOrder[j].order })
		last := math.Inf(-1)
		for i, r := range byOrder {
			if r.firedAt < r.deadline-1e-9 {
				t.Fatalf("trial %d: timer fired at %v before deadline %v", trial, r.firedAt, r.deadline)
			}
			if r.firedAt < last {
				t.Fatalf("trial %d: fire time regressed at position %d: %v after %v", trial, i, r.firedAt, last)
			}
			last = r.firedAt
		}
	}
}

// TestDeterministicTieBreak: equal deadlines fire in schedule order.
func TestDeterministicTieBreak(t *testing.T) {
	w := New(0.001)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		w.Schedule(0.5, func(float64, any) { order = append(order, i) }, nil)
	}
	w.Advance(1.0)
	for i, got := range order {
		if got != i {
			t.Fatalf("tie-break order = %v", order)
		}
	}
}

func TestPendingCountThroughChurn(t *testing.T) {
	w := New(0.001)
	src := rng.New(9)
	var live []Timer
	for i := 0; i < 1000; i++ {
		live = append(live, w.Schedule(src.Float64()*100, func(float64, any) {}, nil))
	}
	canceled := 0
	for _, tm := range live {
		if src.Intn(2) == 0 && tm.Cancel() {
			canceled++
		}
	}
	if w.Pending() != 1000-canceled {
		t.Fatalf("pending = %d, want %d", w.Pending(), 1000-canceled)
	}
	w.Advance(200)
	if w.Pending() != 0 {
		t.Fatalf("pending = %d after drain", w.Pending())
	}
	if int(w.Fired) != 1000-canceled {
		t.Fatalf("fired = %d, want %d", w.Fired, 1000-canceled)
	}
}

func BenchmarkScheduleAdvance(b *testing.B) {
	w := New(0.001)
	src := rng.New(1)
	now := 0.0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Schedule(now+src.Float64(), func(float64, any) {}, nil)
		if i%64 == 0 {
			now += 0.032
			w.Advance(now)
		}
	}
}
