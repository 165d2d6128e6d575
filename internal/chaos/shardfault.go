// Shard-level fault rules: where chaos.Rule scripts faults on the wire
// (frames dropped, corrupted, stalled in flight), ShardRule scripts
// faults in the endpoint itself — one queue of the multi-queue engine
// crashing, stalling, wedging its queues, or limping — under the same
// virtual-time windowing. The injector folds the active rules into a
// shard.FaultFunc, the StackSet's injection surface, and counts what it
// inflicted so a test can assert the scenario actually fired.
package chaos

import (
	"fmt"

	"tcpdemux/internal/shard"
)

// ShardFault names one kind of injected shard failure.
type ShardFault int

const (
	// ShardCrash freezes the shard: its virtual clock (and so its
	// heartbeat) stops, and nothing is consumed. The watchdog detects
	// the stale heartbeat and drains the shard.
	ShardCrash ShardFault = iota
	// ShardStall keeps the shard's clock running but stops its consumer;
	// the watchdog detects the stuck progress counter instead.
	ShardStall
	// ShardWedge makes the shard refuse what is pushed at it: frames and
	// migrating connections aimed at it shed (counted), but the shard
	// itself stays alive — degradation, not failure.
	ShardWedge
	// ShardSlow caps the shard's consumption at MaxConsume frames per
	// delivery — backlog growth and backpressure without death.
	ShardSlow

	numShardFaults
)

// String names the fault for reports.
func (f ShardFault) String() string {
	switch f {
	case ShardCrash:
		return "crash"
	case ShardStall:
		return "stall"
	case ShardWedge:
		return "wedge"
	case ShardSlow:
		return "slow"
	}
	return fmt.Sprintf("shardfault(%d)", int(f))
}

// ShardRule is one scheduled shard fault. As with Rule, the zero window
// [0, 0) never matches; use Forever for open-ended rules.
type ShardRule struct {
	// Fault is what to inflict.
	Fault ShardFault
	// Shard is the target queue index.
	Shard int
	// From and Until bound the active window in virtual seconds:
	// active when From <= now < Until.
	From, Until float64
	// MaxConsume is ShardSlow's per-delivery consumption cap (<= 0
	// means 1, the slowest non-dead consumer).
	MaxConsume int
}

// active reports whether the rule applies to a shard at time now.
func (r ShardRule) active(sh int, now float64) bool {
	return sh == r.Shard && now >= r.From && now < r.Until
}

// ShardInjector folds a shard-rule set into a shard.FaultFunc, counting
// every evaluation on which each fault was in force.
type ShardInjector struct {
	rules []ShardRule
	// Inflicted counts rule applications by kind (indexed by
	// ShardFault): one count per fault per event the verdict shaped.
	Inflicted [numShardFaults]uint64
}

// NewShardInjector builds an injector over the given rules. Rules
// combine: a shard can be both wedged and slow; Crash and Stall
// dominate Slow (a dead consumer has no rate).
func NewShardInjector(rules ...ShardRule) *ShardInjector {
	return &ShardInjector{rules: rules}
}

// Count returns how many events the given fault shaped.
func (in *ShardInjector) Count(f ShardFault) uint64 {
	if f < 0 || f >= numShardFaults {
		return 0
	}
	return in.Inflicted[f]
}

// Summary renders the inflicted-fault counters in ShardFault order.
func (in *ShardInjector) Summary() string {
	out := ""
	for f := ShardFault(0); f < numShardFaults; f++ {
		if in.Inflicted[f] == 0 {
			continue
		}
		if out != "" {
			out += " "
		}
		out += fmt.Sprintf("%s=%d", f, in.Inflicted[f])
	}
	if out == "" {
		return "none"
	}
	return out
}

// Func returns the FaultFunc to install via StackSet.SetFaultFunc. Like
// Injector.Func, the closure is driven from the set's single control
// goroutine and is not safe for concurrent use.
func (in *ShardInjector) Func() shard.FaultFunc {
	return func(sh int, now float64) shard.FaultVerdict {
		var v shard.FaultVerdict
		for _, r := range in.rules {
			if !r.active(sh, now) {
				continue
			}
			in.Inflicted[r.Fault]++
			switch r.Fault {
			case ShardCrash:
				v.Crash = true
			case ShardStall:
				v.Stall = true
			case ShardWedge:
				v.Wedge = true
			case ShardSlow:
				mc := r.MaxConsume
				if mc <= 0 {
					mc = 1
				}
				if v.MaxConsume == 0 || mc < v.MaxConsume {
					v.MaxConsume = mc
				}
			}
		}
		return v
	}
}
