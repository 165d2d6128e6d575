package engine

import (
	"bytes"
	"testing"

	"tcpdemux/internal/core"
	"tcpdemux/internal/telemetry"
	"tcpdemux/internal/wire"
)

// lossyCfg builds the exchange configuration for a given drop/dup rate.
// Small RTO and a generous retry budget keep the virtual-time run short
// even when a transaction needs several attempts; MSL is shortened the
// same way a test kernel would.
func lossyCfg(drop, dup float64) LossyConfig {
	return LossyConfig{
		Clients: 4,
		Txns:    12,
		Seed:    99,
		Link: LinkConfig{
			Seed:     1234,
			DropRate: drop,
			DupRate:  dup,
			Latency:  0.01,
			Jitter:   0.004,
		},
		RTO:            0.25,
		MaxRetries:     40,
		MSL:            0.5,
		MaxVirtualTime: 900,
	}
}

// TestLossyConformanceAcrossAlgorithms is the tentpole's acceptance
// test: under seeded 20% drop plus 10% duplication, every registered
// demultiplexer discipline must complete the client/server exchange with
// application bytes identical to the lossless run — retransmission and
// lifecycle driven solely by Stack.Tick.
func TestLossyConformanceAcrossAlgorithms(t *testing.T) {
	for _, name := range core.Algorithms() {
		name := name
		t.Run(name, func(t *testing.T) {
			build := func() core.Demuxer {
				d, err := core.New(name, core.Config{Chains: 19})
				if err != nil {
					t.Fatal(err)
				}
				return d
			}
			clean, err := RunLossyExchange(build(), lossyCfg(0, 0))
			if err != nil {
				t.Fatal(err)
			}
			if !clean.Completed {
				t.Fatalf("lossless run did not complete (t=%v)", clean.VirtualTime)
			}
			if clean.Dropped != 0 || clean.Retransmits != 0 {
				t.Fatalf("lossless run dropped %d / retransmitted %d", clean.Dropped, clean.Retransmits)
			}

			lossy, err := RunLossyExchange(build(), lossyCfg(0.20, 0.10))
			if err != nil {
				t.Fatal(err)
			}
			if !lossy.Completed {
				t.Fatalf("lossy run did not complete (t=%v, retransmits=%d, aborts=%d)",
					lossy.VirtualTime, lossy.Retransmits, lossy.Aborts)
			}
			if lossy.Dropped == 0 {
				t.Fatal("20%% drop rate dropped nothing — loss model inert")
			}
			if lossy.Retransmits == 0 {
				t.Fatal("drops recovered without any timer-driven retransmission")
			}
			cfg := lossyCfg(0.20, 0.10)
			if n := len(lossy.TxnTimes); n != cfg.Clients*cfg.Txns {
				t.Fatalf("TxnTimes holds %d transactions, want %d", n, cfg.Clients*cfg.Txns)
			}
			for i, at := range lossy.TxnTimes {
				if at <= 0 || at > lossy.VirtualTime || i > 0 && at < lossy.TxnTimes[i-1] {
					t.Fatalf("TxnTimes[%d] = %v out of order or outside (0, %v]", i, at, lossy.VirtualTime)
				}
			}
			if len(clean.Responses) != len(lossy.Responses) {
				t.Fatalf("client counts differ: %d vs %d", len(clean.Responses), len(lossy.Responses))
			}
			for i := range clean.Responses {
				if len(clean.Responses[i]) == 0 {
					t.Fatalf("client %d: lossless run produced no bytes", i)
				}
				if !bytes.Equal(clean.Responses[i], lossy.Responses[i]) {
					t.Fatalf("client %d: payloads diverge under loss:\nclean: %q\nlossy: %q",
						i, clean.Responses[i], lossy.Responses[i])
				}
			}
		})
	}
}

// TestLossyPaddedFrames: an exchange whose every frame is padded to the
// Ethernet 60-byte minimum (on top of 20% loss) must still produce the
// lossless, unpadded bytes — link padding is invisible end to end.
func TestLossyPaddedFrames(t *testing.T) {
	build := func() core.Demuxer {
		d, err := core.New("bsd", core.Config{Chains: 19})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	clean, err := RunLossyExchange(build(), lossyCfg(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	cfg := lossyCfg(0.20, 0.10)
	cfg.Link.PadTo = 60
	padded, err := RunLossyExchange(build(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !padded.Completed {
		t.Fatalf("padded lossy run did not complete (t=%v)", padded.VirtualTime)
	}
	for i := range clean.Responses {
		if !bytes.Equal(clean.Responses[i], padded.Responses[i]) {
			t.Fatalf("client %d: padding changed application bytes", i)
		}
	}
}

// TestLossyDeterministicReplay: the same seeds must reproduce the same
// wire fates and the same result counters, bit for bit.
func TestLossyDeterministicReplay(t *testing.T) {
	run := func() *LossyResult {
		d, err := core.New("bsd", core.Config{Chains: 19})
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunLossyExchange(d, lossyCfg(0.20, 0.10))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Delivered != b.Delivered || a.Dropped != b.Dropped ||
		a.Duplicated != b.Duplicated || a.Retransmits != b.Retransmits ||
		a.VirtualTime != b.VirtualTime {
		t.Fatalf("replay diverged: %+v vs %+v", a, b)
	}
	for i := range a.Responses {
		if !bytes.Equal(a.Responses[i], b.Responses[i]) {
			t.Fatalf("client %d bytes differ between identical runs", i)
		}
	}
}

// TestLinkPerfectIsLossless: a zero-rate link is just Pump with latency.
func TestLinkPerfectIsLossless(t *testing.T) {
	d, err := core.New("sequent", core.Config{Chains: 19})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunLossyExchange(d, LossyConfig{
		Clients: 2, Txns: 5, Seed: 7,
		Link: LinkConfig{Seed: 1},
		RTO:  0.25, MSL: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("perfect link did not complete (t=%v)", res.VirtualTime)
	}
	if res.Dropped != 0 || res.Duplicated != 0 || res.Aborts != 0 {
		t.Fatalf("perfect link counters: %+v", res)
	}
}

// TestLifecycleCountersReadTheRegistry: the timer and SYN-drop counts are
// kept once, on the stack's telemetry registry; LifecycleCounters and
// Stats are views of it. After a 20 %-drop exchange (and a burst of SYNs
// against a one-slot backlog, so every counter family has moved or had
// the chance to), the registry snapshot and the views must agree.
func TestLifecycleCountersReadTheRegistry(t *testing.T) {
	reg := telemetry.NewRegistry()
	server := NewStack(serverAddrLossy, core.NewSequentHash(19, nil), 1)
	server.SetTelemetry(reg)
	cfg := lossyCfg(0.20, 0)
	cfg.Server = server
	res, err := RunLossyExchange(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("exchange did not complete (t=%v)", res.VirtualTime)
	}
	server.SetBacklog(1)
	for i := 0; i < 3; i++ {
		if _, err := server.Deliver(synFrom(t, wire.MakeAddr(198, 51, 100, byte(i+1)), 2048)); err != nil {
			t.Fatal(err)
		}
	}

	rtx, aborts, synExpired, twExpired := server.LifecycleCounters()
	synDrops := server.Stats().SynDrops
	if rtx == 0 || synDrops != 2 {
		t.Fatalf("counters inert: retransmits=%d synDrops=%d (want >0 and 2)", rtx, synDrops)
	}
	want := map[string]uint64{
		"engine_timer_retransmits_total":       rtx,
		"engine_timer_aborts_total":            aborts,
		"engine_timer_syn_expired_total":       synExpired,
		"engine_timer_time_wait_expired_total": twExpired,
		"engine_syn_drops_total":               synDrops,
	}
	for _, c := range reg.Snapshot().Counters {
		if v, ok := want[c.Name]; ok && len(c.Labels) == 0 {
			if c.Value != v {
				t.Errorf("%s = %d in the registry, %d through the view", c.Name, c.Value, v)
			}
			delete(want, c.Name)
		}
	}
	for name := range want {
		t.Errorf("counter %s not registered", name)
	}
}
