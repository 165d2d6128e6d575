package core

import (
	"testing"

	"tcpdemux/internal/rng"
)

// collidingKeys returns n distinct connection keys, found by search, whose
// fingerprints all equal fp.
func collidingKeys(fp uint16, n int) []Key {
	keys := make([]Key, 0, n)
	for i := 0; len(keys) < n; i++ {
		k := Key{
			LocalAddr:  addr(10, 0, 0, byte(1+i&1)),
			LocalPort:  80,
			RemoteAddr: addr(192, byte(i>>16), byte(i>>8), byte(i)),
			RemotePort: uint16(1024 + i>>1&0xFF),
		}
		if fingerprint(k) == fp {
			keys = append(keys, k)
		}
	}
	return keys
}

// checkLanes fails unless the lanes cover the entries in whole groups of
// eight, every entry's lane holds its key's fingerprint, and every lane
// past the end is zero.
func checkLanes(t *testing.T, step int, l *laneList) {
	t.Helper()
	if len(l.fp)%16 != 0 || len(l.fp) < 2*len(l.list) {
		t.Fatalf("step %d: %d lane bytes for %d entries", step, len(l.fp), len(l.list))
	}
	for i := 0; i < len(l.fp)/2; i++ {
		var want uint16
		if i < len(l.list) {
			want = fingerprint(l.list[i].key)
		}
		if got := l.lane(i); got != want {
			t.Fatalf("step %d: lane %d of %d entries is %#x, want %#x", step, i, len(l.list), got, want)
		}
	}
}

// TestFingerprintCollisions holds the fingerprint to being a filter only.
// Its keys are found by search so that their fingerprints are all equal
// (fingerprint 0, which the zero padding lanes also hold, or 0x8000), or
// fall in two such groups (0 and 1: a borrow from a zero lane flags a lane
// of 1 above it). Over seeded churn whose list lengths take every value
// mod 4, a laneList gives the same scans, removes and order as a plain
// list, and bsd, mtf and sr give the same Result fields, Len and Walk
// order as the reference in_pcblookup, with their lanes in step after
// every step.
func TestFingerprintCollisions(t *testing.T) {
	mixed := append(collidingKeys(0, 12), collidingKeys(1, 12)...)
	pools := []struct {
		name string
		keys []Key
	}{
		{"fp=0", collidingKeys(0, 23)},
		{"fp=0x8000", collidingKeys(0x8000, 23)},
		{"fp=0,1", mixed},
	}
	for _, pool := range pools {
		t.Run(pool.name+"/list", func(t *testing.T) {
			var plain list
			var lanes laneList
			src := rng.New(37)
			for step := 0; step < 20000; step++ {
				k := pool.keys[src.Intn(len(pool.keys))]
				switch op := src.Intn(4); {
				case op == 0:
					if g, w := lanes.containsExact(k), plain.containsExact(k); g != w {
						t.Fatalf("step %d: containsExact(%v) = %v, plain %v", step, k, g, w)
					} else if !g {
						p := NewPCB(k)
						lanes.pushFront(p)
						plain.pushFront(p)
					}
				case op == 1:
					if g, w := lanes.remove(k), plain.remove(k); g != w {
						t.Fatalf("step %d: remove(%v) = %v, plain %v", step, k, g, w)
					}
				default:
					gp, ge, gx := lanes.scan(k)
					wp, we, wx := plain.scan(k)
					if gp != wp || ge != we || gx != wx {
						t.Fatalf("step %d: scan(%v) = %v %d %v, plain %v %d %v", step, k, gp, ge, gx, wp, we, wx)
					}
					if gx && op == 3 {
						lanes.toFront(len(lanes.list) - ge)
						plain.toFront(len(plain) - we)
					}
				}
				if len(lanes.list) != len(plain) {
					t.Fatalf("step %d: %d entries, plain %d", step, len(lanes.list), len(plain))
				}
				for i := range plain {
					if lanes.list[i] != plain[i] {
						t.Fatalf("step %d: entry %d is %v, plain %v", step, i, lanes.list[i].key, plain[i].key)
					}
				}
				checkLanes(t, step, &lanes)
			}
		})
		draw := func(src *rng.Source) Key { return pool.keys[src.Intn(len(pool.keys))] }
		listen := func(src *rng.Source) Key {
			k := draw(src)
			return Key{LocalAddr: k.LocalAddr, LocalPort: k.LocalPort}
		}
		for _, c := range []struct {
			d     Demuxer
			lanes func(Demuxer) *laneList
			ref   *refTable
		}{
			{NewBSDList(), func(d Demuxer) *laneList { return &d.(*BSDList).pcbs }, newRefTable(1, false, false)},
			{NewMTFList(), func(d Demuxer) *laneList { return &d.(*MTFList).pcbs }, newRefTable(1, true, false)},
			{NewSRCache(), func(d Demuxer) *laneList { return &d.(*SRCache).pcbs }, newRefTable(1, false, false)},
		} {
			c.ref.sr = c.d.Name() == "sr"
			t.Run(pool.name+"/"+c.d.Name(), func(t *testing.T) {
				var residues [4]bool
				churnAgainstReference(t, c.d, c.ref, draw, listen, func(step int) {
					checkLanes(t, step, c.lanes(c.d))
					residues[c.d.Len()%4] = true
				})
				if residues != [4]bool{true, true, true, true} {
					t.Fatalf("list lengths mod 4 seen: %v, want all four", residues)
				}
			})
		}
	}
}
