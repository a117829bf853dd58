package tokenbucket

import (
	"testing"
	"unsafe"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

// fakeClock is a settable Clock.
type fakeClock struct{ t units.Time }

func (c *fakeClock) Now() units.Time { return c.t }

// TestPolicerIsOneCacheLine pins the per-flow part of a policer to one
// 64-byte line, on 64-bit and 32-bit targets alike: everything else a
// fleet's policers need lives in the profile they share.
func TestPolicerIsOneCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(Policer{}); n > 64 {
		t.Errorf("sizeof(Policer) = %d B, want ≤ 64", n)
	}
}

// TestNewPolicerIsOneAllocation: a standalone policer and its private
// profile are one object, so the paper's single-flow topologies
// allocate no more than before the split.
func TestNewPolicerIsOneAllocation(t *testing.T) {
	clock := &fakeClock{}
	var sink packet.Sink
	if n := testing.AllocsPerRun(100, func() {
		NewPolicer(clock, units.Mbps, 3000, packet.EF, &sink)
	}); n != 1 {
		t.Errorf("NewPolicer allocates %v objects, want 1", n)
	}
}

// TestSharedProfileMatchesPrivateProfiles feeds one random (time,
// flow, size) sequence to N policers sharing one profile and to N
// policers with a profile each: every verdict, counter and the
// remaining credit of every flow must agree — a shared profile holds
// configuration only.
func TestSharedProfileMatchesPrivateProfiles(t *testing.T) {
	const flows = 7
	for seed := uint64(1); seed <= 20; seed++ {
		rng := sim.NewRNG(seed)
		clock := &fakeClock{}
		rate := units.BitRate(100+rng.Intn(4000)) * units.Kbps
		depth := units.ByteSize(500 + rng.Intn(6000))

		var passShared, passPrivate packet.Sink
		var prof Profile
		prof.Init(clock, rate, depth, packet.EF, &passShared)
		shared := make([]Policer, flows)
		private := make([]Policer, flows)
		for i := range shared {
			shared[i].InitShared(&prof)
			private[i].Init(clock, rate, depth, packet.EF, &passPrivate)
		}

		for step := 0; step < 2000; step++ {
			clock.t += units.Time(rng.Intn(2000)) * units.Microsecond
			f := rng.Intn(flows)
			size := 1 + rng.Intn(int(depth)+500) // some can never conform
			shared[f].Handle(mkPkt(size))
			private[f].Handle(mkPkt(size))
			if passShared.Count != passPrivate.Count {
				t.Fatalf("seed %d step %d flow %d: verdicts differ", seed, step, f)
			}
		}
		for i := range shared {
			s, p := &shared[i], &private[i]
			if s.Passed != p.Passed || s.Dropped != p.Dropped ||
				s.PassedBytes != p.PassedBytes || s.DroppedBytes != p.DroppedBytes {
				t.Errorf("seed %d flow %d: shared %d/%d/%d/%d, private %d/%d/%d/%d", seed, i,
					s.Passed, s.Dropped, s.PassedBytes, s.DroppedBytes,
					p.Passed, p.Dropped, p.PassedBytes, p.DroppedBytes)
			}
			if s.credit != p.credit {
				t.Errorf("seed %d flow %d: credit %+v, private %+v", seed, i, s.credit, p.credit)
			}
		}
	}
}
