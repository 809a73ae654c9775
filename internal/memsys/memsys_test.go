package memsys

import (
	"testing"

	"shadow/internal/dram"
	"shadow/internal/hammer"
	"shadow/internal/memctrl"
	"shadow/internal/timing"
)

func newSystem(t *testing.T, channels int) *System {
	t.Helper()
	ctls := make([]*memctrl.Controller, channels)
	for ch := range ctls {
		d, err := dram.NewDevice(dram.Config{
			Geometry: dram.TestGeometry(),
			Params:   timing.NewParams(timing.DDR4_2666),
			Hammer:   hammer.Config{HCnt: 1 << 20, BlastRadius: 3},
		})
		if err != nil {
			t.Fatal(err)
		}
		ctls[ch] = memctrl.New(d, memctrl.Options{})
	}
	s, err := New(ctls)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRouteInterleavesChannelsFirst(t *testing.T) {
	s := newSystem(t, 4)
	if s.TotalBanks() != 16 {
		t.Fatalf("TotalBanks = %d", s.TotalBanks())
	}
	// Consecutive global banks land on consecutive channels.
	for gb := 0; gb < 8; gb++ {
		ch, bank := s.Route(gb)
		if ch != gb%4 || bank != gb/4 {
			t.Fatalf("Route(%d) = (%d,%d), want (%d,%d)", gb, ch, bank, gb%4, gb/4)
		}
	}
	// Out-of-range banks wrap.
	ch, _ := s.Route(100)
	if ch < 0 || ch >= 4 {
		t.Fatal("wrapped route out of range")
	}
}

func TestEnqueueRewritesBank(t *testing.T) {
	s := newSystem(t, 2)
	r := &memctrl.Request{Bank: 5, Row: 1} // channel 1, local bank 2
	ok, ch := s.EnqueueCh(r)
	if !ok {
		t.Fatal("enqueue failed")
	}
	if ch != 1 {
		t.Fatalf("request reported on channel %d, want 1", ch)
	}
	if r.Bank != 2 {
		t.Fatalf("request bank rewritten to %d, want 2", r.Bank)
	}
	if s.Controller(1).QueuedRequests() == 0 || s.Controller(0).QueuedRequests() > 0 {
		t.Fatal("request routed to wrong channel")
	}
}

// TestStepDrivesAllChannels steps each channel's controller on its own,
// as the simulator's event wheel does, and checks the system-wide sums.
func TestStepDrivesAllChannels(t *testing.T) {
	s := newSystem(t, 2)
	for gb := 0; gb < 8; gb++ {
		if ok, _ := s.EnqueueCh(&memctrl.Request{Bank: gb, Row: 3}); !ok {
			t.Fatal("enqueue failed")
		}
	}
	for ch := 0; ch < s.Channels(); ch++ {
		c := s.Controller(ch)
		for now := timing.Tick(0); c.QueuedRequests() > 0 && now < timing.Millisecond; {
			if next := c.Step(now); next > now {
				now = next
			}
		}
		if c.QueuedRequests() > 0 {
			t.Fatalf("channel %d: requests stuck", ch)
		}
		if c.Stats.Reads != 4 {
			t.Fatalf("channel %d served %d reads, want 4", ch, c.Stats.Reads)
		}
	}
	st := s.Stats()
	if st.Reads != 8 || st.Acts != 8 {
		t.Fatalf("stats = %+v", st)
	}
	if s.DeviceStats().Acts != 8 {
		t.Fatalf("device acts = %d", s.DeviceStats().Acts)
	}
	if s.FlipCount() != 0 {
		t.Fatal("unexpected flips")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("empty channel list accepted")
	}
}
