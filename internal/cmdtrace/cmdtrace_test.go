package cmdtrace

import (
	"strings"
	"testing"

	"shadow/internal/memctrl"
	"shadow/internal/timing"
)

func params() *timing.Params { return timing.NewParams(timing.DDR4_2666) }

func TestCleanSequenceAccepted(t *testing.T) {
	p := params()
	c := New(p, 4)
	now := timing.Tick(0)
	c.Observe(memctrl.Cmd{Kind: memctrl.CmdACT, Bank: 0, Row: 5, At: now})
	c.Observe(memctrl.Cmd{Kind: memctrl.CmdRD, Bank: 0, At: now + p.RCD})
	c.Observe(memctrl.Cmd{Kind: memctrl.CmdPRE, Bank: 0, At: now + p.RAS})
	c.Observe(memctrl.Cmd{Kind: memctrl.CmdACT, Bank: 0, Row: 6, At: now + p.RC})
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if c.Commands() != 4 {
		t.Fatalf("Commands = %d", c.Commands())
	}
}

func TestDetectsEarlyRead(t *testing.T) {
	p := params()
	c := New(p, 4)
	c.Observe(memctrl.Cmd{Kind: memctrl.CmdACT, Bank: 0, Row: 5, At: 0})
	c.Observe(memctrl.Cmd{Kind: memctrl.CmdRD, Bank: 0, At: p.RCD - 1})
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "tRCD") {
		t.Fatalf("err = %v, want tRCD violation", err)
	}
}

func TestDetectsEarlyPrecharge(t *testing.T) {
	p := params()
	c := New(p, 4)
	c.Observe(memctrl.Cmd{Kind: memctrl.CmdACT, Bank: 1, Row: 5, At: 0})
	c.Observe(memctrl.Cmd{Kind: memctrl.CmdPRE, Bank: 1, At: p.RAS - 1})
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "precharge too early") {
		t.Fatalf("err = %v", err)
	}
}

func TestDetectsTRRDViolation(t *testing.T) {
	p := params()
	c := New(p, 8)
	c.Observe(memctrl.Cmd{Kind: memctrl.CmdACT, Bank: 0, Row: 1, At: 0})
	c.Observe(memctrl.Cmd{Kind: memctrl.CmdACT, Bank: 1, Row: 1, At: p.RRDS - 1})
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "tRRD_S") {
		t.Fatalf("err = %v", err)
	}
}

func TestDetectsTFAWViolation(t *testing.T) {
	p := params()
	c := New(p, 8)
	// Four ACTs exactly at tRRD spacing (legal), then a fifth inside tFAW.
	at := timing.Tick(0)
	for b := 0; b < 4; b++ {
		c.Observe(memctrl.Cmd{Kind: memctrl.CmdACT, Bank: b, Row: 1, At: at})
		at += p.RRDS
	}
	if err := c.Err(); err != nil {
		t.Fatalf("legal burst rejected: %v", err)
	}
	fifth := c.actWindow[0] + p.FAW - 1
	if fifth < at {
		fifth = at // respect tRRD too; FAW must still bind
	}
	c.Observe(memctrl.Cmd{Kind: memctrl.CmdACT, Bank: 4, Row: 1, At: p.FAW - 1})
	found := false
	for _, v := range c.Violations() {
		if v.Rule == "tFAW" {
			found = true
		}
	}
	if !found {
		t.Fatalf("tFAW violation not detected: %v", c.Violations())
	}
	_ = fifth
}

func TestDetectsWriteRecovery(t *testing.T) {
	p := params()
	c := New(p, 4)
	c.Observe(memctrl.Cmd{Kind: memctrl.CmdACT, Bank: 0, Row: 1, At: 0})
	wrAt := p.RCD
	c.Observe(memctrl.Cmd{Kind: memctrl.CmdWR, Bank: 0, At: wrAt})
	// PRE at tRAS is now too early: write recovery extends the hold.
	c.Observe(memctrl.Cmd{Kind: memctrl.CmdPRE, Bank: 0, At: p.RAS})
	if err := c.Err(); err == nil {
		t.Fatal("write-recovery violation not detected")
	}
}

func TestDetectsRefreshViolations(t *testing.T) {
	p := params()
	c := New(p, 2)
	c.Observe(memctrl.Cmd{Kind: memctrl.CmdACT, Bank: 0, Row: 1, At: 0})
	c.Observe(memctrl.Cmd{Kind: memctrl.CmdREF, Bank: -1, At: p.RCD})
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "REF with bank 0 open") {
		t.Fatalf("err = %v", err)
	}
	// ACT during tRFC.
	c2 := New(p, 2)
	c2.Observe(memctrl.Cmd{Kind: memctrl.CmdREF, Bank: -1, At: 0})
	c2.Observe(memctrl.Cmd{Kind: memctrl.CmdACT, Bank: 0, Row: 1, At: p.RFC - 1})
	if err := c2.Err(); err == nil {
		t.Fatal("ACT during tRFC not detected")
	}
}

func TestDetectsRFMViolations(t *testing.T) {
	p := params().WithRAAIMT(32)
	c := New(p, 2)
	c.Observe(memctrl.Cmd{Kind: memctrl.CmdRFM, Bank: 0, At: 0})
	c.Observe(memctrl.Cmd{Kind: memctrl.CmdACT, Bank: 0, Row: 1, At: p.RFM - 1})
	if err := c.Err(); err == nil {
		t.Fatal("ACT during tRFM not detected")
	}
}

func TestBusSpacing(t *testing.T) {
	p := params()
	c := New(p, 4)
	c.Observe(memctrl.Cmd{Kind: memctrl.CmdACT, Bank: 0, Row: 1, At: 0})
	c.Observe(memctrl.Cmd{Kind: memctrl.CmdACT, Bank: 4 % 4, Row: 1, At: p.TCK / 2})
	found := false
	for _, v := range c.Violations() {
		if strings.Contains(v.Rule, "command-bus") {
			found = true
		}
	}
	if !found {
		t.Fatal("bus spacing violation not detected")
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{
		Cmd:      memctrl.Cmd{Kind: memctrl.CmdACT, Bank: 3, At: 100},
		Rule:     "tFAW",
		Earliest: 200,
	}
	s := v.String()
	for _, frag := range []string{"ACT", "bank 3", "tFAW"} {
		if !strings.Contains(s, frag) {
			t.Errorf("violation string missing %q: %s", frag, s)
		}
	}
}

func TestBadBankIndices(t *testing.T) {
	p := params()
	c := New(p, 2)
	c.Observe(memctrl.Cmd{Kind: memctrl.CmdACT, Bank: 9, Row: 1, At: 0})
	c.Observe(memctrl.Cmd{Kind: memctrl.CmdPRE, Bank: -1, At: p.TCK})
	c.Observe(memctrl.Cmd{Kind: memctrl.CmdRD, Bank: 7, At: 2 * p.TCK})
	c.Observe(memctrl.Cmd{Kind: memctrl.CmdRFM, Bank: 4, At: 3 * p.TCK})
	bad := 0
	for _, v := range c.Violations() {
		if v.Rule == "bank index" {
			bad++
		}
	}
	if bad != 4 {
		t.Fatalf("bank-index violations = %d, want 4", bad)
	}
}

func TestColumnOnClosedBankAndRTP(t *testing.T) {
	p := params()
	c := New(p, 2)
	c.Observe(memctrl.Cmd{Kind: memctrl.CmdRD, Bank: 0, At: 0})
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "closed bank") {
		t.Fatalf("err = %v", err)
	}
	// Late RD extends PRE hold by tRTP past tRAS.
	c2 := New(p, 2)
	c2.Observe(memctrl.Cmd{Kind: memctrl.CmdACT, Bank: 0, Row: 1, At: 0})
	late := p.RAS - p.TCK
	c2.Observe(memctrl.Cmd{Kind: memctrl.CmdRD, Bank: 0, At: late})
	c2.Observe(memctrl.Cmd{Kind: memctrl.CmdPRE, Bank: 0, At: p.RAS})
	if err := c2.Err(); err == nil {
		t.Fatal("PRE inside tRTP accepted")
	}
}

func TestRFMOnOpenBank(t *testing.T) {
	p := params().WithRAAIMT(16)
	c := New(p, 2)
	c.Observe(memctrl.Cmd{Kind: memctrl.CmdACT, Bank: 1, Row: 1, At: 0})
	c.Observe(memctrl.Cmd{Kind: memctrl.CmdRFM, Bank: 1, At: p.TCK})
	found := false
	for _, v := range c.Violations() {
		if strings.Contains(v.Rule, "RFM with bank open") {
			found = true
		}
	}
	if !found {
		t.Fatalf("RFM-on-open not detected: %v", c.Violations())
	}
}
