// Package cmdtrace validates DRAM command streams against the JEDEC timing
// constraints, independently of both the memory controller that produced
// them and the device model that executed them — double-entry bookkeeping
// for the protocol. The checker replays the stream against its own bank
// state machines and reports every violation.
//
// The device model already rejects per-bank ordering mistakes at execution
// time; the checker additionally covers the rank-level constraints the
// device does not see (tRRD ACT spacing, the tFAW four-activation window,
// command-bus occupancy) and produces a complete report instead of failing
// on the first error.
package cmdtrace

import (
	"fmt"

	"shadow/internal/memctrl"
	"shadow/internal/timing"
)

// Violation is one detected protocol error.
type Violation struct {
	Cmd      memctrl.Cmd
	Rule     string
	Earliest timing.Tick // the earliest legal time for the command
}

func (v Violation) String() string {
	return fmt.Sprintf("%v bank %d at %v violates %s (earliest %v)",
		v.Cmd.Kind, v.Cmd.Bank, v.Cmd.At, v.Rule, v.Earliest)
}

// Checker replays a command stream.
type Checker struct {
	p     *timing.Params
	banks []checkerBank

	lastCmdAt   timing.Tick // command bus: one command per tCK
	haveLastCmd bool
	lastActAt   timing.Tick // tRRD_S
	sawAnyAct   bool
	actWindow   []timing.Tick
	refBusyTo   timing.Tick

	violations []Violation
	commands   int
}

type checkerBank struct {
	open     bool
	actAt    timing.Tick
	rdReady  timing.Tick
	preReady timing.Tick
	actReady timing.Tick
	sawAct   bool
}

// New builds a checker for the parameter set (banks per rank from geometry).
func New(p *timing.Params, banks int) *Checker {
	return &Checker{p: p, banks: make([]checkerBank, banks)}
}

// Observe ingests one command in issue order.
func (c *Checker) Observe(cmd memctrl.Cmd) {
	c.commands++
	c.checkBus(cmd)
	switch cmd.Kind {
	case memctrl.CmdACT:
		c.checkACT(cmd)
	case memctrl.CmdPRE:
		c.checkPRE(cmd)
	case memctrl.CmdRD, memctrl.CmdWR:
		c.checkColumn(cmd)
	case memctrl.CmdREF:
		c.checkREF(cmd)
	case memctrl.CmdRFM:
		c.checkRFM(cmd)
	}
}

func (c *Checker) violate(cmd memctrl.Cmd, rule string, earliest timing.Tick) {
	c.violations = append(c.violations, Violation{Cmd: cmd, Rule: rule, Earliest: earliest})
}

func (c *Checker) checkBus(cmd memctrl.Cmd) {
	if c.haveLastCmd && cmd.At < c.lastCmdAt+c.p.TCK {
		c.violate(cmd, "command-bus tCK spacing", c.lastCmdAt+c.p.TCK)
	}
	if c.haveLastCmd && cmd.At < c.lastCmdAt {
		c.violate(cmd, "command order (time went backwards)", c.lastCmdAt)
	}
	c.lastCmdAt = cmd.At
	c.haveLastCmd = true
}

func (c *Checker) bank(cmd memctrl.Cmd) *checkerBank {
	if cmd.Bank < 0 || cmd.Bank >= len(c.banks) {
		return nil
	}
	return &c.banks[cmd.Bank]
}

func (c *Checker) checkACT(cmd memctrl.Cmd) {
	b := c.bank(cmd)
	if b == nil {
		c.violate(cmd, "bank index", cmd.At)
		return
	}
	if b.open {
		c.violate(cmd, "ACT on open bank", b.preReady+c.p.RP)
	}
	if cmd.At < b.actReady {
		c.violate(cmd, "tRP/tRC (bank not precharged long enough)", b.actReady)
	}
	if cmd.At < c.refBusyTo {
		c.violate(cmd, "tRFC (refresh in progress)", c.refBusyTo)
	}
	// Rank-level spacing.
	if c.sawAnyAct && cmd.At < c.lastActAt+c.p.RRDS {
		c.violate(cmd, "tRRD_S", c.lastActAt+c.p.RRDS)
	}
	if len(c.actWindow) >= 4 {
		if oldest := c.actWindow[len(c.actWindow)-4]; cmd.At < oldest+c.p.FAW {
			c.violate(cmd, "tFAW", oldest+c.p.FAW)
		}
	}
	c.lastActAt = cmd.At
	c.sawAnyAct = true
	c.actWindow = append(c.actWindow, cmd.At)
	if len(c.actWindow) > 8 {
		c.actWindow = c.actWindow[len(c.actWindow)-8:]
	}
	b.open = true
	b.sawAct = true
	b.actAt = cmd.At
	b.rdReady = cmd.At + c.p.EffectiveRCD()
	b.preReady = cmd.At + c.p.RAS
	b.actReady = cmd.At + c.p.RC
}

func (c *Checker) checkPRE(cmd memctrl.Cmd) {
	b := c.bank(cmd)
	if b == nil {
		c.violate(cmd, "bank index", cmd.At)
		return
	}
	if !b.open {
		return // PRE on closed bank is a legal no-op
	}
	if cmd.At < b.preReady {
		c.violate(cmd, "tRAS/tRTP/tWR (precharge too early)", b.preReady)
	}
	b.open = false
	if ready := cmd.At + c.p.RP; ready > b.actReady {
		b.actReady = ready
	}
}

func (c *Checker) checkColumn(cmd memctrl.Cmd) {
	b := c.bank(cmd)
	if b == nil {
		c.violate(cmd, "bank index", cmd.At)
		return
	}
	if !b.open {
		c.violate(cmd, "column command on closed bank", cmd.At)
		return
	}
	if cmd.At < b.rdReady {
		c.violate(cmd, "tRCD", b.rdReady)
	}
	// RD extends the earliest precharge (tRTP); WR extends further.
	var hold timing.Tick
	if cmd.Kind == memctrl.CmdWR {
		hold = cmd.At + c.p.WL + c.p.BL + c.p.WR
	} else {
		hold = cmd.At + c.p.RTP
	}
	if hold > b.preReady {
		b.preReady = hold
	}
}

func (c *Checker) checkREF(cmd memctrl.Cmd) {
	for i := range c.banks {
		if c.banks[i].open {
			c.violate(cmd, fmt.Sprintf("REF with bank %d open", i), c.banks[i].preReady)
		}
		if cmd.At < c.banks[i].actReady && c.banks[i].sawAct {
			c.violate(cmd, fmt.Sprintf("REF before bank %d tRP", i), c.banks[i].actReady)
		}
	}
	c.refBusyTo = cmd.At + c.p.RFC
	for i := range c.banks {
		if c.refBusyTo > c.banks[i].actReady {
			c.banks[i].actReady = c.refBusyTo
		}
	}
}

func (c *Checker) checkRFM(cmd memctrl.Cmd) {
	b := c.bank(cmd)
	if b == nil {
		c.violate(cmd, "bank index", cmd.At)
		return
	}
	if b.open {
		c.violate(cmd, "RFM with bank open", b.preReady)
	}
	if cmd.At < b.actReady {
		c.violate(cmd, "RFM before tRP", b.actReady)
	}
	if ready := cmd.At + c.p.RFM; ready > b.actReady {
		b.actReady = ready
	}
}

// Violations returns every detected protocol error.
func (c *Checker) Violations() []Violation { return c.violations }

// Commands returns the number of commands observed.
func (c *Checker) Commands() int { return c.commands }

// Err returns nil when the stream was clean, or an error summarizing the
// first violation and the total count.
func (c *Checker) Err() error {
	if len(c.violations) == 0 {
		return nil
	}
	return fmt.Errorf("cmdtrace: %d violations in %d commands; first: %s",
		len(c.violations), c.commands, c.violations[0])
}
