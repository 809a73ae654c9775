// Package mitigate implements the Row Hammer mitigation baselines the paper
// compares SHADOW against (Sections III, VII-C):
//
//   - PARFM: PARA retargeted to the RFM interface — on every RFM, TRR the
//     victims of one row sampled uniformly from the activations since the
//     previous RFM (DRAM-side).
//   - Mithril: a Counter-based-Summary (Space-Saving/Misra-Gries family)
//     tracker per bank; on every RFM, TRR the victims of the row with the
//     highest tracked count (DRAM-side; -perf and -area points differ only
//     in table size and RAAIMT).
//   - BlockHammer: a dual counting Bloom filter per bank that blacklists
//     rapidly activated rows and throttles their activation rate below the
//     RH threshold (MC-side).
//   - RRS (Randomized Row-Swap): a Misra-Gries tracker plus a row
//     indirection table at the MC; rows crossing the swap threshold are
//     swapped with a random row over the memory channel, blocking it for
//     multiple microseconds (MC-side).
//   - DRR (double refresh rate) needs no logic here: it is expressed by
//     halving tREFI (timing.Params.WithRefreshScale(2)).
//
// DRAM-side schemes implement dram.Mitigator; MC-side schemes implement
// MCSide, consumed by package memctrl.
package mitigate

import "shadow/internal/timing"

// SwapRequest asks the memory controller to swap the contents of two PA
// rows of a bank over the memory channel (the RRS mitigating action). The
// issuing mitigator has already updated its indirection table; the MC must
// move the data and block the channel for the scheme's swap latency.
type SwapRequest struct {
	Bank, RowA, RowB int
	// BlockFor is how long the channel is unavailable while the swap's
	// reads and writes occupy it.
	BlockFor timing.Tick
}

// MCSide is a memory-controller-side mitigation policy.
type MCSide interface {
	// Name identifies the scheme in experiment output.
	Name() string
	// TranslateRow maps the physical row the core addresses to the row the
	// MC sends to the device (RRS's indirection table; identity elsewhere).
	TranslateRow(bank, paRow int) int
	// ACTAllowedAt returns the earliest time an ACT to (bank, paRow) may
	// issue — the throttling hook (BlockHammer). Return now for no delay.
	ACTAllowedAt(bank, paRow int, now timing.Tick) timing.Tick
	// OnACT observes an issued ACT and may demand a row swap (RRS); nil
	// asks for nothing.
	OnACT(bank, paRow int, now timing.Tick) *SwapRequest
	// NextEventAt returns the earliest future instant at which the policy
	// could act on its own schedule rather than in response to a command
	// (BlockHammer's epoch rotation; timing.Forever when there is no
	// autonomous timer). The event wheel folds this into its jump bound; a
	// too-early time costs an extra no-op wakeup, never correctness.
	NextEventAt(now timing.Tick) timing.Tick
}

// NopMCSide is the no-op MC-side policy used with DRAM-side schemes.
type NopMCSide struct{}

// Name implements MCSide.
func (NopMCSide) Name() string { return "none" }

// TranslateRow implements MCSide.
func (NopMCSide) TranslateRow(bank, paRow int) int { return paRow }

// ACTAllowedAt implements MCSide.
func (NopMCSide) ACTAllowedAt(bank, paRow int, now timing.Tick) timing.Tick { return now }

// OnACT implements MCSide.
func (NopMCSide) OnACT(bank, paRow int, now timing.Tick) *SwapRequest { return nil }

// NextEventAt implements MCSide: no timers.
func (NopMCSide) NextEventAt(timing.Tick) timing.Tick { return timing.Forever }
