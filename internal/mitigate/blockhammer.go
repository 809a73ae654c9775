package mitigate

import (
	"shadow/internal/hammer"
	"shadow/internal/obs"
	"shadow/internal/timing"
)

// BlockHammer is the throttling baseline (Yaglikci et al., HPCA 2021): a
// dual counting Bloom filter per bank tracks row activation counts over the
// refresh window; a row whose estimate crosses the blacklist threshold is
// throttled so it cannot reach the (blast-radius-adjusted) RH threshold
// before its victims are refreshed. Bloom collisions make the scheme
// increasingly likely to misidentify — and throttle — benign rows as the
// threshold drops, which is the effect behind its low-H_cnt overhead in
// Fig. 11.
type BlockHammer struct {
	cfg BlockHammerConfig

	// blThreshold and thDelay cache blacklistThreshold/throttleDelay, which
	// depend only on the fixed config but sit on the controller's per-ACT
	// scheduling path.
	blThreshold uint32
	thDelay     timing.Tick

	banks map[int]*bhBank
	// throttleRows counts blacklisted rows across all banks (lastACT entries);
	// maintained incrementally so NextEventAt needs no map iteration.
	throttleRows int

	probe         *obs.Probe
	throttleCount *obs.Counter

	// Blacklisted counts the ACTs that hit the blacklist. The delay they
	// cause is attributed to span.CauseThrottle when spans are attached.
	Blacklisted int64
}

// bhBank is the per-bank filter state.
type bhBank struct {
	cbf        *DualCBF
	epochStart timing.Tick
	lastACT    map[int]timing.Tick // last ACT time of blacklisted rows
}

// BlockHammerConfig sizes the scheme.
type BlockHammerConfig struct {
	// Hammer supplies H_cnt and the blast radius; the effective per-row
	// budget is H_cnt / W_sum since blast weights let several aggressors
	// share the work of flipping one victim.
	Hammer hammer.Config
	// REFW is the refresh window; the filter epoch is REFW/2.
	REFW timing.Tick
	// Counters and Hashes size each Bloom filter (per bank). The hardware
	// budget in the paper's comparison is a few KB per bank.
	Counters, Hashes int
	Seed             uint64
}

var _ MCSide = (*BlockHammer)(nil)

// NewBlockHammer returns the throttling policy.
func NewBlockHammer(cfg BlockHammerConfig) *BlockHammer {
	if cfg.Counters == 0 {
		cfg.Counters = 1024
	}
	if cfg.Hashes == 0 {
		cfg.Hashes = 4
	}
	bh := &BlockHammer{cfg: cfg, banks: make(map[int]*bhBank)}
	bh.blThreshold = bh.computeBlacklistThreshold()
	bh.thDelay = bh.computeThrottleDelay()
	return bh
}

// Name implements MCSide.
func (bh *BlockHammer) Name() string { return "blockhammer" }

// SetProbe (re)attaches shadowscope instrumentation: throttle decisions as
// events plus a throttled-ACT rate series. A nil probe detaches.
func (bh *BlockHammer) SetProbe(p *obs.Probe) {
	bh.probe = p
	bh.throttleCount = p.Counter("blockhammer/throttled")
}

// TranslateRow implements MCSide (identity).
func (bh *BlockHammer) TranslateRow(bank, paRow int) int { return paRow }

func (bh *BlockHammer) bank(id int) *bhBank {
	b, ok := bh.banks[id]
	if !ok {
		b = &bhBank{
			cbf:     NewDualCBF(bh.cfg.Counters, bh.cfg.Hashes, bh.cfg.Seed+uint64(id)*7919),
			lastACT: make(map[int]timing.Tick),
		}
		bh.banks[id] = b
	}
	return b
}

// effectiveHCnt is the per-aggressor activation budget once blast weights
// are accounted for.
func (bh *BlockHammer) effectiveHCnt() float64 {
	return float64(bh.cfg.Hammer.HCnt) / bh.cfg.Hammer.WSum()
}

// computeBlacklistThreshold is half the effective budget, per the
// BlockHammer design (N_BL = n_RH*/2). Cached as blThreshold.
func (bh *BlockHammer) computeBlacklistThreshold() uint32 {
	t := uint32(bh.effectiveHCnt() / 2)
	if t < 1 {
		t = 1
	}
	return t
}

// computeThrottleDelay spreads a blacklisted row's remaining budget over the
// rest of the window: with at most (H* - N_BL) ACTs allowed in up to a full
// refresh window, consecutive ACTs must be at least REFW/(H*-N_BL) apart.
// Cached as thDelay.
func (bh *BlockHammer) computeThrottleDelay() timing.Tick {
	budget := bh.effectiveHCnt() - float64(bh.computeBlacklistThreshold())
	if budget < 1 {
		budget = 1
	}
	return timing.Tick(float64(bh.cfg.REFW) / budget)
}

func (bh *BlockHammer) blacklistThreshold() uint32 { return bh.blThreshold }
func (bh *BlockHammer) throttleDelay() timing.Tick { return bh.thDelay }

func (bh *BlockHammer) rotate(b *bhBank, now timing.Tick) {
	for now-b.epochStart >= bh.cfg.REFW/2 {
		b.cbf.Rotate()
		b.epochStart += bh.cfg.REFW / 2
		// Blacklist status must be re-earned each epoch.
		bh.throttleRows -= len(b.lastACT)
		b.lastACT = make(map[int]timing.Tick)
	}
}

// ACTAllowedAt implements MCSide: blacklisted rows are delayed.
func (bh *BlockHammer) ACTAllowedAt(bank, paRow int, now timing.Tick) timing.Tick {
	b := bh.bank(bank)
	bh.rotate(b, now)
	if b.cbf.Estimate(rowKey(bank, paRow)) < bh.blacklistThreshold() {
		return now
	}
	last, seen := b.lastACT[paRow]
	if !seen {
		return now
	}
	allowed := last + bh.throttleDelay()
	if allowed < now {
		return now
	}
	return allowed
}

// NextEventAt implements MCSide. BlockHammer's only autonomous timer is the
// epoch rotation, and a rotation is observable only while some row is
// blacklisted (it clears the lastACT throttle state; filter rotation alone
// changes nothing until the next ACT consults it, which is its own event).
// Epochs start at 0 and advance in exact REFW/2 steps, so every bank's
// boundaries sit on the same global grid.
func (bh *BlockHammer) NextEventAt(now timing.Tick) timing.Tick {
	half := bh.cfg.REFW / 2
	if half <= 0 {
		return timing.Forever
	}
	// Any non-empty blacklist makes the next grid boundary observable; the
	// incremental count avoids iterating the bank map here.
	if bh.throttleRows == 0 {
		return timing.Forever
	}
	return (now/half + 1) * half
}

// OnACT implements MCSide: count the activation.
func (bh *BlockHammer) OnACT(bank, paRow int, now timing.Tick) *SwapRequest {
	b := bh.bank(bank)
	bh.rotate(b, now)
	key := rowKey(bank, paRow)
	b.cbf.Insert(key)
	if b.cbf.Estimate(key) >= bh.blacklistThreshold() {
		if _, seen := b.lastACT[paRow]; !seen {
			bh.throttleRows++
		}
		b.lastACT[paRow] = now
		bh.Blacklisted++
		if bh.probe != nil {
			bh.probe.Emit(obs.Event{
				At: now, Dur: bh.throttleDelay(), Kind: obs.KindThrottle,
				Bank: bank, Row: paRow,
			})
			bh.throttleCount.Inc()
		}
	}
	return nil
}

func rowKey(bank, row int) uint64 {
	return uint64(bank)<<40 | uint64(uint32(row))
}
