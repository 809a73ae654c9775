package layering

// Test files are exempt from layering: a test may drive its package from
// above without inverting the runtime architecture.

import "shadow/internal/sim"

var _ = sim.Run
