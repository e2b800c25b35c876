package gateway

import (
	"time"

	"repro/internal/resilience"
	"repro/internal/sim"
)

// Backend is the one tier interface: what Server drives and what a tier
// above composes over. The single *Gateway implements it, and so do the
// federation router (over a fleet of shards) and the share coordinator,
// which lets one TCP server front any of them without the wire protocol
// knowing the difference. Every tier hands out the kernel's own sessions.
type Backend interface {
	// Register creates a session under a unique client-chosen name.
	Register(name string) (*Session, error)
	// Attach re-claims a detached session by name and resume token,
	// reporting its resumable streams.
	Attach(name, token string) (*Session, []ResumeInfo, error)
	// Advance commits staged commands and moves virtual time forward by d,
	// returning the number of commands applied.
	Advance(d time.Duration) (int, error)
	// Now is the backend's virtual clock.
	Now() sim.Time
	// Alive reports whether the backend is serving: the readiness signal
	// behind an admin plane's /readyz.
	Alive() bool
	// ServeStats snapshots the backend's counters and current virtual time.
	ServeStats() (Stats, sim.Time, error)
	// BrownoutLevel is the backend's rung on the brownout degradation
	// ladder: the server's pacer coalesces ticks at LevelBatching and the
	// connection handlers shed new subscribes at LevelShed without even
	// staging them.
	BrownoutLevel() resilience.Level
}
