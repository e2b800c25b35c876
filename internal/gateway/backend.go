package gateway

import (
	"time"

	"repro/internal/resilience"
	"repro/internal/sim"
)

// Backend is the serving surface Server drives: session registration and
// re-attachment, virtual-time pacing, and the stats snapshot. The single
// *Gateway implements it directly; the federation router implements it
// over a fleet of shards, which lets one TCP server front either without
// the wire protocol knowing the difference.
type Backend interface {
	// RegisterSession creates a session under a unique client-chosen name.
	RegisterSession(name string) (ServerSession, error)
	// AttachSession re-claims a detached session by name and resume token,
	// reporting its resumable streams.
	AttachSession(name, token string) (ServerSession, []ResumeInfo, error)
	// Advance commits staged commands and moves virtual time forward by d,
	// returning the number of commands applied.
	Advance(d time.Duration) (int, error)
	// ServeStats snapshots the backend's counters and current virtual time.
	ServeStats() (Stats, sim.Time, error)
	// BrownoutLevel is the backend's rung on the brownout degradation
	// ladder: the server's pacer coalesces ticks at LevelBatching and the
	// connection handlers shed new subscribes at LevelShed without even
	// staging them.
	BrownoutLevel() resilience.Level
}
