package tier

import "repro/internal/telemetry"

// RegisterMetrics mounts the session families of the tier named name — its
// tracing.Tier* name, which is also its family prefix: ttmqo_<name>_up, one
// counter per Stats counter but ShedDeadline, and the active_sessions and
// active_subscriptions gauges. It returns the setter the tier's gather hook
// calls with whether the tier serves and the snapshot it already took.
func RegisterMetrics(r *telemetry.Registry, name string) func(alive bool, st Stats) {
	p := "ttmqo_" + name + "_"
	// Every Stats counter but ShedDeadline, which each tier exports under its
	// own ttmqo_resilience_* name.
	setCounters := telemetry.Mirror(r, []telemetry.Row[Stats]{
		{Name: p + "sessions_total", Help: "sessions registered", Get: func(s Stats) int64 { return s.Sessions }},
		{Name: p + "subscribes_total", Help: "subscriptions accepted", Get: func(s Stats) int64 { return s.Subscribes }},
		{Name: p + "unsubscribes_total", Help: "subscriptions removed", Get: func(s Stats) int64 { return s.Unsubscribes }},
		{Name: p + "quota_rejected_total", Help: "subscribes rejected by the session quota", Get: func(s Stats) int64 { return s.QuotaRejected }},
		{Name: p + "dedup_hits_total", Help: "subscriptions served by an already-admitted query", Get: func(s Stats) int64 { return s.DedupHits }},
		{Name: p + "updates_total", Help: "result deliveries fanned out", Get: func(s Stats) int64 { return s.Updates }},
		{Name: p + "dropped_updates_total", Help: "deliveries lost to full buffers", Get: func(s Stats) int64 { return s.Dropped }},
		{Name: p + "evicted_total", Help: "slow subscribers evicted", Get: func(s Stats) int64 { return s.Evicted }},
		{Name: p + "ring_dropped_total", Help: "updates shed from bounded resume rings", Get: func(s Stats) int64 { return s.RingDropped }},
		{Name: p + "detaches_total", Help: "session detaches", Get: func(s Stats) int64 { return s.Detaches }},
		{Name: p + "attaches_total", Help: "session re-attaches", Get: func(s Stats) int64 { return s.Attaches }},
		{Name: p + "resumes_total", Help: "subscription streams resumed", Get: func(s Stats) int64 { return s.Resumes }},
		{Name: p + "resume_gaps_total", Help: "resumes that lost ring-shed updates", Get: func(s Stats) int64 { return s.ResumeGaps }},
		{Name: p + "idle_reaped_total", Help: "detached sessions reaped by the idle timeout", Get: func(s Stats) int64 { return s.IdleReaped }},
	})
	up := r.NewGauge(p+"up", "1 while the "+name+" is serving, 0 during a crash outage")
	sessions := r.NewGauge(p+"active_sessions", "currently registered sessions")
	subs := r.NewGauge(p+"active_subscriptions", "currently live subscriptions")
	return func(alive bool, st Stats) {
		v := 0.0
		if alive {
			v = 1
		}
		up.Gauge().Set(v)
		setCounters(st)
		sessions.Gauge().Set(float64(st.ActiveSessions))
		subs.Gauge().Set(float64(st.ActiveSubscriptions))
	}
}
