package share

import (
	"fmt"
	"time"

	"repro/internal/gateway"
	"repro/internal/network"
	"repro/internal/query"
	"repro/internal/topology"
)

// The sharing-tier rows of the serve benchmark suite. Unlike the encode
// and fan-out rows, these run a scripted virtual-time scenario rather
// than a wall-clock microbenchmark: two overlapping aggregation queries
// warm the fragment registry and the result cache, then a late
// subscriber joins a warm query. Every number is a pure function of the
// seed, so the gauges are byte-identical on any machine and CI can gate
// them without tolerance games.
const (
	benchQuantum = 1024 * time.Millisecond
	benchEpochMS = 8192
	// benchRounds bounds the drain loops; a healthy scenario resolves its
	// first results in a few epochs.
	benchRounds = 64
)

// BenchServe runs the sharing scenario and fills the report's sharing
// rows (share/ttfr-cold, share/ttfr-warm — virtual-time TTFR, not
// machine time) and gauges (fragment reuse ratio, cache hit ratio, warm
// replay speedup).
func BenchServe(rep *gateway.ServeBenchReport) error {
	topo, err := topology.PaperGrid(4)
	if err != nil {
		return err
	}
	gw, err := gateway.New(gateway.Config{
		Sim: network.Config{Topo: topo, Scheme: network.TTMQO, Seed: 1},
	})
	if err != nil {
		return err
	}
	defer gw.Close()
	coord, err := New(Config{
		Upstream: OverGateway(gw),
		Sensors:  topo.Size() - 1,
		Cell:     4,
		Window:   4,
	})
	if err != nil {
		return err
	}
	defer coord.Close()

	elapsed := time.Duration(0)
	adv := func() error {
		_, err := coord.Advance(benchQuantum)
		elapsed += benchQuantum
		return err
	}
	texts := [2]string{
		fmt.Sprintf("SELECT SUM(light), AVG(light) WHERE nodeid >= 1 AND nodeid <= 8 EPOCH DURATION %d", benchEpochMS),
		fmt.Sprintf("SELECT SUM(light), AVG(light) WHERE nodeid >= 5 AND nodeid <= 12 EPOCH DURATION %d", benchEpochMS),
	}

	// Cold: two overlapping queries staged at virtual zero. Their shared
	// interior cells land in one fragment each; TTFR is a full epoch wait.
	var tks [2]*Ticket
	for i, text := range texts {
		sess, err := coord.Register(fmt.Sprintf("bench-cold-%d", i))
		if err != nil {
			return err
		}
		if tks[i], err = sess.SubscribeAsync(gateway.SubscribeRequest{Query: query.MustParse(text)}); err != nil {
			return err
		}
	}
	if err := adv(); err != nil {
		return err
	}
	var first [2]time.Duration
	var chans [2]<-chan gateway.Update
	for i, tk := range tks {
		sub, err := tk.Wait()
		if err != nil {
			return err
		}
		first[i] = -1
		chans[i] = sub.Updates()
	}
	for r := 0; r < benchRounds && (first[0] < 0 || first[1] < 0); r++ {
		if err := adv(); err != nil {
			return err
		}
		for i, ch := range chans {
			for drained := false; !drained; {
				select {
				case <-ch:
					if first[i] < 0 {
						first[i] = elapsed
					}
				default:
					drained = true
				}
			}
		}
	}
	cold := max(first[0], first[1])
	if cold <= 0 {
		return fmt.Errorf("share bench: no cold first result within %d rounds", benchRounds)
	}

	// Warm: a late subscriber to an already-materialized query replays
	// cached epochs at the very advance that commits its subscribe.
	late, err := coord.Register("bench-late")
	if err != nil {
		return err
	}
	warmAt := elapsed
	tw, err := late.SubscribeAsync(gateway.SubscribeRequest{Query: query.MustParse(texts[0])})
	if err != nil {
		return err
	}
	if err := adv(); err != nil {
		return err
	}
	subw, err := tw.Wait()
	if err != nil {
		return err
	}
	warm := time.Duration(-1)
	for r := 0; r < benchRounds && warm < 0; r++ {
		select {
		case <-subw.Updates():
			warm = elapsed - warmAt
		default:
			if err := adv(); err != nil {
				return err
			}
		}
	}
	if warm <= 0 {
		return fmt.Errorf("share bench: no warm first result within %d rounds", benchRounds)
	}

	st := coord.ShareStats()
	rep.Rows = append(rep.Rows,
		gateway.ServeBenchRow{Name: "share/ttfr-cold", NsPerOp: float64(cold.Nanoseconds())},
		gateway.ServeBenchRow{Name: "share/ttfr-warm", NsPerOp: float64(warm.Nanoseconds())},
	)
	rep.FragmentReuseRatio = st.FragmentReuseRatio()
	rep.CacheHitRatio = st.CacheHitRatio()
	rep.WarmReplaySpeedup = float64(cold) / float64(warm)
	return nil
}

func max(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
