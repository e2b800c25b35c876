package federation

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/gateway"
)

// crashHoldingBufferedDigest is TestRouterCrashWithBufferedPartials' record
// as the router produced it when it read its shard streams through
// channels: reading them from their buffers must reproduce it byte for byte.
const crashHoldingBufferedDigest = `partitioned: partials=8 merged=4
crashed while partitioned: partials=12 merged=4
recovered, tail buffered: partials=12 merged=4 resumes=2
crashed holding it: partials=12 merged=4 resumes=2
recovered again: partials=12 merged=4 resumes=4
after 3 rounds: partials=28 merged=14 late=0 degraded=0 forced=0
agg 1@8.192s MAX(light)=883.6198835667394 SUM(light)=3072.3004243643127
agg 2@16.384s MAX(light)=891.079157668782 SUM(light)=3116.6698693025073
agg 3@24.576s MAX(light)=885.2535058073267 SUM(light)=3082.086389391138
agg 4@32.768s MAX(light)=881.1310935305038 SUM(light)=3054.408041798333
agg 5@40.96s MAX(light)=892.3502970963629 SUM(light)=3105.8921577532014
agg 6@49.152s MAX(light)=891.8638146872744 SUM(light)=3103.2567485745694
agg 7@57.344s MAX(light)=891.3976372793197 SUM(light)=3094.8838094615758
rows 1@8.192s 1:{nodeid:1 light:883.6198835667394} 2:{nodeid:2 light:559.1557767401302} 3:{nodeid:3 light:772.0300452969253} 4:{nodeid:4 light:303.9098471348221} 5:{nodeid:5 light:296.7584793694249} 6:{nodeid:6 light:256.82639225627076}
rows 2@16.384s 1:{nodeid:1 light:891.079157668782} 2:{nodeid:2 light:563.8898778999594} 3:{nodeid:3 light:780.8726981276939} 4:{nodeid:4 light:312.836939514521} 5:{nodeid:5 light:301.81757217156166} 6:{nodeid:6 light:266.17362391998927}
rows 3@24.576s 1:{nodeid:1 light:885.2535058073267} 2:{nodeid:2 light:564.1092565920579} 3:{nodeid:3 light:768.043546350361} 4:{nodeid:4 light:308.4780478064026} 5:{nodeid:5 light:302.35913748007687} 6:{nodeid:6 light:253.8428953549125}
rows 4@32.768s 1:{nodeid:1 light:881.1310935305038} 2:{nodeid:2 light:552.321518000191} 3:{nodeid:3 light:768.9763587648009} 4:{nodeid:4 light:305.82053209365637} 5:{nodeid:5 light:290.8906907647915} 6:{nodeid:6 light:255.26784864438946}
rows 5@40.96s 1:{nodeid:1 light:892.3502970963629} 2:{nodeid:2 light:564.8048650232129} 3:{nodeid:3 light:769.8837293431484} 4:{nodeid:4 light:318.5019689194481} 5:{nodeid:5 light:303.69034555600086} 6:{nodeid:6 light:256.66095181502817}
rows 6@49.152s 1:{nodeid:1 light:891.8638146872744} 2:{nodeid:2 light:566.3193334889986} 3:{nodeid:3 light:766.412433546744} 4:{nodeid:4 light:319.47426299758695} 5:{nodeid:5 light:305.51804867299296} 6:{nodeid:6 light:253.66885518097254}
rows 7@57.344s 1:{nodeid:1 light:891.3976372793197} 2:{nodeid:2 light:553.923918370713} 3:{nodeid:3 light:773.9689828696438} 4:{nodeid:4 light:320.46261857237505} 5:{nodeid:5 light:293.4327064548636} 6:{nodeid:6 light:261.6979459146607}
`

// TestRouterCrashWithBufferedPartials crashes a shard while the router has
// partials of it still to fold: first a partitioned shard, whose updates
// park in its resume rings; then, right after its recovery and before any
// round drains it, the same shard with the replayed tail buffered in its
// streams. The router folds none of them at the crash — it lets go of the
// shard's streams — and all of them once the recovered shard's streams
// replay them from the resume cursor. The merged streams, and the partial,
// merge and resume counters after each step, must match the record the
// channel-read router left.
func TestRouterCrashWithBufferedPartials(t *testing.T) {
	r := newTestRouter(t, Config{WALDir: t.TempDir()})
	sess, err := r.Register("alice")
	if err != nil {
		t.Fatal(err)
	}
	aggTk := stageSub(t, sess, "SELECT SUM(light), MAX(light) EPOCH DURATION 8192ms")
	rowsTk := stageSub(t, sess, "SELECT nodeid, light EPOCH DURATION 8192ms")
	var out strings.Builder
	var aggs, rows []gateway.Update
	advance := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := r.Advance(testQuantum); err != nil {
				t.Fatal(err)
			}
		}
	}
	step := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		st := r.FedStats()
		fmt.Fprintf(&out, "%s: partials=%d merged=%d", what, st.PartialUpdates, st.MergedEpochs)
		if st.UpstreamResumes > 0 {
			fmt.Fprintf(&out, " resumes=%d", st.UpstreamResumes)
		}
		out.WriteString("\n")
	}
	advance(1)
	aggSub, err := aggTk.Wait()
	if err != nil {
		t.Fatal(err)
	}
	rowsSub, err := rowsTk.Wait()
	if err != nil {
		t.Fatal(err)
	}
	advance(2)
	step("partitioned", r.PartitionShard(1))
	advance(2)
	step("crashed while partitioned", r.CrashShard(1))
	step("recovered, tail buffered", r.RecoverShard(1))
	step("crashed holding it", r.CrashShard(1))
	step("recovered again", r.RecoverShard(1))
	advance(3)
	drain(aggSub, &aggs)
	drain(rowsSub, &rows)
	checkStream(t, aggs)
	checkStream(t, rows)
	st := r.FedStats()
	fmt.Fprintf(&out, "after 3 rounds: partials=%d merged=%d late=%d degraded=%d forced=%d\n",
		st.PartialUpdates, st.MergedEpochs, st.LateDropped, st.DegradedEpochs, st.ForcedReleases)
	for _, u := range aggs {
		fmt.Fprintf(&out, "agg %d@%v", u.Seq, u.At)
		for _, a := range u.Aggs {
			fmt.Fprintf(&out, " %v=%v", a.Agg, a.Value)
		}
		out.WriteString("\n")
	}
	for _, u := range rows {
		fmt.Fprintf(&out, "rows %d@%v", u.Seq, u.At)
		for _, row := range u.Rows {
			fmt.Fprintf(&out, " %d:%s", row.Node, row.Values.String())
		}
		out.WriteString("\n")
	}
	if got := out.String(); got != crashHoldingBufferedDigest {
		t.Fatalf("got\n%s\nwant\n%s", got, crashHoldingBufferedDigest)
	}
}

// TestRouterCrashDuringPartitionKeepsWatermark crashes a shard while it is
// partitioned. The shard's clock kept running while the router heard
// nothing from it, so the crash must not move its watermark forward: the
// epochs between the partition and the crash wait for the recovered
// shard's replay instead of releasing from the other shard alone. Every
// epoch the router marks complete must therefore carry the same SUM as a
// fault-free run, and no partial may arrive for an epoch already released.
func TestRouterCrashDuringPartitionKeepsWatermark(t *testing.T) {
	const text = "SELECT SUM(light) EPOCH DURATION 8192ms"
	run := func(faults bool) ([]gateway.Update, Stats) {
		r := newTestRouter(t, Config{WALDir: t.TempDir()})
		sess, err := r.Register("alice")
		if err != nil {
			t.Fatal(err)
		}
		tk := stageSub(t, sess, text)
		advance := func(n int) {
			t.Helper()
			for i := 0; i < n; i++ {
				if _, err := r.Advance(testQuantum); err != nil {
					t.Fatal(err)
				}
			}
		}
		fault := func(f func(int) error) {
			t.Helper()
			if faults {
				if err := f(1); err != nil {
					t.Fatal(err)
				}
			}
		}
		advance(3)
		sub, err := tk.Wait()
		if err != nil {
			t.Fatal(err)
		}
		fault(r.PartitionShard)
		advance(2)
		fault(r.CrashShard)
		advance(1)
		fault(r.RecoverShard)
		advance(2)
		var got []gateway.Update
		drain(sub, &got)
		checkStream(t, got)
		return got, r.FedStats()
	}
	want, _ := run(false)
	got, st := run(true)
	if st.LateDropped != 0 {
		t.Errorf("LateDropped = %d, want 0: an epoch released before the crashed shard's partial arrived", st.LateDropped)
	}
	if len(got) != len(want) {
		t.Fatalf("%d updates, fault-free run delivers %d", len(got), len(want))
	}
	for i, u := range got {
		t.Logf("seq %d degraded=%v coverage=%v SUM=%v", u.Seq, u.Degraded, u.Coverage, u.Aggs[0].Value)
		if !u.Degraded && u.Coverage == 1 && u.Aggs[0].Value != want[i].Aggs[0].Value {
			t.Errorf("seq %d marked complete with SUM %v, fault-free run reads %v", u.Seq, u.Aggs[0].Value, want[i].Aggs[0].Value)
		}
	}
}
