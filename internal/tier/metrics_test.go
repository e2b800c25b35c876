package tier

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/tracing"
)

// TestRegisterMetricsCoversStats: every Stats field but ShedDeadline reaches
// exactly one ttmqo_<tier>_ family, so a field added later without a row
// fails here. Each field is set alone, to a value no other family carries.
func TestRegisterMetricsCoversStats(t *testing.T) {
	const mark = 7
	typ := reflect.TypeOf(Stats{})
	for i := 0; i < typ.NumField(); i++ {
		field := typ.Field(i).Name
		reg := telemetry.NewRegistry()
		set := RegisterMetrics(reg, tracing.TierGateway)
		var st Stats
		reflect.ValueOf(&st).Elem().Field(i).SetInt(mark)
		set(false, st)
		var fams []string
		for _, f := range reg.Gather() {
			if !strings.HasPrefix(f.Name, "ttmqo_gateway_") {
				t.Errorf("family %s lacks the tier's prefix", f.Name)
			}
			for _, s := range f.Samples {
				if s.Value == mark {
					fams = append(fams, f.Name)
				}
			}
		}
		want := 1
		if field == "ShedDeadline" {
			want = 0 // a policy row of each tier
		}
		if len(fams) != want {
			t.Errorf("Stats.%s reaches %d families %v, want %d", field, len(fams), fams, want)
		}
	}
}
