package experiments

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/network"
)

// servingStudies renders the share and federation studies at one seed the
// way ttmqo-bench publishes them: each text table, then each study's rows
// as they appear in the -json export.
func servingStudies(t *testing.T, seed int64) (string, error) {
	share, err := RunShareStudy(ShareStudyConfig{Seed: seed})
	if err != nil {
		return "", err
	}
	fed, err := RunFederationScaling(FederationScalingConfig{Seed: seed})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "-fig share\n%s-fig federation\n%s", textOf(t, "share", share), textOf(t, "federation", fed))
	for _, st := range []Study{{Name: "share", Rows: share}, {Name: "federation", Rows: fed}} {
		fmt.Fprintf(&b, "-json %s\n", st.Name)
		if err := network.WriteJSON(&b, st); err != nil {
			return "", err
		}
	}
	return b.String(), nil
}

// TestServingStudiesGolden pins the share and federation studies' tables
// and exported rows at two seeds. Both studies are functions of the seed in
// virtual time, so any change to how a cell is driven must reproduce them
// byte for byte.
func TestServingStudiesGolden(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		got, err := servingStudies(t, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		path := fmt.Sprintf("testdata/serving_studies_seed%d.golden", seed)
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("seed %d differs from %s:\n%s", seed, path, got)
		}
	}
}
