package gateway

import (
	"testing"

	"repro/internal/query"
)

// TestCanonicalKeyEquivalence drives the semantic dedup key with pairs of
// textually different but semantically equal queries — the gateway must map
// each pair to one in-network query.
func TestCanonicalKeyEquivalence(t *testing.T) {
	cases := []struct {
		name string
		a, b string
	}{
		{
			name: "attribute order",
			a:    "SELECT light, temp EPOCH DURATION 8192ms",
			b:    "SELECT temp, light EPOCH DURATION 8192ms",
		},
		{
			name: "aggregate order",
			a:    "SELECT MAX(light), MIN(temp) EPOCH DURATION 8192ms",
			b:    "SELECT MIN(temp), MAX(light) EPOCH DURATION 8192ms",
		},
		{
			name: "predicate commutation",
			a:    "SELECT light WHERE temp > 20 AND humidity < 80 EPOCH DURATION 8192ms",
			b:    "SELECT light WHERE humidity < 80 AND temp > 20 EPOCH DURATION 8192ms",
		},
		{
			name: "duplicate predicate intersects to itself",
			a:    "SELECT light WHERE temp > 20 EPOCH DURATION 8192ms",
			b:    "SELECT light WHERE temp > 20 AND temp > 20 EPOCH DURATION 8192ms",
		},
		{
			name: "tighter pair intersects to one range",
			a:    "SELECT light WHERE temp > 20 AND temp > 15 EPOCH DURATION 8192ms",
			b:    "SELECT light WHERE temp > 20 EPOCH DURATION 8192ms",
		},
		{
			name: "epoch units ms vs s",
			a:    "SELECT light EPOCH DURATION 8192ms",
			b:    "SELECT light EPOCH DURATION 8.192s",
		},
		{
			name: "epoch bare number is ms",
			a:    "SELECT light EPOCH DURATION 8192",
			b:    "SELECT light EPOCH DURATION 8192ms",
		},
		{
			name: "duplicate attribute",
			a:    "SELECT light, light EPOCH DURATION 8192ms",
			b:    "SELECT light EPOCH DURATION 8192ms",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			qa, qb := query.MustParse(tc.a), query.MustParse(tc.b)
			ka, kb := CanonicalKey(qa), CanonicalKey(qb)
			if ka != kb {
				t.Fatalf("keys differ:\n a: %q -> %q\n b: %q -> %q", tc.a, ka, tc.b, kb)
			}
		})
	}
}

// TestCanonicalKeyDistinguishes checks that genuinely different queries do
// NOT collide.
func TestCanonicalKeyDistinguishes(t *testing.T) {
	cases := []struct {
		name string
		a, b string
	}{
		{
			name: "different epoch",
			a:    "SELECT light EPOCH DURATION 8192ms",
			b:    "SELECT light EPOCH DURATION 16384ms",
		},
		{
			name: "different attribute",
			a:    "SELECT light EPOCH DURATION 8192ms",
			b:    "SELECT temp EPOCH DURATION 8192ms",
		},
		{
			name: "different predicate bound",
			a:    "SELECT light WHERE temp > 20 EPOCH DURATION 8192ms",
			b:    "SELECT light WHERE temp > 25 EPOCH DURATION 8192ms",
		},
		{
			name: "aggregate vs acquisition",
			a:    "SELECT MAX(light) EPOCH DURATION 8192ms",
			b:    "SELECT light EPOCH DURATION 8192ms",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ka := CanonicalKey(query.MustParse(tc.a))
			kb := CanonicalKey(query.MustParse(tc.b))
			if ka == kb {
				t.Fatalf("distinct queries collided on %q", ka)
			}
		})
	}
}

// TestCanonicalKeyIgnoresIdentity verifies the key is independent of the
// client-assigned query ID, so two clients posting the same text dedup.
func TestCanonicalKeyIgnoresIdentity(t *testing.T) {
	a := query.MustParse("SELECT MAX(light) WHERE temp > 20 EPOCH DURATION 8192ms")
	b := a.Clone()
	a.ID, b.ID = 7, 99
	if CanonicalKey(a) != CanonicalKey(b) {
		t.Fatalf("key depends on query ID")
	}
}

// TestCanonicalizeRejectsLifetime: subscriptions are cancelled by
// unsubscribe, not by a LIFETIME clause.
func TestCanonicalizeRejectsLifetime(t *testing.T) {
	q := query.MustParse("SELECT light EPOCH DURATION 8192ms LIFETIME 60s")
	if _, _, err := Canonicalize(q); err == nil {
		t.Fatalf("lifetime query accepted")
	}
}
