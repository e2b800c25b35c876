package gateway

import (
	"errors"

	"repro/internal/query"
)

// CanonicalKey returns the semantic cache key of a client query: the
// canonical rendering of its normalized form with the identity and
// lifecycle metadata stripped. Two queries that request the same data —
// regardless of attribute order, predicate commutation, duplicate list
// entries or the units their epoch was spelled in — canonicalize to the
// same key and therefore share one admitted in-network query; queries that
// differ in any semantic dimension (bounds, epoch, operators, grouping) do
// not.
//
// Normalization (query.Normalize) sorts and deduplicates the attribute,
// aggregate and predicate lists and intersects same-attribute predicates;
// the parser already resolves duration units to a time.Duration. The
// canonical string renders every field in that sorted order with the epoch
// in milliseconds, so it is injective over normalized queries.
func CanonicalKey(q query.Query) string {
	c := q.Normalize()
	c.ID = 0
	c.Lifetime = 0
	return c.String()
}

// errLifetime is every tier's refusal of a LIFETIME subscription.
var errLifetime = errors.New("subscribe: LIFETIME is not supported (a subscription ends when its last subscriber leaves)")

// Canonicalize validates a client query for serving and returns its
// normalized form plus cache key: the one canonical subscription form the
// gateway, the federation router and the share coordinator admit.
// Subscriptions are continuous: a LIFETIME clause is rejected because each
// tier owns the query's lifecycle via reference counting.
func Canonicalize(q query.Query) (query.Query, string, error) {
	n := q.Normalize()
	n.ID = 0
	if n.Lifetime != 0 {
		return query.Query{}, "", errLifetime
	}
	if err := n.Validate(); err != nil {
		return query.Query{}, "", err
	}
	return n, n.String(), nil
}
