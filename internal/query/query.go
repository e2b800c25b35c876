// Package query defines the declarative query model of TinyDB that TTMQO
// optimizes: SELECT-FROM-WHERE with selection, projection and aggregation,
// plus an EPOCH DURATION clause giving the sampling period (§2 of the paper).
//
// A query is either a *data acquisition* query (it retrieves attribute
// values from every node whose readings satisfy the predicates) or a *data
// aggregation* query (it retrieves aggregates of an attribute over those
// nodes); for a single user query exactly one of the two lists is non-empty.
// Predicates are per-attribute value ranges ⟨attribute, min, max⟩ combined
// conjunctively, matching the paper's data structures (§3.1.1).
//
// The package also provides the semantic algebra the base-station optimizer
// relies on: coverage tests, the conjunctive-superset predicate union,
// epoch-duration arithmetic, and partial-aggregate state for in-network
// aggregation.
package query

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"repro/internal/field"
	"repro/internal/sim"
	"repro/internal/topology"
)

// MinEpoch is the smallest allowed epoch duration (§3.2.1: 2048 ms); every
// epoch duration must be a positive multiple of it.
const MinEpoch = 2048 * time.Millisecond

// ID identifies a user or synthetic query.
type ID int

// AggOp is an aggregation operator.
type AggOp uint8

// Aggregation operators. The paper's experiments use MAX and MIN; SUM,
// COUNT and AVG round out the usual TinyDB set.
const (
	Max AggOp = iota + 1
	Min
	Sum
	Count
	Avg
)

// String returns the SQL spelling of the operator.
func (op AggOp) String() string {
	switch op {
	case Max:
		return "MAX"
	case Min:
		return "MIN"
	case Sum:
		return "SUM"
	case Count:
		return "COUNT"
	case Avg:
		return "AVG"
	default:
		return fmt.Sprintf("AGG(%d)", uint8(op))
	}
}

// ParseAggOp converts a SQL operator name (any case) to an AggOp.
func ParseAggOp(s string) (AggOp, error) {
	switch strings.ToUpper(s) {
	case "MAX":
		return Max, nil
	case "MIN":
		return Min, nil
	case "SUM":
		return Sum, nil
	case "COUNT":
		return Count, nil
	case "AVG":
		return Avg, nil
	default:
		return 0, fmt.Errorf("query: unknown aggregate %q", s)
	}
}

// Agg is one ⟨operator, attribute⟩ entry of a query's agg_list.
type Agg struct {
	Op   AggOp
	Attr field.Attr
}

// String returns e.g. "MAX(light)". Every frame a client decodes and every
// JSON update renders one per aggregate, so the operator × attribute names
// are built once.
func (a Agg) String() string {
	if int(a.Op) < len(aggNames) && int(a.Attr) < len(aggNames[a.Op]) {
		return aggNames[a.Op][a.Attr]
	}
	return a.format()
}

func (a Agg) format() string { return fmt.Sprintf("%s(%s)", a.Op, a.Attr) }

// aggNames[op][attr] is format() of every declared pair (and the zero
// values), indexed by the enums' small codes.
var aggNames = func() [][]string {
	names := make([][]string, Avg+1)
	for op := range names {
		names[op] = make([]string, len(field.AllAttrs())+1)
		for attr := range names[op] {
			names[op][attr] = Agg{AggOp(op), field.Attr(attr)}.format()
		}
	}
	return names
}()

// Predicate is a closed value range on one attribute: Min ≤ value ≤ Max.
// Open-ended sides use ±Inf. Strict comparisons are represented by nudging
// the bound one ULP inward, which keeps the predicate algebra purely
// interval-based.
type Predicate struct {
	Attr field.Attr
	Min  float64
	Max  float64
}

// Matches reports whether v satisfies the predicate.
func (p Predicate) Matches(v float64) bool { return v >= p.Min && v <= p.Max }

// Empty reports whether no value can satisfy the predicate.
func (p Predicate) Empty() bool { return p.Min > p.Max }

// Contains reports whether p's range contains q's range (same attribute
// required): every value satisfying q satisfies p.
func (p Predicate) Contains(q Predicate) bool {
	return p.Attr == q.Attr && p.Min <= q.Min && p.Max >= q.Max
}

// Union returns the smallest single range covering both predicates
// (same attribute required).
func (p Predicate) Union(q Predicate) Predicate {
	return Predicate{Attr: p.Attr, Min: math.Min(p.Min, q.Min), Max: math.Max(p.Max, q.Max)}
}

// String renders the predicate as one or two SQL comparisons.
func (p Predicate) String() string {
	switch {
	case math.IsInf(p.Min, -1) && math.IsInf(p.Max, 1):
		return fmt.Sprintf("%s IS ANY", p.Attr) // never produced by the parser
	case math.IsInf(p.Min, -1):
		return fmt.Sprintf("%s <= %g", p.Attr, p.Max)
	case math.IsInf(p.Max, 1):
		return fmt.Sprintf("%s >= %g", p.Attr, p.Min)
	case p.Min == p.Max:
		return fmt.Sprintf("%s = %g", p.Attr, p.Min)
	default:
		return fmt.Sprintf("%s >= %g AND %s <= %g", p.Attr, p.Min, p.Attr, p.Max)
	}
}

// Query is a parsed, normalized continuous query.
type Query struct {
	ID    ID
	Attrs []field.Attr // projection list of an acquisition query
	Aggs  []Agg        // agg_list of an aggregation query
	Wins  []Win        // windowed (temporal) aggregates, node-local
	Preds []Predicate  // conjunctive; normalized to at most one per attribute
	Epoch time.Duration
	// Lifetime, when positive, auto-terminates the query that long after
	// admission (TinyDB's LIFETIME clause). It is lifecycle metadata, not
	// part of the query's data requirement: Equal ignores it and synthetic
	// queries never carry one.
	Lifetime time.Duration
	// GroupBy, when non-nil, partitions an aggregation query's results
	// into value buckets of one attribute (TinyDB's GROUP BY clause).
	GroupBy *GroupBy
}

// GroupBy buckets an aggregation by ⌊value/Width⌋ of one attribute.
type GroupBy struct {
	Attr  field.Attr
	Width float64
}

// Key returns the bucket of a reading.
func (g GroupBy) Key(v float64) int64 { return int64(math.Floor(v / g.Width)) }

// Equal reports whether two optional group specs are the same.
func (g *GroupBy) Equal(o *GroupBy) bool {
	if g == nil || o == nil {
		return g == o
	}
	return g.Attr == o.Attr && g.Width == o.Width
}

// String returns the SQL form, e.g. "GROUP BY temp BUCKET 10".
func (g GroupBy) String() string {
	if g.Width == 1 {
		return fmt.Sprintf("GROUP BY %s", g.Attr)
	}
	return fmt.Sprintf("GROUP BY %s BUCKET %g", g.Attr, g.Width)
}

// IsAggregation reports whether the query computes aggregates rather than
// returning raw rows.
func (q Query) IsAggregation() bool { return len(q.Aggs) > 0 }

// Validate checks the structural invariants of a user query.
func (q Query) Validate() error {
	if len(q.Attrs) == 0 && len(q.Aggs) == 0 && len(q.Wins) == 0 {
		return fmt.Errorf("query %d: empty select list", q.ID)
	}
	if len(q.Attrs) > 0 && len(q.Aggs) > 0 {
		return fmt.Errorf("query %d: both attribute and aggregate lists set", q.ID)
	}
	if err := q.validateWins(); err != nil {
		return err
	}
	if q.Epoch <= 0 {
		return fmt.Errorf("query %d: non-positive epoch %v", q.ID, q.Epoch)
	}
	if q.Epoch%MinEpoch != 0 {
		return fmt.Errorf("query %d: epoch %v not a multiple of %v", q.ID, q.Epoch, MinEpoch)
	}
	if q.Lifetime < 0 {
		return fmt.Errorf("query %d: negative lifetime %v", q.ID, q.Lifetime)
	}
	if q.Lifetime > 0 && q.Lifetime < q.Epoch {
		return fmt.Errorf("query %d: lifetime %v shorter than one epoch %v", q.ID, q.Lifetime, q.Epoch)
	}
	if q.GroupBy != nil {
		if len(q.Aggs) == 0 {
			return fmt.Errorf("query %d: GROUP BY requires aggregation", q.ID)
		}
		if q.GroupBy.Width <= 0 {
			return fmt.Errorf("query %d: non-positive GROUP BY bucket %g", q.ID, q.GroupBy.Width)
		}
	}
	if err := q.validateCodes(); err != nil {
		return err
	}
	var seen field.AttrSet
	for _, p := range q.Preds {
		if p.Empty() {
			return fmt.Errorf("query %d: unsatisfiable predicate on %s", q.ID, p.Attr)
		}
		if seen.Has(p.Attr) {
			return fmt.Errorf("query %d: duplicate predicate attribute %s", q.ID, p.Attr)
		}
		seen |= 1 << p.Attr
	}
	return nil
}

// validateCodes rejects an attribute or operator code the enums do not
// declare. The parser cannot produce one, but a Query built in code can, and
// everything downstream — a field.AttrSet bit, a field.Values slot, the
// optimizer's per-attribute arrays — is sized for the declared codes only.
func (q Query) validateCodes() error {
	declared := func(op AggOp, a field.Attr) bool {
		return op >= Max && op <= Avg && a >= field.AttrNodeID && a <= field.AttrVoltage
	}
	ok := q.GroupBy == nil || declared(Max, q.GroupBy.Attr)
	for _, a := range q.Attrs {
		ok = ok && declared(Max, a)
	}
	for _, a := range q.Aggs {
		ok = ok && declared(a.Op, a.Attr)
	}
	for _, w := range q.Wins {
		ok = ok && declared(w.Op, w.Attr)
	}
	for _, p := range q.Preds {
		ok = ok && declared(Max, p.Attr)
	}
	if !ok {
		return fmt.Errorf("query %d: attribute or operator code not declared", q.ID)
	}
	return nil
}

// Normalize returns the query's canonical form: the attribute, aggregate,
// window and predicate lists ascending and free of duplicates, multiple
// predicates on one attribute intersected, tautologies dropped, an empty list
// nil. The receiver is unchanged. A list that is already canonical is
// returned as it is, not copied — so a normalized query, the optimizer's
// member entry for it and the synthetic query built from it may share one
// backing array, and nothing may write through a Query's lists: code that
// edits one works on a Clone (tier.Piece, Synthesize's windowed merge).
func (q Query) Normalize() Query {
	out := q
	out.Attrs = dedupAttrs(q.Attrs)
	out.Aggs = dedupAggs(q.Aggs)
	out.Wins = dedupWins(q.Wins)
	out.Preds = normalizePreds(q.Preds)
	return out
}

// sortedSet returns xs ascending under less with exact duplicates removed:
// xs itself when it is strictly ascending already, otherwise a copy built by
// stable insertion (a query's lists hold a handful of entries).
func sortedSet[T comparable](xs []T, less func(a, b T) bool) []T {
	if len(xs) == 0 {
		return nil
	}
	canonical := true
	for i := 1; i < len(xs) && canonical; i++ {
		canonical = less(xs[i-1], xs[i])
	}
	if canonical {
		return xs
	}
	out := make([]T, 0, len(xs))
	for _, x := range xs {
		if slices.Contains(out, x) {
			continue
		}
		i := len(out)
		for i > 0 && less(x, out[i-1]) {
			i--
		}
		out = slices.Insert(out, i, x)
	}
	return out
}

func dedupAttrs(attrs []field.Attr) []field.Attr { return sortedSet(attrs, cmp.Less[field.Attr]) }

func dedupAggs(aggs []Agg) []Agg {
	return sortedSet(aggs, func(a, b Agg) bool {
		if a.Attr != b.Attr {
			return a.Attr < b.Attr
		}
		return a.Op < b.Op
	})
}

// tautology reports a predicate unbounded on both sides: it constrains
// nothing and would otherwise leak ±Inf into the printed form.
func (p Predicate) tautology() bool { return math.IsInf(p.Min, -1) && math.IsInf(p.Max, 1) }

func normalizePreds(preds []Predicate) []Predicate {
	if len(preds) == 0 {
		return nil
	}
	canonical := !preds[0].tautology()
	for i := 1; i < len(preds) && canonical; i++ {
		canonical = preds[i-1].Attr < preds[i].Attr && !preds[i].tautology()
	}
	if canonical {
		return preds
	}
	out := make([]Predicate, 0, len(preds))
	for _, p := range preds {
		i := len(out)
		for i > 0 && p.Attr < out[i-1].Attr {
			i--
		}
		if i > 0 && out[i-1].Attr == p.Attr {
			// Conjunction of two ranges on the same attribute: intersect.
			out[i-1].Min, out[i-1].Max = math.Max(out[i-1].Min, p.Min), math.Min(out[i-1].Max, p.Max)
			continue
		}
		out = slices.Insert(out, i, p)
	}
	out = slices.DeleteFunc(out, Predicate.tautology)
	if len(out) == 0 {
		return nil
	}
	return out
}

// MatchesValues reports whether a reading vector satisfies every predicate.
// Attributes missing from the row fail the corresponding predicate.
func (q Query) MatchesValues(values *field.Values) bool {
	return MatchAll(q.Preds, values)
}

// MatchAll reports whether a reading vector satisfies every predicate of a
// conjunctive list.
func MatchAll(preds []Predicate, values *field.Values) bool {
	for _, p := range preds {
		v, ok := values.Get(p.Attr)
		if !ok || !p.Matches(v) {
			return false
		}
	}
	return true
}

// PredFor returns the predicate on attribute a, if any.
func (q Query) PredFor(a field.Attr) (Predicate, bool) {
	for _, p := range q.Preds {
		if p.Attr == a {
			return p, true
		}
	}
	return Predicate{}, false
}

// PredAttrs returns the attributes constrained by the query's predicates.
func (q Query) PredAttrs() []field.Attr {
	attrs := make([]field.Attr, 0, len(q.Preds))
	for _, p := range q.Preds {
		attrs = append(attrs, p.Attr)
	}
	return attrs
}

// AggAttrs returns the attributes aggregated by the query.
func (q Query) AggAttrs() []field.Attr {
	attrs := make([]field.Attr, 0, len(q.Aggs))
	for _, a := range q.Aggs {
		attrs = append(attrs, a.Attr)
	}
	return dedupAttrs(attrs)
}

// HasAttr reports whether a is in the acquisition list.
func (q Query) HasAttr(a field.Attr) bool {
	for _, x := range q.Attrs {
		if x == a {
			return true
		}
	}
	return false
}

// HasAgg reports whether the aggregate is in the agg list.
func (q Query) HasAgg(a Agg) bool {
	for _, x := range q.Aggs {
		if x == a {
			return true
		}
	}
	return false
}

// SampledAttrs returns every attribute the query needs a node to sample:
// projection attributes, aggregate inputs, predicate attributes and the
// grouping attribute.
func (q Query) SampledAttrs() []field.Attr {
	attrs := make([]field.Attr, 0, len(q.Attrs)+len(q.Aggs)+len(q.Preds)+1)
	attrs = append(attrs, q.Attrs...)
	for _, a := range q.Aggs {
		attrs = append(attrs, a.Attr)
	}
	attrs = append(attrs, q.PredAttrs()...)
	for _, w := range q.Wins {
		attrs = append(attrs, w.Attr)
	}
	if q.GroupBy != nil {
		attrs = append(attrs, q.GroupBy.Attr)
	}
	return dedupAttrs(attrs)
}

// Clone returns a deep copy (the list fields are otherwise shared).
func (q Query) Clone() Query {
	out := q
	out.Attrs = append([]field.Attr(nil), q.Attrs...)
	out.Aggs = append([]Agg(nil), q.Aggs...)
	out.Wins = append([]Win(nil), q.Wins...)
	out.Preds = append([]Predicate(nil), q.Preds...)
	if q.GroupBy != nil {
		g := *q.GroupBy
		out.GroupBy = &g
	}
	return out
}

// Equal reports whether two queries are semantically identical up to
// normalization (IDs are ignored).
func (q Query) Equal(o Query) bool {
	a, b := q.Normalize(), o.Normalize()
	if a.Epoch != b.Epoch ||
		!a.GroupBy.Equal(b.GroupBy) ||
		len(a.Attrs) != len(b.Attrs) ||
		len(a.Aggs) != len(b.Aggs) ||
		len(a.Wins) != len(b.Wins) ||
		len(a.Preds) != len(b.Preds) {
		return false
	}
	for i := range a.Wins {
		if a.Wins[i] != b.Wins[i] {
			return false
		}
	}
	for i := range a.Attrs {
		if a.Attrs[i] != b.Attrs[i] {
			return false
		}
	}
	for i := range a.Aggs {
		if a.Aggs[i] != b.Aggs[i] {
			return false
		}
	}
	for i := range a.Preds {
		if a.Preds[i] != b.Preds[i] {
			return false
		}
	}
	return true
}

// Row is one tuple of an acquisition query's result stream. Values is the
// flat form the mote built (read it with Get, Len, Each or String); a Row is
// copied by assignment and shares nothing with its source.
type Row struct {
	Node   topology.NodeID
	Time   sim.Time
	Values field.Values
}

// AggState is a mergeable partial aggregate, the "partial state record" of
// in-network aggregation: internal nodes merge children's states with their
// own reading and forward a single state upward (§3.2.2).
type AggState struct {
	Agg Agg
	// Group is the GROUP BY bucket this partial belongs to (0 for
	// ungrouped queries). Partials merge and share only within a group.
	Group int64
	Sum   float64
	Count int64
	MinV  float64
	MaxV  float64
}

// NewAggState returns an empty state for the aggregate.
func NewAggState(a Agg) AggState {
	return AggState{Agg: a, MinV: math.Inf(1), MaxV: math.Inf(-1)}
}

// NewGroupedAggState returns an empty state for one bucket of a grouped
// aggregate.
func NewGroupedAggState(a Agg, group int64) AggState {
	s := NewAggState(a)
	s.Group = group
	return s
}

// Add folds one reading into the state.
func (s *AggState) Add(v float64) {
	s.Sum += v
	s.Count++
	s.MinV = math.Min(s.MinV, v)
	s.MaxV = math.Max(s.MaxV, v)
}

// Merge folds another partial state (for the same aggregate) into s.
func (s *AggState) Merge(o AggState) {
	s.Sum += o.Sum
	s.Count += o.Count
	s.MinV = math.Min(s.MinV, o.MinV)
	s.MaxV = math.Max(s.MaxV, o.MaxV)
}

// FoldState folds one partial into a state list; partials combine only
// within the same aggregate AND the same GROUP BY bucket.
func FoldState(states []AggState, st AggState) []AggState {
	for i := range states {
		if states[i].Agg == st.Agg && states[i].Group == st.Group {
			states[i].Merge(st)
			return states
		}
	}
	return append(states, st)
}

// Valid reports whether any reading has been folded in.
func (s AggState) Valid() bool { return s.Count > 0 }

// Result returns the final aggregate value; ok is false for an empty state
// (no node satisfied the predicates this epoch).
func (s AggState) Result() (v float64, ok bool) {
	if s.Count == 0 {
		return 0, false
	}
	switch s.Agg.Op {
	case Max:
		return s.MaxV, true
	case Min:
		return s.MinV, true
	case Sum:
		return s.Sum, true
	case Count:
		return float64(s.Count), true
	case Avg:
		return s.Sum / float64(s.Count), true
	default:
		return 0, false
	}
}

// SameValue reports whether two partial states are identical and can
// therefore ride in one packet shared between their queries. §3.2.2 shares
// one message among "all of the queries whose partial aggregation value are
// the same"; the paper's Figure 2 walk-through shows the criterion is the
// partial *state* — node B there sends separate messages for two MAX
// queries whose numeric maxima coincide but whose contributing sets differ.
// Identical full state (sum, count, min, max) is exactly "same partial
// aggregation", and is safe for every operator including AVG.
func (s AggState) SameValue(o AggState) bool {
	return s.Agg == o.Agg && s.Group == o.Group &&
		s.Sum == o.Sum && s.Count == o.Count &&
		s.MinV == o.MinV && s.MaxV == o.MaxV
}

// AggResult is one tuple of an aggregation query's result stream.
type AggResult struct {
	Time sim.Time
	Agg  Agg
	// Group is the GROUP BY bucket of the value (0 for ungrouped queries).
	Group int64
	Value float64
	// Empty marks an epoch where no node satisfied the predicates.
	Empty bool
}
