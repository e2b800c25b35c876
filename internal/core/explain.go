package core

import (
	"fmt"
	"strings"

	"repro/internal/query"
)

// Explanation describes how the base station serves one user query: which
// synthetic query runs in the network on its behalf, who it shares it with,
// and the mapping/calculation steps applied to the synthetic stream — the
// EXPLAIN of this query processor.
type Explanation struct {
	// UserQuery is the original query.
	UserQuery query.Query
	// Synthetic is the network query serving it.
	Synthetic query.Query
	// SharedWith lists the other user queries served by the same synthetic
	// query.
	SharedWith []query.ID
	// Steps are the base-station derivation steps, in order.
	Steps []string
	// EstSelectivity is the cost model's estimate of the fraction of nodes
	// answering the user query.
	EstSelectivity float64
	// UserCost and SyntheticShare estimate the query's standalone cost and
	// its pro-rata share of the synthetic query's cost (both in the §3.1.2
	// airtime-fraction unit).
	UserCost       float64
	SyntheticShare float64
	// GroupSavings is the benefit rate of the whole synthetic query:
	// 1 − cost(synthetic)/Σcost(contributors).
	GroupSavings float64
}

// Explain reports how user query qid is currently being served.
func (o *Optimizer) Explain(qid query.ID) (Explanation, error) {
	u, ok := o.users[qid]
	if !ok {
		return Explanation{}, fmt.Errorf("core: unknown user query %d", qid)
	}
	uq, s := u.q, u.syn

	e := Explanation{
		UserQuery:      uq.Clone(),
		Synthetic:      s.q.Clone(),
		EstSelectivity: o.model.Selectivity(uq.Preds),
		UserCost:       o.cost(&u.priced),
	}
	var total float64
	for _, m := range s.members {
		if m != u {
			e.SharedWith = append(e.SharedWith, m.q.ID)
		}
		total += o.cost(&m.priced)
	}
	synCost := o.cost(&s.priced)
	if total > 0 {
		e.SyntheticShare = synCost * e.UserCost / total
		e.GroupSavings = 1 - synCost/total
	}

	e.Steps = derivationSteps(s.q, uq)
	return e, nil
}

// derivationSteps lists what the base station does to turn the synthetic
// stream into the user query's answers.
func derivationSteps(syn, uq query.Query) []string {
	var steps []string
	if uq.Epoch != syn.Epoch {
		steps = append(steps, fmt.Sprintf("decimate epochs: deliver every %v of the %v stream",
			uq.Epoch, syn.Epoch))
	}
	if syn.IsAggregation() {
		if len(uq.Aggs) < len(syn.Aggs) {
			steps = append(steps, fmt.Sprintf("project aggregates %s from the shared partials", aggList(uq.Aggs)))
		} else {
			steps = append(steps, "deliver the in-network aggregates as-is")
		}
		return steps
	}
	// Acquisition synthetic stream.
	var refilter []string
	for _, p := range uq.Preds {
		if sp, ok := syn.PredFor(p.Attr); ok && sp == p {
			continue // applied identically in-network
		}
		refilter = append(refilter, p.String())
	}
	if len(refilter) > 0 {
		steps = append(steps, "re-filter rows on "+strings.Join(refilter, " AND "))
	}
	if uq.IsAggregation() {
		if uq.GroupBy != nil {
			steps = append(steps, fmt.Sprintf("bucket rows by %s", uq.GroupBy))
		}
		steps = append(steps, fmt.Sprintf("compute %s from raw rows", aggList(uq.Aggs)))
		return steps
	}
	if len(uq.Attrs) < len(syn.Attrs) {
		steps = append(steps, fmt.Sprintf("project rows to %s", attrList(uq)))
	}
	if len(steps) == 0 {
		steps = append(steps, "deliver rows as-is")
	}
	return steps
}

func aggList(aggs []query.Agg) string {
	parts := make([]string, 0, len(aggs))
	for _, a := range aggs {
		parts = append(parts, a.String())
	}
	return strings.Join(parts, ", ")
}

func attrList(q query.Query) string {
	parts := make([]string, 0, len(q.Attrs))
	for _, a := range q.Attrs {
		parts = append(parts, a.String())
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// String renders the explanation as a small report.
func (e Explanation) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "query:     %s\n", e.UserQuery)
	fmt.Fprintf(&sb, "runs as:   syn %d: %s\n", e.Synthetic.ID, e.Synthetic)
	if len(e.SharedWith) > 0 {
		fmt.Fprintf(&sb, "shared:    with user queries %v (group saves %.0f%% of standalone cost)\n",
			e.SharedWith, e.GroupSavings*100)
	} else {
		sb.WriteString("shared:    runs alone\n")
	}
	for i, s := range e.Steps {
		if i == 0 {
			fmt.Fprintf(&sb, "mapping:   %s\n", s)
		} else {
			fmt.Fprintf(&sb, "           %s\n", s)
		}
	}
	fmt.Fprintf(&sb, "estimates: selectivity %.2f, standalone cost %.5f, share of synthetic cost %.5f",
		e.EstSelectivity, e.UserCost, e.SyntheticShare)
	return sb.String()
}
