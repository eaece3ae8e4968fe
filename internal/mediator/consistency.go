package mediator

import (
	"fmt"
	"sort"

	"modelmed/internal/datalog"
	"modelmed/internal/dl"
	"modelmed/internal/gcm"
)

// ConsistencyReport is the outcome of checking the mediated object base
// against the registered integrity constraints and the domain map's
// data-completeness conditions.
type ConsistencyReport struct {
	// Witnesses are the decoded members of the ic class: constraint
	// violations (Example 2/3 kinds) and data-completeness failures
	// (w_ex kinds from Section 4's integrity-constraint reading of
	// domain-map edges).
	Witnesses []gcm.Witness
	// PerKind counts witnesses by functor.
	PerKind map[string]int
}

// Consistent reports whether no witness was derived.
func (r *ConsistencyReport) Consistent() bool { return len(r.Witnesses) == 0 }

func (r *ConsistencyReport) String() string {
	if r.Consistent() {
		return "consistent: no ic witnesses"
	}
	kinds := make([]string, 0, len(r.PerKind))
	for k := range r.PerKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	s := fmt.Sprintf("%d ic witnesses:", len(r.Witnesses))
	for _, k := range kinds {
		s += fmt.Sprintf(" %s=%d", k, r.PerKind[k])
	}
	return s
}

// CheckConsistency materializes the mediated object base and runs the
// integrity-constraint phase over it: the generic GCM constraint
// library (partial orders, cardinalities, scalar and key methods,
// inclusion dependencies — Examples 2 and 3, lifted to the federation),
// the constraint declarations carried by each registered source's CM,
// and — when checkDM is set — the constraint-mode reading of every
// existential domain-map edge (Section 4: a witness w_ex(C,r,D,X) when
// the object base is not data-complete for C —r→ D).
func (m *Mediator) CheckConsistency(checkDM bool) (*ConsistencyReport, error) {
	res, err := m.Materialize()
	if err != nil {
		return nil, err
	}
	e := datalog.NewEngine(&m.opts.Engine)
	if err := e.AddRules(gcm.ConstraintRules()...); err != nil {
		return nil, err
	}
	e.SeedEDB(res.Store) // stored facts are ground by construction
	if checkDM {
		tr := m.dm.InstanceRules(dl.ModeConstraint)
		if err := e.AddRules(tr.Rules...); err != nil {
			return nil, err
		}
	}
	checked, err := e.Run()
	if err != nil {
		return nil, err
	}
	report := &ConsistencyReport{PerKind: map[string]int{}}
	for _, w := range gcm.Witnesses(checked) {
		report.Witnesses = append(report.Witnesses, w)
		report.PerKind[w.Kind]++
	}
	// Data-completeness witnesses live in the dedicated dm_ic predicate.
	if rel := checked.Store.Rel(datalog.PredKey(dl.PredDMWitness, 1)); rel != nil {
		for _, row := range rel.SortedRows() {
			w := gcm.Witness{Kind: row[0].Name(), Args: row[0].Args()}
			report.Witnesses = append(report.Witnesses, w)
			report.PerKind[w.Kind]++
		}
	}
	return report, nil
}
