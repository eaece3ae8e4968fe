package domainmap_test

import (
	"fmt"
	"slices"
	"testing"

	"modelmed/internal/datalog"
	"modelmed/internal/domainmap"
	"modelmed/internal/sources"
)

// taxonomyPairs returns the proper subsumption pairs "sub<sup" of the
// TBox's classification: every concept under each of its strict
// ancestors in the taxonomy.
func taxonomyPairs(t *testing.T, dm *domainmap.DomainMap) []string {
	t.Helper()
	tax, err := dm.TBox().Classify()
	if err != nil {
		t.Fatal(err)
	}
	var pairs []string
	for _, c := range tax.Concepts {
		seen := map[string]bool{}
		var up func(string)
		up = func(x string) {
			for _, p := range tax.Parents[x] {
				if !seen[p] {
					seen[p] = true
					pairs = append(pairs, c+"<"+p)
					up(p)
				}
			}
		}
		up(c)
	}
	slices.Sort(pairs)
	return pairs
}

// closurePairs returns the proper pairs "sub<sup" of the dm_isa_star
// closure the mediator evaluates, which source selection reads.
func closurePairs(t *testing.T, dm *domainmap.DomainMap) []string {
	t.Helper()
	e := datalog.NewEngine(nil)
	if err := e.AddRules(append(dm.Facts(), domainmap.ClosureRules()...)...); err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	var pairs []string
	for _, row := range res.Store.Rel(datalog.PredKey("dm_isa_star", 2)).Rows() {
		if !row[0].Equal(row[1]) {
			pairs = append(pairs, fmt.Sprintf("%s<%s", row[0].Name(), row[1].Name()))
		}
	}
	slices.Sort(pairs)
	return pairs
}

// TestSubsumptionDescriptionsAgree pins the two descriptions of
// subsumption to each other on the Neuro domain map, before and after
// Figure 3's registration of MyNeuron and MyDendrite: the TBox
// taxonomy (medsh's view) and the dm_isa_star closure.
func TestSubsumptionDescriptionsAgree(t *testing.T) {
	dm := sources.NeuroDM()
	check := func(label string, want int) {
		t.Helper()
		tax, closure := taxonomyPairs(t, dm), closurePairs(t, dm)
		if !slices.Equal(tax, closure) {
			t.Errorf("%s: taxonomy %v, closure %v", label, tax, closure)
		}
		if len(tax) != want {
			t.Errorf("%s: %d proper pairs, want %d", label, len(tax), want)
		}
	}
	check("Neuro", 19)
	if err := dm.AddAxioms(sources.Fig3Registration()...); err != nil {
		t.Fatal(err)
	}
	check("after Figure 3", 24)
}
