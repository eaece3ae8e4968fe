// Federation: the operational side of a model-based mediator — the
// features a mediation engineer uses day to day:
//
//  1. the generic query planner (semantic-index source pruning and
//     capability-aware pushdown, derived from the query text alone),
//  2. federation-wide consistency checking (integrity constraints and
//     data-completeness of domain-map edges, with ic witnesses), and
//  3. provenance: derivation trees explaining why a tuple is in a view.
//
// Run with: go run ./examples/federation
package main

import (
	"fmt"
	"log"

	"modelmed/internal/mediator"
	"modelmed/internal/sources"
	"modelmed/internal/term"
	"modelmed/internal/wrapper"
)

func main() {
	med := mediator.New(sources.NeuroDM(), nil)
	ws, err := sources.Wrappers(7, 30, 90, 25)
	if err != nil {
		log.Fatal(err)
	}
	for _, w := range ws {
		if err := med.Register(w); err != nil {
			log.Fatal(err)
		}
	}
	// A few unrelated sources, to give the planner something to skip.
	for i := 0; i < 4; i++ {
		src, err := sources.SyntheticSource(fmt.Sprintf("OTHERLAB%d", i), int64(i), 25,
			[]string{"ca1", "dentate_gyrus"})
		if err != nil {
			log.Fatal(err)
		}
		w, err := wrapper.NewInMemory(src)
		if err != nil {
			log.Fatal(err)
		}
		if err := med.Register(w); err != nil {
			log.Fatal(err)
		}
	}
	if err := med.DefineStandardViews(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("federation: %d sources\n", len(med.Sources()))

	// --- 1. The planner at work ---
	fmt.Println("\n== planned query: who measures anything inside a purkinje cell? ==")
	q := `anchor(S, O, C), dm_down(has_a, purkinje_cell, C), src_val(S, O, amount, A)`
	ans, plan, err := med.PlannedQuery(q, "S", "C")
	if err != nil {
		log.Fatal(err)
	}
	for _, step := range plan.Trace {
		fmt.Println("  plan:", step)
	}
	fmt.Printf("%d rows from %v (the %d OTHERLAB sources pruned by the semantic index)\n",
		len(ans.Rows), plan.Sources, 4)

	// --- 2. Consistency checking ---
	fmt.Println("\n== consistency: clean federation ==")
	rep, err := med.CheckConsistency(false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(" ", rep)

	fmt.Println("\n== consistency: after injecting a second organism value ==")
	if err := med.DefineView(
		`src_val('SENSELAB', sl_n0, organism, "a second organism") :- dm_concept(neuron).`); err != nil {
		log.Fatal(err)
	}
	rep, err = med.CheckConsistency(false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(" ", rep)
	for i, w := range rep.Witnesses {
		if i == 3 {
			fmt.Println("   ...")
			break
		}
		fmt.Println("  ", w)
	}

	// --- 3. Provenance ---
	fmt.Println("\n== provenance: why is sl_n0 a neurotransmission instance? ==")
	d, err := med.Explain("instance", term.Atom("sl_n0"), term.Atom("neurotransmission"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(d)

	fmt.Println("\n== provenance of a domain-map derivation ==")
	d, err = med.Explain("dm_dc",
		term.Atom("has_a"), term.Atom("purkinje_cell"), term.Atom("compartment"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(d)
}
