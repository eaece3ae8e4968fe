// Neuroscience: the paper's full mediation scenario, end to end.
//
// It builds the ANATOM domain map (Figure 1 + anatomical containment),
// registers the SYNAPSE, NCMIR and SENSELAB sources over the XML wire,
// defines the Example 4 protein_distribution view, and runs the
// Section 5 query — "What is the distribution of those calcium-binding
// proteins that are found in neurons that receive signals from parallel
// fibers in rat brains?" — printing the four-step query plan as it
// executes.
//
// Run with: go run ./examples/neuroscience
package main

import (
	"fmt"
	"log"

	"modelmed/internal/mediator"
	"modelmed/internal/sources"
)

func main() {
	// The mediator over the ANATOM domain map.
	dm := sources.NeuroDM()
	med := mediator.New(dm, nil)
	fmt.Printf("domain map %s: %d concepts, roles %v\n\n",
		dm.Name(), len(dm.Concepts()), dm.Roles())

	// Register the three laboratory sources (synthetic stand-ins with
	// the real schemas and anchor structure).
	ws, err := sources.Wrappers(2026, 60, 160, 40)
	if err != nil {
		log.Fatal(err)
	}
	for _, w := range ws {
		if err := med.Register(w); err != nil {
			log.Fatal(err)
		}
		anchors, _ := w.Anchors()
		fmt.Printf("registered %-9s — anchors at %d concepts\n", w.Name(), len(anchors))
	}
	if err := med.DefineStandardViews(); err != nil {
		log.Fatal(err)
	}

	// Example 1's "loose federation": the two worlds correlate through
	// the domain map although their schemas share nothing.
	fmt.Println("\n-- Example 1: correlating SYNAPSE and NCMIR through the domain map --")
	ans, err := med.Query(`
		anchor('SYNAPSE', O1, C1),
		anchor('NCMIR', O2, C2),
		dm_down(has_a, C1, C2),
		C1 \= C2`, "C1", "C2")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d semantically related concept pairs, e.g.:\n", len(ans.Rows))
	for i, row := range ans.Rows {
		if i == 4 {
			break
		}
		fmt.Printf("  SYNAPSE data at %-16s contains NCMIR data at %s\n",
			row[0].Term().Name(), row[1].Term().Name())
	}

	// Example 4: the protein_distribution view for
	// P=cerebellum, Z=rat, Y=Ryanodine Receptor.
	fmt.Println("\n-- Example 4: protein_distribution view --")
	ans, err = med.Query(
		`protein_distribution(cerebellum, "ryanodine_receptor", "rat", Total, N)`,
		"Total", "N")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(mediator.FormatAnswer(ans))

	// Section 5: the calcium-binding protein query with its query plan.
	fmt.Println("\n-- Section 5: the KIND query plan --")
	res, err := med.CalciumBindingProteinQuery("SENSELAB", "rat", "parallel_fiber", "calcium")
	if err != nil {
		log.Fatal(err)
	}
	for _, step := range res.Trace {
		fmt.Println(" ", step)
	}
	for _, p := range res.Proteins {
		fmt.Printf("\n%s distribution under %s:\n%s", p, res.Root, res.Distributions[p])
	}
}
