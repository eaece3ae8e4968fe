// Comparison: the paper's introduction contrasts simple "one world"
// mediation (comparison shopping across bookstores) — where structural,
// XML-level mediation suffices — with "multiple worlds" mediation,
// where it fails. This example shows both halves:
//
//  1. One world: two bookstores share vocabulary; a structural join on
//     the title attribute answers "where is each book cheapest".
//  2. Multiple worlds: the neuroscience sources share no vocabulary;
//     the structural mediator finds only exact matches and misses the
//     semantically contained data the model-based mediator aggregates.
//
// Run with: go run ./examples/comparison [-source-timeout D] [-retries N]
//
// -source-timeout and -retries switch the mediator's source fan-out to
// the guarded path (per-call deadline, retries with backoff, graceful
// degradation) — with the in-process wrappers this changes nothing in
// the output, which is exactly the point: the fault-tolerance layer is
// output-transparent when the sources answer.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"modelmed/internal/baseline"
	"modelmed/internal/mediator"
	"modelmed/internal/sources"
	"modelmed/internal/wrapper"
)

var (
	srcTimeoutFlag = flag.Duration("source-timeout", 0, "per-source call deadline (0 = none; enables the fault-tolerance layer)")
	retriesFlag    = flag.Int("retries", 0, "retries per transiently failing source call (enables the fault-tolerance layer)")
)

// medOptions maps the flags into mediator options.
func medOptions() *mediator.Options {
	return &mediator.Options{
		SourceTimeout: *srcTimeoutFlag,
		MaxRetries:    *retriesFlag,
	}
}

func main() {
	flag.Parse()
	oneWorld()
	multipleWorlds()
}

func oneWorld() {
	fmt.Println("== one world: comparison shopping (structural mediation suffices) ==")
	b := baseline.New()
	for _, name := range []string{"amazon", "bn"} {
		m := sources.Bookstore(name, 7, 40)
		w, err := wrapper.NewInMemory(m)
		if err != nil {
			log.Fatal(err)
		}
		if err := b.Register(w); err != nil {
			log.Fatal(err)
		}
	}
	// Structural join: same title string in both stores.
	rows, err := b.Query(`
		xml_elem(E, object), xml_attr(E, id, ID),
		xml_child(E, VT), xml_elem(VT, value), xml_attr(VT, method, title), xml_attr(VT, v, T),
		xml_child(E, VP), xml_elem(VP, value), xml_attr(VP, method, price_cents), xml_attr(VP, v, P)`,
		"T", "P")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("per-store price lists retrieved structurally: %d stores\n", len(rows))
	type offer struct {
		store, price string
	}
	byTitle := map[string][]offer{}
	for store, rs := range rows {
		for _, r := range rs {
			byTitle[r[0].Name()] = append(byTitle[r[0].Name()], offer{store, r[1].Name()})
		}
	}
	both := 0
	for _, offers := range byTitle {
		if len(offers) == 2 {
			both++
		}
	}
	fmt.Printf("titles available in both stores (joined on the title string): %d\n", both)
	fmt.Println("→ the one-world join needs no domain knowledge; XML-level mediation is fine.")

	st := b.Stats()
	fmt.Printf("   (work: %d source contacts, %d facts scanned)\n\n", st.SourcesContacted, st.FactsScanned)
}

func multipleWorlds() {
	fmt.Println("== multiple worlds: neuroscience (structural mediation breaks down) ==")
	ws, err := sources.Wrappers(42, 40, 150, 30)
	if err != nil {
		log.Fatal(err)
	}

	b := baseline.New()
	med := mediator.New(sources.NeuroDM(), medOptions())
	for _, w := range ws {
		if err := b.Register(w); err != nil {
			log.Fatal(err)
		}
		if err := med.Register(w); err != nil {
			log.Fatal(err)
		}
	}

	// The question: total calbindin measured in rat purkinje cells —
	// *including* their dendrites, branches and spines.
	const protein, organism, root = "calbindin", "rat", "purkinje_cell"

	// Trace the model-based run so the stage timings below come from
	// the mediator's own spans rather than stopwatching from outside.
	med.EnableTracing(true)

	bStart := time.Now()
	flatSum, flatN, err := b.FlatAmountSum(protein, organism, root)
	if err != nil {
		log.Fatal(err)
	}
	bElapsed := time.Since(bStart)
	fmt.Printf("structural mediator: location == %q exactly: %d records, total %.1f\n",
		root, flatN, flatSum)

	d, err := med.DistributionOf(protein, organism, root)
	if err != nil {
		log.Fatal(err)
	}
	total := d.Total()
	fmt.Printf("model-based mediator: containment region of %q: %d records, total %.1f\n",
		root, total.Count, total.Sum)
	fmt.Printf("→ the domain map recovers %.1fx more data (%d vs %d records):\n",
		float64(total.Count)/maxf(float64(flatN), 1), total.Count, flatN)
	fmt.Print(d)

	// Where the mediator's extra time goes, stage by stage, against the
	// baseline's flat scan.
	if sp := med.LastTrace(); sp != nil {
		fmt.Printf("\nstage timings (structural baseline end to end: %v):\n",
			bElapsed.Round(time.Microsecond))
		fmt.Print(sp.Render())
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
