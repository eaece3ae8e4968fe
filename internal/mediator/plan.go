package mediator

import (
	"fmt"
	"sort"
	"strings"

	"modelmed/internal/gcm"
	"modelmed/internal/obs"
	"modelmed/internal/term"
	"modelmed/internal/wrapper"
)

// ProteinDistributionView is the paper's Example 4 integrated view,
// written in the rule language over the mediated vocabulary: for every
// domain-map root, protein and organism, the total amount (per-object
// sum) and record count of protein measurements anchored anywhere in
// the root's containment region. It extends global-as-view integration
// over both the information sources and the domain map.
const ProteinDistributionView = `
	pd_contrib(Root, Prot, Org, O, A) :-
		dm_down(has_a, Root, C),
		anchor(Src, O, C),
		src_val(Src, O, protein_name, Prot),
		src_val(Src, O, organism, Org),
		src_val(Src, O, amount, A).
	protein_distribution(Root, Prot, Org, Total, N) :-
		Total = sum{A[Root, Prot, Org] per O; pd_contrib(Root, Prot, Org, O, A)},
		N = count{O2[Root, Prot, Org]; pd_contrib(Root, Prot, Org, O2, A2)}.
`

// NeurotransmissionView lifts SENSELAB-style records into the mediated
// class the Section 5 query is written against.
const NeurotransmissionView = `
	neurotransmission(O, Org, TN, TC, RN, RC, NT) :-
		src_obj(S, O, neurotransmission),
		src_val(S, O, organism, Org),
		src_val(S, O, transmitting_neuron, TN),
		src_val(S, O, transmitting_compartment, TC),
		src_val(S, O, receiving_neuron, RN),
		src_val(S, O, receiving_compartment, RC),
		src_val(S, O, neurotransmitter, NT).
`

// DefineStandardViews registers the Example 4 and Section 5 views.
func (m *Mediator) DefineStandardViews() error {
	for _, v := range []string{ProteinDistributionView, NeurotransmissionView} {
		if err := m.DefineView(v); err != nil {
			return err
		}
	}
	return nil
}

// PushResult reports how a selection was executed at a source.
type PushResult struct {
	Source string
	Pushed bool // true: selections executed at the wrapper; false: scan + local filter
	Objs   []gcm.Object
}

// PushSelect sends a selection query to a source, pushing the
// selections down when the source's capabilities cover them (the
// paper's binding patterns) and falling back to a full scan with local
// filtering otherwise. When the fault-tolerance layer is enabled the
// wrapper calls run under deadline/retry/breaker policy; a source that
// exhausts its budget returns a *SourceDownError.
func (m *Mediator) PushSelect(source, class string, sels ...wrapper.Selection) (*PushResult, error) {
	g := m.newGuard()
	res, err := m.pushSelect(g, source, class, sels...)
	// Keep the mediator-level report view current for this source
	// without clobbering other sources' reports (merge-by-source).
	m.mergeReports(g.Reports())
	return res, err
}

func (m *Mediator) pushSelect(g *guard, source, class string, sels ...wrapper.Selection) (*PushResult, error) {
	s, ok := m.Source(source)
	if !ok {
		return nil, fmt.Errorf("mediator: unknown source %s", source)
	}
	if s.W == nil {
		return nil, fmt.Errorf("mediator: source %s has no live wrapper", source)
	}
	objs, err := g.queryObjects(s, wrapper.Query{Target: class, Selections: sels})
	if err == nil {
		return &PushResult{Source: source, Pushed: true, Objs: objs}, nil
	}
	if sourceDown(err) {
		// The source is unavailable; a scan would only burn the retry
		// budget again.
		return nil, err
	}
	// Capability miss: scan and filter at the mediator.
	objs, scanErr := g.queryObjects(s, wrapper.Query{Target: class})
	if scanErr != nil {
		return nil, fmt.Errorf("mediator: source %s: %v (and scan failed: %w)", source, err, scanErr)
	}
	var filtered []gcm.Object
	for _, o := range objs {
		ok := true
		for _, sel := range sels {
			hit := false
			for _, v := range o.Values[sel.Attr] {
				if v.Equal(sel.Value) {
					hit = true
					break
				}
			}
			if !hit {
				ok = false
				break
			}
		}
		if ok {
			filtered = append(filtered, o)
		}
	}
	return &PushResult{Source: source, Pushed: false, Objs: filtered}, nil
}

// CallTemplate invokes a named query template on a source (the paper's
// "query templates" capability class).
func (m *Mediator) CallTemplate(source, name string, params map[string]term.Term) ([]gcm.Object, error) {
	s, ok := m.Source(source)
	if !ok {
		return nil, fmt.Errorf("mediator: unknown source %s", source)
	}
	if s.W == nil {
		return nil, fmt.Errorf("mediator: source %s has no live wrapper", source)
	}
	return s.W.QueryTemplate(name, params)
}

// SelectSourcesForPair returns the sources (other than exclude) that
// have data anchored at both coordinates of a semantic pair, expanding
// each coordinate through its isa-descendants — step 2 of the Section 5
// plan.
func (m *Mediator) SelectSourcesForPair(neuron, compartment, exclude string) []string {
	srcs := m.index.SelectSourcesAll(m.dm, []string{neuron, compartment})
	out := srcs[:0]
	for _, s := range srcs {
		if s != exclude {
			out = append(out, s)
		}
	}
	return out
}

// Section5Result traces the paper's Section 5 query through its four
// plan steps.
type Section5Result struct {
	// Pairs are the receiving neuron/compartment pairs bound in step 1.
	Pairs [][2]string
	// SelectedSources are the sources chosen via the semantic index in
	// step 2.
	SelectedSources []string
	// Proteins are the matching (e.g. calcium-binding) proteins
	// retrieved in step 3.
	Proteins []string
	// Root is the lub of the pair locations computed in step 4.
	Root string
	// Distributions maps protein name to its distribution under Root.
	Distributions map[string]*Distribution
	// Trace is the human-readable plan log.
	Trace []string
	// Span is the query's span tree (nil when tracing is off), with one
	// child per plan step: the query's stage-level latency breakdown.
	Span *obs.Span
}

// CalciumBindingProteinQuery executes the Section 5 query — "What is
// the distribution of those calcium-binding proteins that are found in
// neurons that receive signals from parallel fibers in rat brains?" —
// generalized over organism, transmitting compartment and bound ion.
// It follows the paper's four-step plan:
//
//  1. push the organism/compartment selections to the
//     neurotransmission source and bind the receiving
//     neuron/compartment pairs;
//  2. select, via the domain map and semantic index, the sources with
//     data anchored at those pairs;
//  3. push the location selections to the selected sources and
//     retrieve the proteins found there, filtered by bound ion;
//  4. compute the lub of the locations as distribution root and
//     evaluate the distribution view with its downward closure along
//     has_a_star.
func (m *Mediator) CalciumBindingProteinQuery(driver, organism, transmittingCompartment, ion string) (*Section5Result, error) {
	sp := m.startSpan("mediator.section5")
	defer m.endTrace(sp)
	res := &Section5Result{Distributions: map[string]*Distribution{}, Span: sp}
	tracef := func(format string, args ...interface{}) {
		res.Trace = append(res.Trace, fmt.Sprintf(format, args...))
	}

	// Step 1: push selections to the driver source.
	s1 := sp.Child("step1 pushdown")
	push, err := m.PushSelect(driver, "neurotransmission",
		wrapper.Selection{Attr: "organism", Value: term.Str(organism)},
		wrapper.Selection{Attr: "transmitting_compartment", Value: term.Atom(transmittingCompartment)},
	)
	if err != nil {
		s1.End()
		return nil, err
	}
	tracef("step 1: pushed (organism=%s, transmitting_compartment=%s) to %s; %d records (pushdown=%v)",
		organism, transmittingCompartment, driver, len(push.Objs), push.Pushed)
	pairSet := map[[2]string]bool{}
	for _, o := range push.Objs {
		rn := firstAtom(o.Values["receiving_neuron"])
		rc := firstAtom(o.Values["receiving_compartment"])
		if rn != "" && rc != "" && !pairSet[[2]string{rn, rc}] {
			pairSet[[2]string{rn, rc}] = true
			res.Pairs = append(res.Pairs, [2]string{rn, rc})
		}
	}
	sort.Slice(res.Pairs, func(i, j int) bool {
		if res.Pairs[i][0] != res.Pairs[j][0] {
			return res.Pairs[i][0] < res.Pairs[j][0]
		}
		return res.Pairs[i][1] < res.Pairs[j][1]
	})
	s1.SetInt("records", int64(len(push.Objs)))
	s1.SetInt("pairs", int64(len(res.Pairs)))
	s1.End()
	if len(res.Pairs) == 0 {
		tracef("step 1: no bindings; query is empty")
		return res, nil
	}

	// Step 2: semantic-index source selection per pair, refined by the
	// organism context attribute (Section 2's context coordinates: a
	// source with no rat data never receives rat queries).
	s2 := sp.Child("step2 source_selection")
	srcSet := map[string]bool{}
	for _, p := range res.Pairs {
		for _, s := range m.SelectSourcesForPair(p[0], p[1], driver) {
			srcSet[s] = true
		}
	}
	var preContext []string
	for s := range srcSet {
		preContext = append(preContext, s)
	}
	sort.Strings(preContext)
	res.SelectedSources = m.index.FilterByContext(preContext, "organism", term.Str(organism))
	if len(res.SelectedSources) != len(preContext) {
		tracef("step 2: semantic index selects %v; organism=%s context narrows to %v",
			preContext, organism, res.SelectedSources)
	} else {
		tracef("step 2: semantic index selects sources %v for pairs %v", res.SelectedSources, res.Pairs)
	}
	s2.SetInt("sources", int64(len(res.SelectedSources)))
	s2.End()

	// Step 3: push location selections to the selected sources; collect
	// proteins found there, filtered by bound ion.
	s3 := sp.Child("step3 proteins")
	locations := map[string]bool{}
	for _, p := range res.Pairs {
		locations[p[0]] = true
		locations[p[1]] = true
	}
	locs := make([]string, 0, len(locations))
	for l := range locations {
		locs = append(locs, l)
	}
	sort.Strings(locs)
	protSet := map[string]bool{}
	for _, src := range res.SelectedSources {
		for _, loc := range locs {
			push, err := m.PushSelect(src, "protein_amount",
				wrapper.Selection{Attr: "location", Value: term.Atom(loc)})
			if err != nil {
				// The source does not export this class: it contributes
				// nothing to this step.
				tracef("step 3: %s does not answer protein_amount queries (%v)", src, err)
				break
			}
			for _, o := range push.Objs {
				if p := firstStr(o.Values["protein_name"]); p != "" {
					protSet[p] = true
				}
			}
		}
	}
	// Ion filter against the protein catalogues of the selected sources;
	// sources without a catalogue neither add nor veto.
	if ion != "" {
		matching := map[string]bool{}
		anyCatalogue := false
		for _, src := range res.SelectedSources {
			push, err := m.PushSelect(src, "protein",
				wrapper.Selection{Attr: "ion_bound", Value: term.Atom(ion)})
			if err != nil {
				tracef("step 3: %s has no protein catalogue (%v)", src, err)
				continue
			}
			anyCatalogue = true
			for _, o := range push.Objs {
				if p := firstStr(o.Values["name"]); p != "" {
					matching[p] = true
				}
			}
		}
		if !anyCatalogue {
			// No catalogue anywhere: the ion filter cannot be applied.
			tracef("step 3: no protein catalogue available; skipping the %s filter", ion)
			matching = protSet
		}
		for p := range protSet {
			if !matching[p] {
				delete(protSet, p)
			}
		}
	}
	for p := range protSet {
		res.Proteins = append(res.Proteins, p)
	}
	sort.Strings(res.Proteins)
	tracef("step 3: pushed location selections to %v; %d %s-binding proteins found: %v",
		res.SelectedSources, len(res.Proteins), ion, res.Proteins)
	s3.SetInt("proteins", int64(len(res.Proteins)))
	s3.End()

	// Step 4: lub of the locations as distribution root, then the
	// downward-closure aggregation.
	s4 := sp.Child("step4 distribution")
	lub := m.dm.LUB("has_a", locs)
	if len(lub) == 0 {
		tracef("step 4: locations %v have no common container; no distribution", locs)
		s4.End()
		return res, nil
	}
	res.Root = lub[0]
	tracef("step 4: lub(%v) = %v; root %s", locs, lub, res.Root)
	for _, p := range res.Proteins {
		d, err := m.DistributionOf(p, organism, res.Root)
		if err != nil {
			s4.End()
			return nil, err
		}
		res.Distributions[p] = d
	}
	tracef("step 4: computed %d distributions under %s", len(res.Distributions), res.Root)
	s4.SetInt("distributions", int64(len(res.Distributions)))
	s4.End()
	return res, nil
}

// DistributionOf computes the Example 4 distribution of a protein for
// an organism under a root concept, by querying the per-concept
// contributions from the materialized base and folding them over the
// domain map.
func (m *Mediator) DistributionOf(protein, organism, root string) (*Distribution, error) {
	ans, err := m.Query(fmt.Sprintf(
		`anchor(Src, O, C), src_val(Src, O, protein_name, %q), src_val(Src, O, organism, %q), src_val(Src, O, amount, A)`,
		protein, organism), "C", "O", "A")
	if err != nil {
		return nil, err
	}
	direct := map[string]Contribution{}
	for _, row := range ans.Rows {
		c := row[0].Name()
		amt, ok := row[2].Numeric()
		if !ok {
			return nil, fmt.Errorf("mediator: non-numeric amount %s for %s", row[2], row[1])
		}
		entry := direct[c]
		entry.Sum += amt
		entry.Count++
		direct[c] = entry
	}
	return BuildDistribution(m.dm, "has_a", root, direct), nil
}

func firstAtom(ts []term.Term) string {
	for _, t := range ts {
		if t.Kind() == term.KindAtom {
			return t.Name()
		}
	}
	return ""
}

func firstStr(ts []term.Term) string {
	for _, t := range ts {
		if t.Kind() == term.KindString {
			return t.Name()
		}
	}
	return ""
}

// FormatAnswer renders an answer as an aligned text table.
func FormatAnswer(a *Answer) string {
	var b strings.Builder
	widths := make([]int, len(a.Vars))
	for i, v := range a.Vars {
		widths[i] = len(v)
	}
	cells := make([][]string, len(a.Rows))
	for r, row := range a.Rows {
		cells[r] = make([]string, len(row))
		for i, t := range row {
			cells[r][i] = t.String()
			if len(cells[r][i]) > widths[i] {
				widths[i] = len(cells[r][i])
			}
		}
	}
	for i, v := range a.Vars {
		fmt.Fprintf(&b, "%-*s  ", widths[i], v)
	}
	b.WriteByte('\n')
	for i := range a.Vars {
		b.WriteString(strings.Repeat("-", widths[i]))
		b.WriteString("  ")
	}
	b.WriteByte('\n')
	for _, row := range cells {
		for i, c := range row {
			fmt.Fprintf(&b, "%-*s  ", widths[i], c)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
