package mediator

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"modelmed/internal/datalog"
	"modelmed/internal/domainmap"
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
	Pushed bool // true: the source's capabilities cover the selections; false: scan + local filter
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
	defer func() { m.mergeReports(g.Reports()) }()
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
		if selected(o, sels) {
			filtered = append(filtered, o)
		}
	}
	return &PushResult{Source: source, Pushed: false, Objs: filtered}, nil
}

// selected reports whether o has every selection's value.
func selected(o gcm.Object, sels []wrapper.Selection) bool {
	for _, sel := range sels {
		if !slices.ContainsFunc(o.Values[sel.Attr], sel.Value.Equal) {
			return false
		}
	}
	return true
}

var (
	srcObjKey = datalog.PredKey(PredSrcObj, 3)
	srcValKey = datalog.PredKey(PredSrcVal, 4)
	srcSubKey = datalog.PredKey(PredSrcSub, 3)
)

// heldSelect is PushSelect over the published value v: the objects of
// heldRows, with their values, in object order. No wrapper is called.
func (m *Mediator) heldSelect(v *published, source, class string, sels ...wrapper.Selection) (*PushResult, error) {
	rows, pushed, err := m.heldRows(v, source, class, sels)
	if err != nil {
		return nil, err
	}
	res := &PushResult{Source: source, Pushed: pushed}
	vals := v.State(source).Facts.Rel(srcValKey)
	for _, row := range rows {
		o := gcm.Object{ID: row[1], Class: row[2].Name(), Values: map[string][]term.Term{}}
		if vals != nil {
			for _, val := range vals.Select(1, o.ID) {
				o.Values[val[2].Name()] = append(o.Values[val[2].Name()], val[3])
			}
		}
		res.Objs = append(res.Objs, o)
	}
	sort.Slice(res.Objs, func(i, j int) bool { return res.Objs[i].ID.Compare(res.Objs[j].ID) < 0 })
	return res, nil
}

// heldRows returns the src_obj rows v holds of source for the objects
// of class, and of the classes declared its subclasses, that match
// sels. pushed explains the step: whether the source's capabilities
// cover the selections (wrapper.Covers) or would only let the source be
// scanned and filtered. A class they do not even let it scan is an
// error, as at the wrapper. A registered source that v holds no state
// of was dropped as down: the error is its last SourceDownError
// (downError).
func (m *Mediator) heldRows(v *published, source, class string, sels []wrapper.Selection) (rows [][]term.Term, pushed bool, err error) {
	s, ok := v.srcs[source]
	if !ok {
		return nil, false, fmt.Errorf("mediator: unknown source %s", source)
	}
	pushed = wrapper.Covers(s.Caps, wrapper.Query{Target: class, Selections: sels}, true)
	if !pushed && !wrapper.Covers(s.Caps, wrapper.Query{Target: class}, true) {
		return nil, false, fmt.Errorf("mediator: source %s: no capability covers query on %s with selections %v", source, class, sels)
	}
	st := v.State(source)
	if st == nil {
		return nil, false, m.downError(source)
	}
	classes := map[string]bool{class: true}
	if sub := st.Facts.Rel(srcSubKey); sub != nil {
		subs := sub.Rows()
		for grew := true; grew; {
			grew = false
			for _, r := range subs {
				if classes[r[2].Name()] && !classes[r[1].Name()] {
					classes[r[1].Name()] = true
					grew = true
				}
			}
		}
	}
	objs, vals := st.Facts.Rel(srcObjKey), st.Facts.Rel(srcValKey)
	if objs == nil || (vals == nil && len(sels) > 0) {
		return nil, pushed, nil
	}
	// The candidates are the objects holding the first selection (its
	// value's posting list), else every object.
	var cands [][]term.Term
	if len(sels) == 0 {
		cands = objs.Rows()
	} else {
		for _, val := range vals.Select(3, sels[0].Value) {
			if val[2].Name() == sels[0].Attr {
				cands = append(cands, objs.Select(1, val[1])...)
			}
		}
	}
	for _, row := range cands {
		if classes[row[2].Name()] && !slices.ContainsFunc(sels, func(sel wrapper.Selection) bool {
			return !vals.Contains([]term.Term{row[0], row[1], term.Atom(sel.Attr), sel.Value})
		}) {
			rows = append(rows, row)
		}
	}
	return rows, pushed, nil
}

// downError is the error of a read of a registered source the published
// value holds no state of: the SourceDownError its last report records.
func (m *Mediator) downError(source string) error {
	m.faultMu.Lock()
	defer m.faultMu.Unlock()
	if r := m.lastReports[source]; r.down != nil {
		return r.down
	}
	return &SourceDownError{Source: source, Cause: errors.New("no state held")}
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
	return slices.DeleteFunc(m.index.SelectSourcesAll(m.dm, []string{neuron, compartment}),
		func(s string) bool { return s == exclude })
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
//
// Every step reads one published value, the one a served query reads:
// the pushdowns of steps 1 and 3 are selections over the held states
// (heldSelect), and step 4 folds the distributions from its Result
// (distributionQuery). A step-3 source the value does not hold
// contributes nothing; a driver it does not hold fails the query with
// the driver's SourceDownError.
func (m *Mediator) CalciumBindingProteinQuery(driver, organism, transmittingCompartment, ion string) (*Section5Result, error) {
	sp := m.startSpan("mediator.section5")
	defer m.endTrace(sp)
	res := &Section5Result{Distributions: map[string]*Distribution{}, Span: sp}
	tracef := func(format string, args ...interface{}) {
		res.Trace = append(res.Trace, fmt.Sprintf(format, args...))
	}
	msp := sp.Child("materialize")
	v, err := m.materialize(context.Background(), msp)
	msp.End()
	if err != nil {
		return nil, err
	}

	// Step 1: push selections to the driver source.
	s1 := sp.Child("step1 pushdown")
	push, err := m.heldSelect(v, driver, "neurotransmission",
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
	var locs []string
	for _, p := range res.Pairs {
		locs = append(locs, p[0], p[1])
	}
	slices.Sort(locs)
	locs = slices.Compact(locs)
	protSet := map[string]bool{}
	for _, src := range res.SelectedSources {
		for _, loc := range locs {
			push, err := m.heldSelect(v, src, "protein_amount",
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
			push, err := m.heldSelect(v, src, "protein",
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
		body, vars := distributionQuery(p, organism)
		rows, _, err := queryResult(context.Background(), v.Result(), prepareParsed(body, nil, vars))
		if err == nil {
			res.Distributions[p], err = foldDistribution(m.dm, res.Root, rows)
		}
		if err != nil {
			s4.End()
			return nil, fmt.Errorf("mediator: section 5: %w", err)
		}
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
	sp := m.startSpan("mediator.query")
	defer m.endTrace(sp)
	body, vars := distributionQuery(protein, organism)
	ans, err := m.query(context.Background(), sp, prepareParsed(body, nil, vars))
	if err != nil {
		return nil, err
	}
	return foldDistribution(m.dm, root, ans.Rows)
}

// distributionQuery is the query of a protein's measurements for an
// organism, by anchor concept, object and amount.
func distributionQuery(protein, organism string) ([]datalog.BodyElem, []string) {
	src, o, c, a := term.Var("Src"), term.Var("O"), term.Var("C"), term.Var("A")
	return []datalog.BodyElem{
		datalog.Lit(PredAnchor, src, o, c),
		datalog.Lit(PredSrcVal, src, o, term.Atom("protein_name"), term.Str(protein)),
		datalog.Lit(PredSrcVal, src, o, term.Atom("organism"), term.Str(organism)),
		datalog.Lit(PredSrcVal, src, o, term.Atom("amount"), a),
	}, []string{"C", "O", "A"}
}

// foldDistribution folds distributionQuery's rows over dm under root.
func foldDistribution(dm *domainmap.DomainMap, root string, rows [][]datalog.Cell) (*Distribution, error) {
	direct := map[string]Contribution{}
	for _, row := range rows {
		c := row[0].Term().Name()
		amt, ok := row[2].Term().Numeric()
		if !ok {
			return nil, fmt.Errorf("mediator: non-numeric amount %s for %s", row[2], row[1])
		}
		entry := direct[c]
		entry.Sum += amt
		entry.Count++
		direct[c] = entry
	}
	return BuildDistribution(dm, "has_a", root, direct), nil
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
	cells := datalog.RenderRows(a.Rows)
	for _, row := range cells {
		for i, c := range row {
			widths[i] = max(widths[i], len(c))
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
