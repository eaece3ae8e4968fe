package mediator

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"modelmed/internal/datalog"
	"modelmed/internal/term"
	"modelmed/internal/wrapper"
)

// TestParseDumpReusesUnchangedLines: a re-shipped dump reuses the parse
// of every line the previous dump held, accepts unsorted lines, and
// refuses a fact line that is not one ground fact.
func TestParseDumpReusesUnchangedLines(t *testing.T) {
	first, err := ParseDump(SourceDump{Source: "S",
		Facts:   []string{"src_obj('S',b,c).", "src_obj('S',a,c)."},
		Anchors: []string{"anchor('S',a,c)."},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(first.facts.lines, " "); got != "src_obj('S',a,c). src_obj('S',b,c)." {
		t.Fatalf("lines not sorted: %s", got)
	}
	next, err := ParseDump(SourceDump{Source: "S",
		Facts:   []string{"src_obj('S',a,c).", "src_obj('S',d,c)."},
		Anchors: []string{"anchor('S',a,c)."},
	}, first)
	if err != nil {
		t.Fatal(err)
	}
	// The kept line's head is the first parse's, argument slice and all.
	if &next.facts.heads[0].Args[0] != &first.facts.heads[0].Args[0] {
		t.Error("unchanged fact line parsed again")
	}
	if &next.anchors.heads[0].Args[0] != &first.anchors.heads[0].Args[0] {
		t.Error("unchanged anchor line parsed again")
	}
	if got := next.facts.heads[1].Args[1].String(); got != "d" {
		t.Errorf("new line parsed to %s", got)
	}
	var added, removed []string
	diffSection(first.facts, next.facts, func(h datalog.Literal, add bool) {
		if add {
			added = append(added, h.Args[1].String())
		} else {
			removed = append(removed, h.Args[1].String())
		}
	})
	if strings.Join(added, ",") != "d" || strings.Join(removed, ",") != "b" {
		t.Errorf("diff: added %v removed %v", added, removed)
	}
	for _, bad := range []string{"src_obj('S',X,c).", "p(a) :- q(a).", "p(a). q(b).", "src_obj('T',a,c)."} {
		if _, err := ParseDump(SourceDump{Source: "S", Facts: []string{bad}}, nil); err == nil {
			t.Errorf("fact line %q accepted", bad)
		}
	}
}

// TestPatchDump: a patch removes and adds lines, keeps them sorted,
// parses only the added ones, and refuses a change that was not taken
// from the patched dump's state.
func TestPatchDump(t *testing.T) {
	d, err := ParseDump(SourceDump{Source: "S", Stamp: 3,
		Facts:   []string{"src_obj('S',a,c).", "src_obj('S',b,c)."},
		Anchors: []string{"anchor('S',a,c)."},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	next, err := d.Patch(DumpChange{Adds: []string{"src_obj('S',d,c).", "src_obj('S',0,c)."},
		Dels: []string{"src_obj('S',a,c)."}, AnchorDels: []string{"anchor('S',a,c)."}}, 5)
	if err != nil {
		t.Fatal(err)
	}
	got := next.Dump()
	if got.Stamp != 5 || strings.Join(got.Facts, " ") != "src_obj('S',0,c). src_obj('S',b,c). src_obj('S',d,c)." || len(got.Anchors) != 0 {
		t.Errorf("patched dump: %+v", got)
	}
	if &next.facts.heads[1].Args[0] != &d.facts.heads[1].Args[0] {
		t.Error("kept line parsed again")
	}
	for _, bad := range []DumpChange{
		{Dels: []string{"src_obj('S',z,c)."}},
		{Adds: []string{"src_obj('S',a,c)."}},
		{Adds: []string{"src_obj('S',z,c).", "src_obj('S',z,c)."}},
		{AnchorAdds: []string{"anchor('T',a,c)."}},
	} {
		if _, err := d.Patch(bad, 4); err == nil {
			t.Errorf("patch %+v accepted", bad)
		}
	}
}

// TestDumpRouteAgreesWithMove: a FactBase is the mediator's source
// states fed by dumps, so a replica moved by the dumps of a moved
// mediator is patched, never rebuilt, and holds the mediator's store
// after every push, pull and stream step — a withdrawn schema fact two
// sources share included. The change each step reports, applied to
// the previous dump of its source, renders that source's next dump.
func TestDumpRouteAgreesWithMove(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		runDumpRoute(t, seed)
	}
}

func runDumpRoute(t *testing.T, seed int64) {
	ctx := context.Background()
	ws := newDiffWrappers(t, seed)
	m := newDiffMediator(t, ws)
	replica := newDiffMediator(t, nil)
	prev := map[string]*ParsedDump{}
	var fb *FactBase
	ship := func(label string, wantRebuilt bool, rep *DeltaReport) {
		t.Helper()
		dumps, err := m.FactsDump(ctx)
		if err != nil {
			t.Fatalf("%s: dump: %v", label, err)
		}
		if rep != nil {
			checkPatch(t, label, prev[rep.Source], rep, dumps)
		}
		parsed := make([]*ParsedDump, len(dumps))
		for i, d := range dumps {
			if parsed[i], err = ParseDump(d, prev[d.Source]); err != nil {
				t.Fatalf("%s: parse: %v", label, err)
			}
			prev[d.Source] = parsed[i]
		}
		var rebuilt bool
		if fb, rebuilt, err = replica.MoveFactBase(ctx, fb, parsed); err != nil {
			t.Fatalf("%s: move fact base: %v", label, err)
		}
		if rebuilt != wantRebuilt {
			t.Fatalf("%s: rebuilt %v, want %v", label, rebuilt, wantRebuilt)
		}
		if got, want := fb.Result().Store, storeOf(t, m); !got.Equal(want) {
			adds, dels := want.Diff(got)
			t.Fatalf("%s: fact base differs from the mediator: missing %v, extra %v", label, dels, adds)
		}
	}
	ship(fmt.Sprintf("seed=%d/build", seed), true, nil)

	chans := make([]<-chan wrapper.DeltaBatch, len(ws))
	for i, w := range ws {
		ch, cancel, err := w.SubscribeDeltas(4)
		if err != nil {
			t.Fatal(err)
		}
		defer cancel()
		chans[i] = ch
	}
	r := newScriptRand(seed, 0xd0e)
	for step := 0; step < 9; step++ {
		wIdx, sub := r.Intn(len(ws)), r.Int63()
		ws[wIdx].Mutate(mutateModel(newScriptRand(sub, step), ws[wIdx].Name(), step))
		b := <-chans[wIdx]
		route := []string{"stream", "push", "pull"}[step%3]
		var rep *DeltaReport
		var err error
		switch route {
		case "stream":
			rep, _, err = m.ApplyStreamBatch(b)
		case "push":
			rep, err = m.ApplySourceDelta(b.Source, slices.Concat(b.Adds, b.AnchorAdds), slices.Concat(b.Dels, b.AnchorDels))
		default:
			rep, err = m.RefreshSource(b.Source)
		}
		label := fmt.Sprintf("seed=%d/step=%d/%s", seed, step, route)
		if err != nil || rep.Full {
			t.Fatalf("%s: %v, report %v", label, err, rep)
		}
		ship(label, false, rep)
	}

	// Both synthetic sources declare the "record" class, so they share
	// its schema facts. Withdraw one from each in turn.
	var shared datalog.Rule
	held := m.base.Load()
	held.State("alpha").Facts.Each(func(key string, _ int, row []term.Term) {
		if shared.Head.Pred == "" && held.State("beta").Facts.ContainsKey(key, row) {
			shared = datalog.Fact(datalog.PredName(key), row...)
		}
	})
	if shared.Head.Pred == "" {
		t.Fatal("no schema fact shared between alpha and beta")
	}
	for i, src := range []string{"alpha", "beta"} {
		rep, err := m.ApplySourceDelta(src, nil, []datalog.Rule{shared})
		if err != nil {
			t.Fatal(err)
		}
		ship(fmt.Sprintf("seed=%d/withdraw from %s", seed, src), false, rep)
		if got, want := fb.Result().Holds(shared.Head.Pred, shared.Head.Args...), i == 0; got != want {
			t.Errorf("seed=%d: after %s withdrew %s, the fact base holds it: %v", seed, src, shared, got)
		}
	}
}

// checkPatch asserts that base, the dump of rep's source before the
// move rep reports, patched by rep's change, is that source's dump in
// dumps, line for line and numbered alike.
func checkPatch(t *testing.T, label string, base *ParsedDump, rep *DeltaReport, dumps []SourceDump) {
	t.Helper()
	if base == nil || base.Stamp != rep.From || rep.To <= rep.From {
		t.Fatalf("%s: report numbered %d -> %d, the previous dump of %s is %v", label, rep.From, rep.To, rep.Source, base)
	}
	next, err := base.Patch(rep.DumpChange(), rep.To)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	got := next.Dump()
	for _, want := range dumps {
		if want.Source != rep.Source {
			continue
		}
		if got.Stamp != want.Stamp || !slices.Equal(got.Facts, want.Facts) || !slices.Equal(got.Anchors, want.Anchors) {
			t.Fatalf("%s: patched dump of %s (stamp %d, %d facts, %d anchors) is not its dump (stamp %d, %d facts, %d anchors)",
				label, rep.Source, got.Stamp, len(got.Facts), len(got.Anchors), want.Stamp, len(want.Facts), len(want.Anchors))
		}
		return
	}
	t.Fatalf("%s: no dump of %s", label, rep.Source)
}
