package mediator

import (
	"strings"
	"testing"

	"modelmed/internal/datalog"
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
	for _, bad := range []string{"src_obj('S',X,c).", "p(a) :- q(a).", "p(a). q(b)."} {
		if _, err := ParseDump(SourceDump{Source: "S", Facts: []string{bad}}, nil); err == nil {
			t.Errorf("fact line %q accepted", bad)
		}
	}
}
