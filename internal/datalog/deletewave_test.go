package datalog

// Delete-wave coverage: large DRed deletion waves used to go through
// removeIdxValue/replaceIdxValue one row at a time, scanning each
// posting list per deleted row — quadratic when a wave removes a large
// fraction of a big relation. DeleteIDsBatch now compacts instead.
// These tests pin correctness for the batch path and the benchmark
// documents the cost of a 10k-row wave.

import (
	"fmt"
	"testing"

	"modelmed/internal/term"
)

// TestDeleteWaveRelation deletes a large wave from a relation through
// the batch path and checks contents and indexes stay consistent.
func TestDeleteWaveRelation(t *testing.T) {
	const n = 10000
	rel := NewRelation(2)
	rows := make([][]uint32, 0, n)
	for i := 0; i < n; i++ {
		row := internRow([]term.Term{term.Int(int64(i)), term.Atom(fmt.Sprintf("g%d", i%7))}, nil)
		rel.InsertIDs(row)
		rows = append(rows, row)
	}
	// Delete 80% of the rows in one wave, plus some misses.
	wave := make([][]uint32, 0, n)
	for i := 0; i < n; i++ {
		if i%5 != 0 {
			wave = append(wave, rows[i])
		}
	}
	wave = append(wave, internRow([]term.Term{term.Int(-1), term.Atom("absent")}, nil))
	deleted := rel.DeleteIDsBatch(wave)
	if want := n - n/5; deleted != want {
		t.Fatalf("deleted %d rows, want %d", deleted, want)
	}
	if rel.Len() != n/5 {
		t.Fatalf("len %d, want %d", rel.Len(), n/5)
	}
	for i := 0; i < n; i++ {
		has := rel.ContainsIDs(rows[i])
		if (i%5 == 0) != has {
			t.Fatalf("row %d: contains=%v", i, has)
		}
	}
	// Index consistency: every surviving row is reachable via Select on
	// both columns, and Select returns nothing stale.
	for i := 0; i < n; i += 5 {
		ts := termsOfIDs(rows[i])
		for pos := 0; pos < 2; pos++ {
			found := false
			for _, sel := range rel.Select(pos, ts[pos]) {
				got := internRow(sel, nil)
				if got[0] == rows[i][0] && got[1] == rows[i][1] {
					found = true
				}
				if !rel.ContainsIDs(got) {
					t.Fatalf("Select(%d) returned dead row %v", pos, sel)
				}
			}
			if !found {
				t.Fatalf("row %d unreachable via Select on pos %d", i, pos)
			}
		}
	}
}

// TestDeleteWaveDRed pushes a 10k-fact deletion wave through the
// incremental engine and checks against a from-scratch run.
func TestDeleteWaveDRed(t *testing.T) {
	if testing.Short() {
		t.Skip("large delete wave")
	}
	const n = 10000
	rules := []Rule{
		NewRule(Lit("alive", v("X")), Lit("item", v("X"), v("G")), Not("dead", v("X"))),
		NewRule(Lit("grp", v("G")), Lit("item", v("X"), v("G"))),
	}
	eng := NewEngine(nil)
	if err := eng.AddRules(rules...); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := eng.AddFact("item", term.Int(int64(i)), term.Atom(fmt.Sprintf("g%d", i%11))); err != nil {
			t.Fatal(err)
		}
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Store.Count(PredKey("alive", 1)); got != n {
		t.Fatalf("alive count %d, want %d", got, n)
	}
	d := NewDelta()
	for i := 0; i < n; i++ {
		if i%4 != 0 {
			if err := d.Del("item", term.Int(int64(i)), term.Atom(fmt.Sprintf("g%d", i%11))); err != nil {
				t.Fatal(err)
			}
		}
	}
	next, err := eng.ApplyDelta(res, d)
	if err != nil {
		t.Fatal(err)
	}
	ref := NewEngine(nil)
	if err := ref.AddRules(rules...); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 4 {
		if err := ref.AddFact("item", term.Int(int64(i)), term.Atom(fmt.Sprintf("g%d", i%11))); err != nil {
			t.Fatal(err)
		}
	}
	want, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}
	storesEqual(t, "deletewave", next.Store, want.Store)
}

// BenchmarkDeleteWave10k measures a 10k-row delete wave against a 12.5k
// row relation (80% removed), the shape the DRed overdeletion phase
// produces. Before batching this was quadratic in the posting lists.
func BenchmarkDeleteWave10k(b *testing.B) {
	const total, waveN = 12500, 10000
	rows := make([][]uint32, total)
	for i := range rows {
		rows[i] = internRow([]term.Term{term.Int(int64(i)), term.Atom(fmt.Sprintf("g%d", i%7))}, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		b.StopTimer()
		rel := NewRelation(2)
		for _, row := range rows {
			rel.InsertIDs(row)
		}
		b.StartTimer()
		if got := rel.DeleteIDsBatch(rows[:waveN]); got != waveN {
			b.Fatalf("deleted %d, want %d", got, waveN)
		}
	}
}

// BenchmarkDeleteWave10kPerRow is the per-row baseline for the same
// wave, for comparison in bench output.
func BenchmarkDeleteWave10kPerRow(b *testing.B) {
	const total, waveN = 12500, 10000
	rows := make([][]uint32, total)
	for i := range rows {
		rows[i] = internRow([]term.Term{term.Int(int64(i)), term.Atom(fmt.Sprintf("g%d", i%7))}, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		b.StopTimer()
		rel := NewRelation(2)
		for _, row := range rows {
			rel.InsertIDs(row)
		}
		b.StartTimer()
		for _, row := range rows[:waveN] {
			rel.DeleteIDs(row)
		}
	}
}
