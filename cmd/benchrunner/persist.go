package main

import (
	"fmt"
	"os"
	"time"

	"modelmed/internal/datalog"
	"modelmed/internal/mediator"
	"modelmed/internal/persist"
	"modelmed/internal/sources"
	"modelmed/internal/term"
	"modelmed/internal/wrapper"
)

// persistReport is the JSON shape of BENCH_persist.json: cold boot
// (source fan-out + fixpoint materialization) vs warm boot (snapshot
// adoption, optionally + WAL replay) across fact-volume scales.
type persistReport struct {
	Entries []persistEntry
}

type persistEntry struct {
	// Scale names the multiple of the Section 5 seed volume
	// (60/160/40 records); Facts is the materialized store size.
	Scale string
	Facts int
	// SnapshotBytes is the on-disk image size; SaveNs the rotation cost.
	SnapshotBytes int64
	SaveNs        int64
	// ColdNs: fresh mediator, full Materialize. WarmNs: fresh mediator,
	// RestoreFromDB of the snapshot with an empty WAL. WarmReplayNs:
	// same but with Replayed WAL records on top.
	ColdNs       int64
	WarmNs       int64
	WarmReplayNs int64
	Replayed     int
	// Speedup is ColdNs / WarmNs — the warm-restart win.
	Speedup float64
}

// persistScale names one fact-volume point: mult is the multiple of
// the Section 5 seed volume (60/160/40 records).
type persistScale struct {
	name string
	mult int
}

// persistExp measures the durability layer: how much faster a warm
// start (snapshot + WAL tail) boots than a cold materialization as the
// fact volume scales from the Section 5 seed to 30x.
func persistExp() error {
	scales := []persistScale{{"1x", 1}, {"10x", 10}, {"30x", 30}}
	return runPersistExp(scales, "BENCH_persist.json")
}

func runPersistExp(scales []persistScale, outPath string) error {
	rep := persistReport{}
	const reps = 3

	build := func(mult int) (*mediator.Mediator, []*wrapper.InMemory, error) {
		m := mediator.New(sources.NeuroDM(), nil)
		ws, err := sources.Wrappers(2026, 60*mult, 160*mult, 40*mult)
		if err != nil {
			return nil, nil, err
		}
		for _, w := range ws {
			if err := m.Register(w); err != nil {
				return nil, nil, err
			}
		}
		if err := m.DefineStandardViews(); err != nil {
			return nil, nil, err
		}
		return m, ws, nil
	}

	for _, sc := range scales {
		dir, err := os.MkdirTemp("", "modelmed-persist-bench-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		db, err := persist.Open(dir, &persist.Options{NoSync: true})
		if err != nil {
			return err
		}
		defer db.Close()

		// Cold leg: best of reps fresh materializations.
		var cold time.Duration
		var live *mediator.Mediator
		var facts int
		for i := 0; i < reps; i++ {
			m, _, err := build(sc.mult)
			if err != nil {
				return err
			}
			start := time.Now()
			res, err := m.Materialize()
			if err != nil {
				return err
			}
			if d := time.Since(start); cold == 0 || d < cold {
				cold = d
			}
			live, facts = m, res.Store.Size()
		}

		saveStart := time.Now()
		if err := live.SaveSnapshotTo(db); err != nil {
			return err
		}
		save := time.Since(saveStart)

		// Warm leg: best of reps snapshot adoptions, empty WAL.
		var warm time.Duration
		for i := 0; i < reps; i++ {
			m, _, err := build(sc.mult)
			if err != nil {
				return err
			}
			start := time.Now()
			r := m.RestoreFromDB(db)
			if !r.Restored {
				return fmt.Errorf("scale %s: warm restore failed: %s", sc.name, r.Reason)
			}
			if d := time.Since(start); warm == 0 || d < warm {
				warm = d
			}
			if r.Facts != facts {
				return fmt.Errorf("scale %s: warm store has %d facts, cold had %d", sc.name, r.Facts, facts)
			}
		}

		// Replay leg: log a 10-record tail of pushed deltas, then boot
		// over snapshot + tail.
		live.SetDeltaLogger(func(r *persist.WALRecord) { _ = db.AppendWAL(r) })
		const tail = 10
		for i := 0; i < tail; i++ {
			obj := term.Atom(fmt.Sprintf("persist_bench_%d", i))
			adds := []datalog.Rule{
				datalog.Fact(mediator.PredSrcObj, term.Atom("SYNAPSE"), obj, term.Atom("spine_measurement")),
			}
			if _, err := live.ApplySourceDelta("SYNAPSE", adds, nil); err != nil {
				return err
			}
		}
		var warmReplay time.Duration
		var replayed int
		for i := 0; i < reps; i++ {
			m, _, err := build(sc.mult)
			if err != nil {
				return err
			}
			start := time.Now()
			r := m.RestoreFromDB(db)
			if !r.Restored {
				return fmt.Errorf("scale %s: replay restore failed: %s", sc.name, r.Reason)
			}
			if d := time.Since(start); warmReplay == 0 || d < warmReplay {
				warmReplay = d
			}
			replayed = r.Replayed
		}

		e := persistEntry{
			Scale:         sc.name,
			Facts:         facts,
			SnapshotBytes: db.SnapshotSize(),
			SaveNs:        save.Nanoseconds(),
			ColdNs:        cold.Nanoseconds(),
			WarmNs:        warm.Nanoseconds(),
			WarmReplayNs:  warmReplay.Nanoseconds(),
			Replayed:      replayed,
			Speedup:       float64(cold) / float64(warm),
		}
		rep.Entries = append(rep.Entries, e)
		fmt.Printf("  %-4s facts=%-7d snap=%-9d cold=%-12v warm=%-12v (+%d-rec replay %v) save=%-10v speedup=%.1fx\n",
			sc.name, facts, e.SnapshotBytes, cold.Round(time.Microsecond),
			warm.Round(time.Microsecond), replayed, warmReplay.Round(time.Microsecond),
			save.Round(time.Microsecond), e.Speedup)
	}
	return writeJSON(outPath, rep)
}
