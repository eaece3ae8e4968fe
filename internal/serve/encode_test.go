package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"modelmed/internal/datalog"
	"modelmed/internal/obs"
	"modelmed/internal/term"
)

// cellRows makes answer rows of terms.
func cellRows(rows [][]term.Term) [][]datalog.Cell {
	out := make([][]datalog.Cell, len(rows))
	for i, row := range rows {
		out[i] = make([]datalog.Cell, len(row))
		for j, t := range row {
			out[i][j] = datalog.CellOf(t)
		}
	}
	return out
}

// FuzzQueryResponse holds the one-pass /v1/query encoder to
// encoding/json: for drawn atom, string, variable and plan-trace texts,
// numbers and cache flags, its bytes must equal
// json.NewEncoder(...).Encode(&QueryResponse{...}) over the rendered
// rows, trailing newline included.
func FuzzQueryResponse(f *testing.F) {
	f.Add("purkinje_cell", "rat", "X", "step 1: anchor", int64(7), 2.5, false)
	f.Add("'Purkinje Cell'", `say "hi"\n`, "Y_1", "<script>&amp;</script>", int64(-3), 0.0, true)
	f.Add("a b c", "\x00\x1f\x7f\t\r\n\b\f", "", "", int64(math.MinInt64), math.Inf(-1), true)
	f.Add("\xff\xfe bad utf8 \xc3", "é ü 日本", "Ä", "\xed\xa0\x80", int64(0), math.NaN(), false)
	f.Add(`back\slash 'quote'`, "", "_", "x", int64(math.MaxInt64), -0.0, false)
	f.Fuzz(func(t *testing.T, atom, str, varName, planText string, i int64, fl float64, hit bool) {
		rows := [][]term.Term{
			{term.Atom(atom), term.Str(str), term.Var(varName)},
			{term.Int(i), term.Float(fl), term.Comp(atom, term.Atom(str), term.Int(i), term.Float(fl))},
		}
		if hit {
			rows = append(rows, []term.Term{term.Str(planText), term.Atom(planText), term.Atom(varName)})
		}
		resp := &QueryResponse{Count: len(rows), Cached: hit, Partial: i%2 == 0}
		if resp.Partial {
			resp.Missing = []string{atom, str}
		}
		if varName != "" {
			resp.Vars = []string{varName, atom, str}
		}
		if len(planText)%2 == 1 {
			resp.Trace = &obs.SpanExport{Name: planText, DurationNs: i, Strs: map[string]string{atom: str}}
		}
		enc := GetReplyEncoder()
		defer enc.Release()
		if err := enc.Encode(resp, cellRows(rows)); err != nil {
			t.Fatal(err)
		}
		want := *resp
		want.Rows = datalog.RenderRows(cellRows(rows))
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc.Buf, buf.Bytes()) {
			t.Fatalf("encoder bytes differ from encoding/json\n got: %q\nwant: %q", enc.Buf, buf.Bytes())
		}
	})
}

// TestQueryResponseEmpty pins the edge shapes: no vars (null), no rows
// ([]), an empty row, and no plan trace or span (omitted).
func TestQueryResponseEmpty(t *testing.T) {
	for _, rows := range [][][]term.Term{nil, {{}}} {
		resp := &QueryResponse{Count: len(rows)}
		enc := GetReplyEncoder()
		if err := enc.Encode(resp, cellRows(rows)); err != nil {
			t.Fatal(err)
		}
		want := *resp
		want.Rows = datalog.RenderRows(cellRows(rows))
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc.Buf, buf.Bytes()) {
			t.Errorf("got %q, want %q", enc.Buf, buf.Bytes())
		}
		enc.Release()
	}
}
