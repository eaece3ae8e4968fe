package serve

// The /v1/query reply is written in one pass from the answer's rows of
// cells, which point at the interned terms: every cell is rendered with
// datalog.Cell.Append and escaped straight into a pooled buffer, with
// no copy of the answer's terms, no [][]string and no reflection. The
// bytes are exactly what json.NewEncoder(w).Encode(&QueryResponse{...})
// writes, trailing newline included; FuzzQueryResponse holds the two
// to that. The cluster router writes its replies with the same
// encoder: the same prefix, then its own fields, so a shard's encoded
// rows are already in the router's wire form.

import (
	"encoding/json"
	"strconv"
	"sync"
	"unicode/utf8"

	"modelmed/internal/datalog"
)

// ReplyEncoder writes one /v1/query reply into a pooled buffer. A
// serving layer reply is Encode; the cluster router writes the same
// prefix — Head, the rows, Tail — and appends its own fields after it.
type ReplyEncoder struct {
	Buf  []byte // the reply body
	cell []byte // one rendered cell, before escaping
}

var replyEncoders = sync.Pool{New: func() any { return new(ReplyEncoder) }}

// MaxPooledReply bounds the buffer a pooled reply buffer keeps, so one
// huge answer does not pin its memory for the life of the process.
const MaxPooledReply = 1 << 20

// GetReplyEncoder takes an encoder from the pool; Release returns it.
func GetReplyEncoder() *ReplyEncoder { return replyEncoders.Get().(*ReplyEncoder) }

// Release returns e to the pool. e.Buf must not be read after.
func (e *ReplyEncoder) Release() {
	if cap(e.Buf) > MaxPooledReply {
		e.Buf = nil
	}
	replyEncoders.Put(e)
}

// Encode sets e.Buf to the JSON encoding of resp, with rows rendered
// in place of resp.Rows, which it ignores.
func (e *ReplyEncoder) Encode(resp *QueryResponse, rows [][]datalog.Cell) error {
	e.Head(resp.Vars)
	e.CellRows(rows)
	e.Tail(resp.Count, resp.Cached, resp.Partial)
	b := e.Buf
	if len(resp.Missing) > 0 {
		b = AppendJSONStrings(append(b, `,"missing":`...), resp.Missing)
	}
	if resp.Trace != nil {
		tr, err := json.Marshal(resp.Trace)
		if err != nil {
			return err
		}
		b = append(b, `,"trace":`...)
		b = append(b, tr...)
	}
	e.Buf = append(b, "}\n"...)
	return nil
}

// Head starts a reply in e.Buf: its vars, and the key of its rows.
func (e *ReplyEncoder) Head(vars []string) {
	b := append(e.Buf[:0], `{"vars":`...)
	b = AppendJSONStrings(b, vars)
	e.Buf = append(b, `,"rows":`...)
}

// CellRows appends rows, each cell rendered by datalog.Cell.Append and
// escaped straight into the buffer.
func (e *ReplyEncoder) CellRows(rows [][]datalog.Cell) {
	b := append(e.Buf, '[')
	for i, row := range rows {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j, c := range row {
			if j > 0 {
				b = append(b, ',')
			}
			e.cell = c.Append(e.cell[:0])
			b = AppendJSONString(b, e.cell)
		}
		b = append(b, ']')
	}
	e.Buf = append(b, ']')
}

// Tail appends the fields every reply carries after its rows.
func (e *ReplyEncoder) Tail(count int, cached, partial bool) {
	b := append(e.Buf, `,"count":`...)
	b = strconv.AppendInt(b, int64(count), 10)
	b = append(b, `,"cached":`...)
	b = strconv.AppendBool(b, cached)
	if partial {
		b = append(b, `,"partial":true`...)
	}
	e.Buf = b
}

// AppendJSONStrings appends ss as encoding/json encodes a []string:
// null when nil.
func AppendJSONStrings(b []byte, ss []string) []byte {
	if ss == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = AppendJSONString(b, s)
	}
	return append(b, ']')
}

// AppendJSONString appends s as a JSON string, escaped as encoding/json
// escapes it with HTML escaping on (its default): quote, backslash and
// the control characters, <, > and &, U+2028 and U+2029, and every
// invalid UTF-8 byte as \ufffd.
func AppendJSONString[S []byte | string](b []byte, s S) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
