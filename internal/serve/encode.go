package serve

// The /v1/query reply is written in one pass from the answer's rows of
// cells, which point at the interned terms: every cell is rendered with
// datalog.Cell.Append and escaped straight into a pooled buffer, with
// no copy of the answer's terms, no [][]string and no reflection. The bytes are exactly what
// json.NewEncoder(w).Encode(&QueryResponse{...}) writes, trailing
// newline included; FuzzQueryResponse holds the two to that.

import (
	"encoding/json"
	"strconv"
	"sync"
	"unicode/utf8"

	"modelmed/internal/datalog"
)

// queryEncoder holds the buffers one reply is encoded in.
type queryEncoder struct {
	buf  []byte // the reply body
	cell []byte // one rendered cell, before escaping
}

var queryEncoders = sync.Pool{New: func() any { return new(queryEncoder) }}

// maxPooledReply bounds the buffer a pooled encoder keeps, so one huge
// answer does not pin its memory for the life of the process.
const maxPooledReply = 1 << 20

func getQueryEncoder() *queryEncoder { return queryEncoders.Get().(*queryEncoder) }

func (e *queryEncoder) release() {
	if cap(e.buf) > maxPooledReply {
		e.buf = nil
	}
	queryEncoders.Put(e)
}

// encode sets e.buf to the JSON encoding of resp, with rows rendered
// in place of resp.Rows, which it ignores.
func (e *queryEncoder) encode(resp *QueryResponse, rows [][]datalog.Cell) error {
	b := append(e.buf[:0], `{"vars":`...)
	b = appendJSONStrings(b, resp.Vars)
	b = append(b, `,"rows":[`...)
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
			b = appendJSONString(b, e.cell)
		}
		b = append(b, ']')
	}
	b = append(b, `],"count":`...)
	b = strconv.AppendInt(b, int64(resp.Count), 10)
	b = append(b, `,"cached":`...)
	b = strconv.AppendBool(b, resp.Cached)
	if resp.Partial {
		b = append(b, `,"partial":true`...)
	}
	if len(resp.Missing) > 0 {
		b = appendJSONStrings(append(b, `,"missing":`...), resp.Missing)
	}
	if resp.Trace != nil {
		tr, err := json.Marshal(resp.Trace)
		if err != nil {
			return err
		}
		b = append(b, `,"trace":`...)
		b = append(b, tr...)
	}
	e.buf = append(b, "}\n"...)
	return nil
}

// appendJSONStrings appends ss as encoding/json encodes a []string:
// null when nil.
func appendJSONStrings(b []byte, ss []string) []byte {
	if ss == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, s)
	}
	return append(b, ']')
}

// appendJSONString appends s as a JSON string, escaped as encoding/json
// escapes it with HTML escaping on (its default): quote, backslash and
// the control characters, <, > and &, U+2028 and U+2029, and every
// invalid UTF-8 byte as \ufffd.
func appendJSONString[S []byte | string](b []byte, s S) []byte {
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
