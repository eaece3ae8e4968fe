package cluster

// Answer rows cross the router as bytes. A shard writes every
// /v1/query reply with serve's one deterministic encoder
// (serve/encode.go), so a row's bytes are a function of its cells: the
// router reads a shard's reply without decoding its rows, relays them
// as they stand, and dedupes a scatter's rows by their bytes. Reading
// the rows validates them as arrays of JSON strings, as decoding them
// did, and leaves each string in that encoder's form: a string already
// in it is copied as it stands, and any other — in a shard's reply,
// only an invalid UTF-8 byte's \ufffd, which decoding turned into the
// rune itself — is unquoted and escaped again, so the router's reply
// is byte for byte the one decoding and re-encoding the rows wrote.

import (
	"bytes"
	"encoding/json"
	"errors"
	"hash/maphash"
	"io"
	"slices"
	"strings"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"modelmed/internal/obs"
	"modelmed/internal/serve"
)

// ShardAnswer is a shard's /v1/query reply with its vars, cached and
// partial flags decoded and its rows left encoded, in a pooled buffer.
// Release returns the buffer; an answer that is dropped unreleased is
// only a pool miss.
type ShardAnswer struct {
	Vars    []string
	Cached  bool
	Partial bool
	// Rows is the reply's rows in serve's encoding, an array of arrays
	// of strings, or nil when the reply's rows are null or absent. It
	// is valid until Release.
	Rows []byte

	ends []int  // where each row ends in Rows
	body []byte // the reply as read
	out  []byte // Rows' backing buffer
	str  []byte // one unquoted string
}

var shardAnswers = sync.Pool{New: func() any { return new(ShardAnswer) }}

// Len returns the number of rows.
func (a *ShardAnswer) Len() int { return len(a.ends) }

// Row returns row i's encoding, an array of strings.
func (a *ShardAnswer) Row(i int) []byte {
	start := 1 // after the rows' '['
	if i > 0 {
		start = a.ends[i-1] + 1 // after the ',' between rows
	}
	return a.Rows[start:a.ends[i]]
}

// Release returns the answer's buffers to the pool, under serve's
// MaxPooledReply rule. a must not be used after.
func (a *ShardAnswer) Release() {
	keep := func(b []byte) []byte {
		if cap(b) > serve.MaxPooledReply {
			return nil
		}
		return b[:0]
	}
	ends := a.ends[:0]
	if cap(ends)*8 > serve.MaxPooledReply {
		ends = nil
	}
	*a = ShardAnswer{ends: ends, body: keep(a.body), out: keep(a.out), str: keep(a.str)}
	shardAnswers.Put(a)
}

// readShardAnswer reads one reply body from r into a pooled answer.
func readShardAnswer(r io.Reader, size int64) (*ShardAnswer, error) {
	a := shardAnswers.Get().(*ShardAnswer)
	var err error
	if a.body, err = readAll(r, a.body[:0], size); err == nil {
		err = a.read(a.body)
	}
	if err != nil {
		a.Release()
		return nil, err
	}
	return a, nil
}

// readAll appends r's bytes to b, as io.ReadAll does, growing b at
// once to size when size (a Content-Length) is known.
func readAll(r io.Reader, b []byte, size int64) ([]byte, error) {
	if size > 0 && size < 1<<30 && int64(cap(b)-len(b)) <= size {
		b = slices.Grow(b, int(size)+1)
	}
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

var (
	errTruncated = errors.New("unexpected end of reply")
	errSyntax    = errors.New("malformed reply")
	errRows      = errors.New("rows are not arrays of strings")
)

// read parses in, a /v1/query reply object: rows into a.Rows, vars,
// cached and partial into their fields. The other fields the serving
// layer writes are checked for their type, as decoding them into
// serve.QueryResponse did, and unknown fields for being JSON; what
// follows the object is not read.
func (a *ShardAnswer) read(in []byte) error {
	i := skipSpace(in, 0)
	if at(in, i) != '{' {
		return errSyntax
	}
	i = skipSpace(in, i+1)
	if at(in, i) == '}' {
		return nil
	}
	for {
		if at(in, i) != '"' {
			return errSyntax
		}
		end, _, err := scanString(in, i)
		if err != nil {
			return err
		}
		key := in[i+1 : end-1]
		if i = skipSpace(in, end); at(in, i) != ':' {
			return errSyntax
		}
		i = skipSpace(in, i+1)
		switch string(key) {
		case "rows":
			i, err = a.readRows(in, i)
		case "vars":
			a.Vars, i, err = a.readStrings(in, i)
		case "missing":
			_, i, err = a.readStrings(in, i)
		case "partial":
			a.Partial, i, err = readBool(in, i)
		case "cached":
			a.Cached, i, err = readBool(in, i)
		default:
			if end, err = skipValue(in, i); err != nil {
				return err
			}
			i, err = end, checkField(string(key), in[i:end])
		}
		if err != nil {
			return err
		}
		i = skipSpace(in, i)
		switch at(in, i) {
		case ',':
			i = skipSpace(in, i+1)
		case '}':
			return nil
		default:
			return errSyntax
		}
	}
}

// checkField checks a field that read skips: count must be an integer,
// trace a span, anything else JSON.
func checkField(key string, v []byte) error {
	if !json.Valid(v) {
		return errSyntax
	}
	switch {
	case string(v) == "null":
	case key == "count":
		for j, c := range v {
			if (c < '0' || c > '9') && (j > 0 || c != '-') {
				return errSyntax
			}
		}
	case key == "trace":
		return json.Unmarshal(v, new(obs.SpanExport))
	}
	return nil
}

// readRows reads the rows value at in[i:] into a.Rows and returns the
// offset after it.
func (a *ShardAnswer) readRows(in []byte, i int) (int, error) {
	a.Rows, a.ends = nil, a.ends[:0]
	if hasLiteral(in, i, "null") {
		return i + 4, nil
	}
	if at(in, i) != '[' {
		return i, errRows
	}
	out := append(a.out[:0], '[')
	defer func() { a.out = out }()
	if i = skipSpace(in, i+1); at(in, i) == ']' {
		out = append(out, ']')
		a.Rows = out
		return i + 1, nil
	}
	for {
		if at(in, i) != '[' {
			return i, rowsErr(in, i)
		}
		out = append(out, '[')
		if i = skipSpace(in, i+1); at(in, i) != ']' {
			for {
				if at(in, i) != '"' {
					return i, rowsErr(in, i)
				}
				var err error
				if out, i, err = a.appendString(out, in, i); err != nil {
					return i, err
				}
				if i = skipSpace(in, i); at(in, i) != ',' {
					break
				}
				out = append(out, ',')
				i = skipSpace(in, i+1)
			}
			if at(in, i) != ']' {
				return i, rowsErr(in, i)
			}
		}
		out = append(out, ']')
		a.ends = append(a.ends, len(out))
		switch i = skipSpace(in, i+1); at(in, i) {
		case ',':
			out = append(out, ',')
			i = skipSpace(in, i+1)
		case ']':
			out = append(out, ']')
			a.Rows = out
			return i + 1, nil
		default:
			return i, rowsErr(in, i)
		}
	}
}

// rowsErr says why the rows stop at in[i:]: the reply ends, or they are
// not arrays of strings.
func rowsErr(in []byte, i int) error {
	if i >= len(in) {
		return errTruncated
	}
	return errRows
}

// readStrings reads the array of strings, or null, at in[i:].
func (a *ShardAnswer) readStrings(in []byte, i int) ([]string, int, error) {
	if hasLiteral(in, i, "null") {
		return nil, i + 4, nil
	}
	if at(in, i) != '[' {
		return nil, i, errSyntax
	}
	ss := []string{}
	if i = skipSpace(in, i+1); at(in, i) == ']' {
		return ss, i + 1, nil
	}
	for {
		if at(in, i) != '"' {
			return nil, i, errSyntax
		}
		end, _, err := scanString(in, i)
		if err != nil {
			return nil, i, err
		}
		a.str = unquote(a.str[:0], in[i+1:end-1])
		ss = append(ss, string(a.str))
		switch i = skipSpace(in, end); at(in, i) {
		case ',':
			i = skipSpace(in, i+1)
		case ']':
			return ss, i + 1, nil
		default:
			return nil, i, errSyntax
		}
	}
}

// readBool reads true, false or null (false) at in[i:].
func readBool(in []byte, i int) (bool, int, error) {
	switch {
	case hasLiteral(in, i, "true"):
		return true, i + 4, nil
	case hasLiteral(in, i, "false"):
		return false, i + 5, nil
	case hasLiteral(in, i, "null"):
		return false, i + 4, nil
	}
	return false, i, errSyntax
}

// appendString appends the JSON string at in[i:] to out in serve's
// encoding and returns the offset after it.
func (a *ShardAnswer) appendString(out, in []byte, i int) ([]byte, int, error) {
	end, canonical, err := scanString(in, i)
	if err != nil {
		return out, i, err
	}
	if canonical {
		return append(out, in[i:end]...), end, nil
	}
	a.str = unquote(a.str[:0], in[i+1:end-1])
	return serve.AppendJSONString(out, a.str), end, nil
}

// scanString finds the end of the JSON string at in[i:], just after
// its closing quote, and reports whether it is in serve's encoding:
// the escapes serve writes and no others, and no raw byte it escapes.
func scanString(in []byte, i int) (end int, canonical bool, err error) {
	canonical = true
	for j := i + 1; j < len(in); {
		c := in[j]
		switch {
		case c == '"':
			return j + 1, canonical, nil
		case c == '\\':
			switch at(in, j+1) {
			case '"', '\\', 'b', 'f', 'n', 'r', 't':
				j += 2
			case '/':
				canonical = false
				j += 2
			case 'u':
				r, ok := hex4(in, j+2)
				if !ok {
					return 0, false, errSyntax
				}
				canonical = canonical && escapedAs(r, in[j+2:j+6])
				j += 6
			case 0:
				return 0, false, errTruncated
			default:
				return 0, false, errSyntax
			}
		case c < 0x20:
			return 0, false, errSyntax
		case c < utf8.RuneSelf:
			canonical = canonical && c != '<' && c != '>' && c != '&'
			j++
		default:
			r, size := utf8.DecodeRune(in[j:])
			canonical = canonical && !(r == utf8.RuneError && size == 1) && r != '\u2028' && r != '\u2029'
			j += size
		}
	}
	return 0, false, errTruncated
}

// escapedAs reports whether serve writes r as the \u escape with hex
// digits h: a control character with no short escape, <, >, &, U+2028
// or U+2029, in lower-case hex.
func escapedAs(r rune, h []byte) bool {
	if bytes.ContainsAny(h, "ABCDEF") {
		return false
	}
	switch r {
	case '\b', '\f', '\n', '\r', '\t':
		return false
	case '<', '>', '&', '\u2028', '\u2029':
		return true
	}
	return r < 0x20
}

// hex4 decodes the four hex digits at in[i:].
func hex4(in []byte, i int) (rune, bool) {
	if i+4 > len(in) {
		return 0, false
	}
	var r rune
	for _, c := range in[i : i+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

// unquote appends the value of s, the inside of a JSON string that
// scanString accepted, as encoding/json decodes it: an invalid UTF-8
// byte or an unpaired surrogate becomes U+FFFD.
func unquote(dst, s []byte) []byte {
	for i := 0; i < len(s); {
		c := s[i]
		switch {
		case c == '\\' && s[i+1] == 'u':
			r, _ := hex4(s, i+2)
			i += 6
			if utf16.IsSurrogate(r) {
				r1, ok := rune(0), false
				if at(s, i) == '\\' && at(s, i+1) == 'u' {
					r1, ok = hex4(s, i+2)
				}
				if d := utf16.DecodeRune(r, r1); ok && d != unicode.ReplacementChar {
					r = d
					i += 6
				} else {
					r = unicode.ReplacementChar
				}
			}
			dst = utf8.AppendRune(dst, r)
		case c == '\\':
			switch s[i+1] {
			case 'b':
				c = '\b'
			case 'f':
				c = '\f'
			case 'n':
				c = '\n'
			case 'r':
				c = '\r'
			case 't':
				c = '\t'
			default: // '"', '\\', '/'
				c = s[i+1]
			}
			dst = append(dst, c)
			i += 2
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			i++
		default:
			r, size := utf8.DecodeRune(s[i:])
			dst = utf8.AppendRune(dst, r)
			i += size
		}
	}
	return dst
}

// skipValue returns the end of the JSON value at in[i:], found by its
// brackets and strings; checkField validates it.
func skipValue(in []byte, i int) (int, error) {
	switch at(in, i) {
	case '"':
		end, _, err := scanString(in, i)
		return end, err
	case '{', '[':
		depth := 0
		for j := i; j < len(in); j++ {
			switch in[j] {
			case '"':
				end, _, err := scanString(in, j)
				if err != nil {
					return 0, err
				}
				j = end - 1
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					return j + 1, nil
				}
			}
		}
		return 0, errTruncated
	}
	j := i // a number or a literal
	for j < len(in) && strings.IndexByte(",}] \t\r\n", in[j]) < 0 {
		j++
	}
	return j, nil
}

func at(in []byte, i int) byte {
	if i < len(in) {
		return in[i]
	}
	return 0
}

func hasLiteral(in []byte, i int, lit string) bool {
	return len(in)-i >= len(lit) && string(in[i:i+len(lit)]) == lit
}

func skipSpace(in []byte, i int) int {
	for i < len(in) && (in[i] == ' ' || in[i] == '\t' || in[i] == '\r' || in[i] == '\n') {
		i++
	}
	return i
}

// relay writes a proxy reply: a's vars and rows, as the shard encoded
// them, its cached and partial flags, and rep as its one shard report.
func relay(e *serve.ReplyEncoder, a *ShardAnswer, rep ShardReport) *reply {
	e.Head(a.Vars)
	if a.Rows == nil {
		e.Buf = append(e.Buf, "null"...)
	} else {
		e.Buf = append(e.Buf, a.Rows...)
	}
	rep.Rows = a.Len()
	return &reply{count: a.Len(), cached: a.Cached, partial: a.Partial, mode: "proxy", shards: []ShardReport{rep}}
}

// mergeRows writes the first answer's vars that are not null and the
// union of the answers' rows, each row once, in the order first seen
// (null when there is none), and returns the number of rows written.
// A nil answer, a shard's that failed, is skipped. Rows are compared by
// their bytes, which read leaves in serve's encoding, so equal rows have
// equal bytes.
func mergeRows(e *serve.ReplyEncoder, answers []*ShardAnswer) int {
	var vars []string
	total := 0
	for _, a := range answers {
		if a == nil {
			continue
		}
		if vars == nil {
			vars = a.Vars
		}
		total += a.Len()
	}
	e.Head(vars)
	set := rowTables.Get().(*rowTable)
	defer set.release()
	set.reset(total)
	n := 0
	for _, a := range answers {
		if a == nil {
			continue
		}
		for i := range a.ends {
			row := a.Row(i)
			// The row would go after a '[' or a ','.
			if !set.insert(e.Buf, row, len(e.Buf)+1) {
				continue
			}
			if n == 0 {
				e.Buf = append(e.Buf, '[')
			} else {
				e.Buf = append(e.Buf, ',')
			}
			e.Buf = append(e.Buf, row...)
			n++
		}
	}
	if n == 0 {
		e.Buf = append(e.Buf, "null"...)
	} else {
		e.Buf = append(e.Buf, ']')
	}
	return n
}

// rowTable is an open-addressed set of the encoded rows in a reply
// buffer, each held by its hash and its place in the buffer.
type rowTable struct {
	slots []rowSlot // len is a power of two, at least twice the rows
}

type rowSlot struct {
	hash     uint64
	off, end int // the row in the buffer; end 0 marks an empty slot
}

var (
	rowTables = sync.Pool{New: func() any { return new(rowTable) }}
	rowsSeed  = maphash.MakeSeed()
)

// reset empties s for up to n rows.
func (s *rowTable) reset(n int) {
	size := 8
	for size < 2*n {
		size *= 2
	}
	if cap(s.slots) < size {
		s.slots = make([]rowSlot, size)
		return
	}
	s.slots = s.slots[:size]
	clear(s.slots)
}

func (s *rowTable) release() {
	if cap(s.slots)*24 > serve.MaxPooledReply {
		s.slots = nil
	}
	rowTables.Put(s)
}

// insert reports whether row is new to the rows buf holds at the
// offsets in s, and if so records it as the row at off.
func (s *rowTable) insert(buf, row []byte, off int) bool {
	h := maphash.Bytes(rowsSeed, row)
	mask := len(s.slots) - 1
	for i := int(h & uint64(mask)); ; i = (i + 1) & mask {
		sl := &s.slots[i]
		if sl.end == 0 {
			*sl = rowSlot{hash: h, off: off, end: off + len(row)}
			return true
		}
		if sl.hash == h && bytes.Equal(buf[sl.off:sl.end], row) {
			return false
		}
	}
}
