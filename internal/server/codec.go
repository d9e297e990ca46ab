// The POST /v1/sort JSON codec, without reflection. One pooled codec
// serves a request from body to response: decodeSortRequest
// stream-decodes the body through a fixed-size chunk, scanning the keys
// and vals arrays straight into the codec's columns, which the request
// then sorts in place; writeSortResponse writes the success body from
// them in chunk-sized writes with strconv. A request thus costs no
// column allocation once the pool is warm. Both halves follow
// encoding/json exactly, because clients were written against it:
//
//   - the decoder accepts and rejects what json.Decoder with
//     DisallowUnknownFields does for SortRequestJSON and yields the same
//     struct — field names match case-insensitively, a repeated field
//     keeps its last value, null leaves a string or integer unchanged
//     and clears an array, and numbers must be integers in range. The
//     one difference: anything but whitespace after the object is an
//     error (json.Decoder stops reading after one value).
//   - the encoder's bytes equal json.NewEncoder(w).Encode of the
//     equivalent SortResponseJSON: compact, in field order, omitempty
//     fields dropped, one trailing newline.
//
// FuzzSortRequestJSON and TestSortResponseMatchesEncodingJSON hold both
// to encoding/json.

package server

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	partsort "repro"
)

// codecChunk is the read and write granularity of one request body.
const codecChunk = 16 << 10

// maxPooledScratch bounds the array scratch a pooled codec keeps, in
// elements: a larger column (one huge request) is dropped, not pinned.
const maxPooledScratch = 1 << 16

// codec is the pooled state of one request's codec: the I/O chunk, the
// decoder's read position and string scratch, and the decoded columns.
type codec struct {
	chunk    [codecChunk]byte
	r        io.Reader
	pos, end int
	off      int64 // body offset of chunk[0]
	err      error // sticky read error; io.EOF once the body is consumed
	raw, str []byte
	cols     [2]column // keys, vals
}

// column is one array field's decode state. buf[:ext] mirrors what the
// backing array of encoding/json's reflected slice would hold after the
// field's occurrences so far: a repeated field overwrites it from index
// 0, and a null element keeps the value already there. n is the field's
// current length (-1: nil, as when absent or null).
type column struct {
	buf []uint64
	ext int
	n   int
}

// value returns the field's value, backed by the scratch.
func (c *column) value() []uint64 {
	switch {
	case c.n < 0:
		return nil
	case c.n == 0:
		return []uint64{}
	}
	return c.buf[:c.n]
}

var codecs = sync.Pool{New: func() any { return new(codec) }}

// getCodec returns a pooled codec.
func getCodec() *codec { return codecs.Get().(*codec) }

// putCodec pools c, dropping its reader and any outsized scratch. The
// columns it decoded must be out of use.
func putCodec(c *codec) {
	c.r = nil
	for i := range c.cols {
		if cap(c.cols[i].buf) > maxPooledScratch {
			c.cols[i].buf = nil
		}
	}
	if cap(c.raw) > maxPooledScratch || cap(c.str) > maxPooledScratch {
		c.raw, c.str = nil, nil
	}
	codecs.Put(c)
}

// decodeSortRequest decodes one /v1/sort body from r into *b, which
// must be zero. b's Keys and Vals are d's scratch: they stay valid until
// d goes back to the pool.
func (d *codec) decodeSortRequest(r io.Reader, b *SortRequestJSON) error {
	d.r, d.pos, d.end, d.off, d.err = r, 0, 0, 0, nil
	for i := range d.cols {
		d.cols[i].ext, d.cols[i].n = 0, -1
	}
	c, ok := d.skipSpace()
	switch {
	case !ok:
		return d.fail("empty body")
	case c == '{':
		if err := d.object(b); err != nil {
			return err
		}
	case c == 'n':
		// A null body decodes to the zero request, as in encoding/json.
		if err := d.null(); err != nil {
			return err
		}
	default:
		return d.fail("the body is not a JSON object")
	}
	if _, ok := d.skipSpace(); ok {
		return d.fail("data after the request object")
	}
	if d.err != io.EOF {
		return d.err
	}
	b.Keys, b.Vals = d.cols[0].value(), d.cols[1].value()
	return nil
}

// Request fields, in SortRequestJSON order.
const (
	fieldTenant = iota
	fieldAlgo
	fieldPriority
	fieldWidth
	fieldKeys
	fieldVals
)

var fieldNames = [...]string{"tenant", "algo", "priority", "width", "keys", "vals"}

// lookupField matches a decoded field name the way encoding/json does
// (Unicode case folding) and returns its index, or -1.
func lookupField(name []byte) int {
	for i, f := range fieldNames {
		if bytes.EqualFold(name, []byte(f)) {
			return i
		}
	}
	return -1
}

// fill reads the next chunk, reporting whether any bytes arrived.
func (d *codec) fill() bool {
	for d.err == nil {
		d.off += int64(d.end)
		d.pos = 0
		d.end, d.err = d.r.Read(d.chunk[:])
		if d.end > 0 {
			return true
		}
	}
	return false
}

// skipSpace advances past JSON whitespace and returns the next byte
// without consuming it; ok is false at the end of the body.
func (d *codec) skipSpace() (c byte, ok bool) {
	for {
		for d.pos < d.end {
			switch c := d.chunk[d.pos]; c {
			case ' ', '\t', '\n', '\r':
				d.pos++
			default:
				return c, true
			}
		}
		if !d.fill() {
			return 0, false
		}
	}
}

// fail returns the read error that ended the body early, else a syntax
// error at the current offset.
func (d *codec) fail(msg string) error {
	if d.err != nil && d.err != io.EOF {
		return d.err
	}
	return fmt.Errorf("offset %d: %s", d.off+int64(d.pos), msg)
}

// object decodes the request object's fields; the next byte is '{'.
func (d *codec) object(b *SortRequestJSON) error {
	d.pos++
	c, ok := d.skipSpace()
	if ok && c == '}' {
		d.pos++
		return nil
	}
	for {
		if !ok || c != '"' {
			return d.fail("expected a field name")
		}
		name, err := d.readString()
		if err != nil {
			return err
		}
		f := lookupField(name)
		if f < 0 {
			return d.fail(fmt.Sprintf("unknown field %q", name))
		}
		if c, ok = d.skipSpace(); !ok || c != ':' {
			return d.fail("expected ':' after a field name")
		}
		d.pos++
		if c, ok = d.skipSpace(); !ok {
			return d.fail("expected a value")
		}
		if err := d.value(b, f, c); err != nil {
			return err
		}
		c, ok = d.skipSpace()
		switch {
		case ok && c == ',':
			d.pos++
			c, ok = d.skipSpace()
		case ok && c == '}':
			d.pos++
			return nil
		default:
			return d.fail("expected ',' or '}' after a field value")
		}
	}
}

// value decodes field f's value, whose first byte is c.
func (d *codec) value(b *SortRequestJSON, f int, c byte) error {
	if c == 'n' {
		if f == fieldKeys || f == fieldVals {
			d.cols[f-fieldKeys].ext, d.cols[f-fieldKeys].n = 0, -1
		}
		return d.null()
	}
	switch f {
	case fieldTenant, fieldAlgo:
		if c != '"' {
			return d.fail(fieldNames[f] + " must be a string")
		}
		s, err := d.readString()
		if err != nil {
			return err
		}
		if f == fieldTenant {
			b.Tenant = string(s)
			return nil
		}
		switch string(s) { // the known names without an allocation
		case "lsb":
			b.Algo = "lsb"
		case "msb":
			b.Algo = "msb"
		case "cmp":
			b.Algo = "cmp"
		default:
			b.Algo = string(s)
		}
	case fieldPriority, fieldWidth:
		v, err := d.readInt()
		if err != nil {
			return err
		}
		if f == fieldPriority {
			b.Priority = v
		} else {
			b.Width = v
		}
	default:
		if c != '[' {
			return d.fail(fieldNames[f] + " must be an array of unsigned integers")
		}
		return d.array(&d.cols[f-fieldKeys])
	}
	return nil
}

// null consumes the literal null.
func (d *codec) null() error {
	const lit = "null"
	for i := 0; i < len(lit); i++ {
		if d.pos == d.end && !d.fill() || d.chunk[d.pos] != lit[i] {
			return d.fail("invalid literal")
		}
		d.pos++
	}
	return nil
}

// array decodes one array of unsigned integers into col; the next byte
// is '['.
func (d *codec) array(col *column) error {
	d.pos++
	c, ok := d.skipSpace()
	if ok && c == ']' {
		d.pos++
		col.ext, col.n = 0, 0 // encoding/json drops the backing array
		return nil
	}
	for i := 0; ; i++ {
		var x uint64
		if ok && c == 'n' {
			if err := d.null(); err != nil {
				return err
			}
		} else {
			var err error
			if x, err = d.readUint(); err != nil {
				return err
			}
		}
		switch {
		case i == col.ext:
			col.buf = append(col.buf[:i], x)
			col.ext++
		case c != 'n':
			col.buf[i] = x
		}
		c, ok = d.skipSpace()
		switch {
		case ok && c == ',':
			d.pos++
			c, ok = d.skipSpace()
		case ok && c == ']':
			d.pos++
			col.n = i + 1
			return nil
		default:
			return d.fail("expected ',' or ']' in an array")
		}
	}
}

// readUint consumes one unsigned JSON integer: 0, or a nonzero digit and
// more digits, at most 2^64-1. What follows it is the caller's to check,
// so "01", "1.5" and "1e2" fail there.
func (d *codec) readUint() (uint64, error) {
	if d.pos == d.end && !d.fill() || d.chunk[d.pos]-'0' > 9 {
		return 0, d.fail("expected an unsigned integer")
	}
	x := uint64(d.chunk[d.pos] - '0')
	d.pos++
	if x == 0 {
		return 0, nil
	}
	for {
		buf := d.chunk[d.pos:d.end]
		for i, c := range buf {
			c -= '0'
			if c > 9 {
				d.pos += i
				return x, nil
			}
			// x*10 + c must not pass 18446744073709551615.
			if x >= 1844674407370955161 && (x > 1844674407370955161 || c > 5) {
				d.pos += i
				return 0, d.fail("integer overflows 64 bits")
			}
			x = x*10 + uint64(c)
		}
		d.pos = d.end
		if !d.fill() {
			return x, nil
		}
	}
}

// readInt consumes one signed JSON integer that fits an int.
func (d *codec) readInt() (int, error) {
	neg := false
	if d.pos < d.end && d.chunk[d.pos] == '-' {
		neg = true
		d.pos++
	}
	u, err := d.readUint()
	if err != nil {
		return 0, err
	}
	v := int64(u)
	if neg {
		v = -v
	}
	if u > 1<<63 || !neg && u == 1<<63 || int64(int(v)) != v {
		return 0, d.fail("integer out of range")
	}
	return int(v), nil
}

// readString consumes one string token (the next byte is its opening
// quote) and returns its decoded bytes, valid until the next call.
func (d *codec) readString() ([]byte, error) {
	d.pos++
	d.raw = d.raw[:0]
	esc := false
	for {
		if d.pos == d.end && !d.fill() {
			return nil, d.fail("unterminated string")
		}
		chunk := d.chunk[d.pos:d.end]
		for i, c := range chunk {
			switch {
			case esc:
				esc = false
			case c == '\\':
				esc = true
			case c == '"':
				d.raw = append(d.raw, chunk[:i]...)
				d.pos += i + 1
				var ok bool
				if d.str, ok = unquote(d.str[:0], d.raw); !ok {
					return nil, d.fail("invalid string")
				}
				return d.str, nil
			}
		}
		d.raw = append(d.raw, chunk...)
		d.pos = d.end
	}
}

// unquote appends the decoded form of a JSON string body (the bytes
// between the quotes) to dst, as encoding/json decodes it: the standard
// escapes, \u escapes with surrogate pairs (an unpaired surrogate
// becomes U+FFFD), and invalid UTF-8 coerced to U+FFFD. Control
// characters and unknown escapes are invalid.
func unquote(dst, s []byte) ([]byte, bool) {
	for i := 0; i < len(s); {
		c := s[i]
		switch {
		case c == '\\':
			if i+1 == len(s) {
				return dst, false
			}
			i += 2
			switch s[i-1] {
			case '"', '\\', '/':
				dst = append(dst, s[i-1])
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				r := hex4(s[i:])
				if r < 0 {
					return dst, false
				}
				i += 4
				if utf16.IsSurrogate(r) {
					var r2 rune = -1
					if len(s) >= i+2 && s[i] == '\\' && s[i+1] == 'u' {
						r2 = hex4(s[i+2:])
					}
					if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
						dst = utf8.AppendRune(dst, dec)
						i += 6
						continue
					}
					r = utf8.RuneError
				}
				dst = utf8.AppendRune(dst, r)
			default:
				return dst, false
			}
		case c < ' ':
			return dst, false
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			i++
		default:
			r, size := utf8.DecodeRune(s[i:])
			dst = utf8.AppendRune(dst, r)
			i += size
		}
	}
	return dst, true
}

// hex4 parses four hex digits at the start of s, or returns -1.
func hex4(s []byte) rune {
	if len(s) < 4 {
		return -1
	}
	var r rune
	for _, c := range s[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// writeSortResponse writes the /v1/sort success body for req's sorted
// columns and res through d's chunk: SortResponseJSON's wire form,
// 32-bit columns written without widening. req's columns may be d's.
func (d *codec) writeSortResponse(w io.Writer, req *Request, res Result) error {
	cw := chunkWriter{w: w, b: d.chunk[:0]}
	cw.b = append(cw.b, `{"keys":`...)
	if req.Keys64 != nil {
		writeColumn(&cw, req.Keys64)
		if len(req.Vals64) > 0 {
			cw.b = append(cw.b, `,"vals":`...)
			writeColumn(&cw, req.Vals64)
		}
	} else {
		writeColumn(&cw, req.Keys32)
		if len(req.Vals32) > 0 {
			cw.b = append(cw.b, `,"vals":`...)
			writeColumn(&cw, req.Vals32)
		}
	}
	cw.room(256)
	b := append(cw.b, `,"queue_ns":`...)
	b = strconv.AppendInt(b, res.QueueWait.Nanoseconds(), 10)
	b = append(b, `,"sort_ns":`...)
	b = strconv.AppendInt(b, res.SortTime.Nanoseconds(), 10)
	b = append(b, `,"attempts":`...)
	b = strconv.AppendInt(b, int64(res.Attempts), 10)
	b = append(b, `,"stage":`...)
	b = strconv.AppendInt(b, int64(res.Stage), 10)
	if res.Degraded {
		b = append(b, `,"degraded":true`...)
	}
	if res.Batched {
		b = append(b, `,"batched":true`...)
	}
	if res.BatchRequests != 0 {
		b = append(b, `,"batch_requests":`...)
		b = strconv.AppendInt(b, int64(res.BatchRequests), 10)
	}
	if res.Spilled {
		b = append(b, `,"spilled":true`...)
	}
	cw.b = append(b, "}\n"...)
	cw.flush()
	return cw.err
}

// chunkWriter batches small appends into writes of at most one chunk.
type chunkWriter struct {
	w   io.Writer
	b   []byte
	err error
}

// room flushes the chunk unless n more bytes fit in it.
func (c *chunkWriter) room(n int) {
	if len(c.b)+n > cap(c.b) {
		c.flush()
	}
}

// flush writes the buffered bytes; the first write error sticks.
func (c *chunkWriter) flush() {
	if c.err == nil && len(c.b) > 0 {
		_, c.err = c.w.Write(c.b)
	}
	c.b = c.b[:0]
}

// writeColumn appends a JSON array of xs (a nil column writes []).
func writeColumn[K partsort.Key](c *chunkWriter, xs []K) {
	c.b = append(c.b, '[')
	for i, x := range xs {
		c.room(24) // ',' plus the 20 digits of 2^64-1
		if i > 0 {
			c.b = append(c.b, ',')
		}
		c.b = strconv.AppendUint(c.b, uint64(x), 10)
	}
	c.room(1)
	c.b = append(c.b, ']')
}
