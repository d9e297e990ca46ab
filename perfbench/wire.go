package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	partsort "repro"
	"repro/internal/server"
)

// svcRequest is one generated service request, encoded for both wires
// before any timed phase so the client's encoding is never on the clock.
// Every request asks for the LSB sort.
type svcRequest struct {
	tenant string
	width  int
	keys   []uint64 // the generated keys (32-bit values when width is 32)
	vals   bool     // a row-id payload column rides along
	sum    uint64   // additive key checksum
	body   []byte   // JSON body
	hdr    []byte   // HTTP/1.1 request head for body
	frame  []byte   // raw-TCP frame, length prefix included
}

// requestPool generates count requests of a workload's shape from the
// seed. Keys are uniform over the key width; payloads are row ids.
func requestPool(seed uint64, count, keys, width int, vals bool) []*svcRequest {
	pool := make([]*svcRequest, count)
	for i := range pool {
		r := &svcRequest{tenant: fmt.Sprintf("t%d", i%4), width: width, vals: vals,
			keys: make([]uint64, keys)}
		x := streamSeed(seed, i)
		for j := range r.keys {
			k := splitmix64(&x)
			if width == 32 {
				k >>= 32
			}
			r.keys[j] = k
			r.sum += k
		}
		r.encode()
		pool[i] = r
	}
	return pool
}

// poolFromColumn cuts a bulk key column into count requests of keys
// tuples each, with row-id payloads.
func poolFromColumn(col []uint64, count, keys int) []*svcRequest {
	pool := make([]*svcRequest, count)
	for i := range pool {
		r := &svcRequest{tenant: fmt.Sprintf("t%d", i%4), width: 64, vals: true,
			keys: col[i*keys : (i+1)*keys : (i+1)*keys]}
		for _, k := range r.keys {
			r.sum += k
		}
		r.encode()
		pool[i] = r
	}
	return pool
}

// encode builds the JSON body, the HTTP head and the TCP frame.
func (r *svcRequest) encode() {
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"tenant":%q,"algo":"lsb","width":%d,"keys":`, r.tenant, r.width)
	b.Write(appendUints(nil, r.keys))
	if r.vals {
		b.WriteString(`,"vals":`)
		b.Write(appendUints(nil, partsort.RIDs[uint64](len(r.keys))))
	}
	b.WriteByte('}')
	r.body = b.Bytes()
	r.hdr = []byte(fmt.Sprintf("POST /v1/sort HTTP/1.1\r\nHost: sortd\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", len(r.body)))

	n, w := len(r.keys), r.width/8
	cols := 1
	var flags byte
	if r.vals {
		cols, flags = 2, 1
	}
	payload := 6 + len(r.tenant) + 4 + n*w*cols
	f := make([]byte, 4, 4+payload)
	binary.LittleEndian.PutUint32(f, uint32(payload))
	f = append(f, 1, 0 /* lsb */, byte(r.width), 0, flags, byte(len(r.tenant)))
	f = append(f, r.tenant...)
	f = binary.LittleEndian.AppendUint32(f, uint32(n))
	for c := 0; c < cols; c++ {
		for i, k := range r.keys {
			if c == 1 {
				k = uint64(i)
			}
			if w == 4 {
				f = binary.LittleEndian.AppendUint32(f, uint32(k))
			} else {
				f = binary.LittleEndian.AppendUint64(f, k)
			}
		}
	}
	r.frame = f
}

func appendUints(b []byte, xs []uint64) []byte {
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, x, 10)
	}
	return append(b, ']')
}

// reqResult is what the client learned about one request.
type reqResult struct {
	sched, sendAt, done, verified time.Time
	late                          time.Duration // generator delay past sched
	phase, pool                   int
	err                           error
	// Server-reported timings and batching, where the wire carries them.
	queueNs, sortNs int64
	batchRequests   int
	batched         bool
	attempts        int
}

// client sends one request and fills res: sendAt and done bracket the
// wire exchange (done is the last response byte), verified is when the
// off-the-clock output check finished.
type client interface {
	do(r *svcRequest, res *reqResult)
	close()
}

// checker verifies one response against its request, with scratch
// reused across requests.
type checker struct {
	seen []uint64 // permutation bitmap
}

// check verifies a sorted response: its length, non-decreasing keys, the
// additive key checksum and, with payloads, that the payloads are a
// permutation of the row ids and each key is its row's original key.
func (c *checker) check(r *svcRequest, keys []uint64, vals []uint64) error {
	n := len(r.keys)
	if len(keys) != n {
		return fmt.Errorf("response has %d keys, want %d", len(keys), n)
	}
	var sum uint64
	for i, k := range keys {
		if i > 0 && keys[i-1] > k {
			return fmt.Errorf("keys not sorted at %d", i)
		}
		sum += k
	}
	if sum != r.sum {
		return errors.New("key checksum mismatch")
	}
	if !r.vals {
		return nil
	}
	if len(vals) != n {
		return fmt.Errorf("response has %d vals, want %d", len(vals), n)
	}
	words := (n + 63) / 64
	if cap(c.seen) < words {
		c.seen = make([]uint64, words)
	}
	seen := c.seen[:words]
	clear(seen)
	for i, v := range vals {
		if v >= uint64(n) || seen[v/64]&(1<<(v%64)) != 0 {
			return fmt.Errorf("vals are not a permutation of the row ids (at %d)", i)
		}
		seen[v/64] |= 1 << (v % 64)
		if r.keys[v] != keys[i] {
			return fmt.Errorf("key %d is not the original key of row %d", i, v)
		}
	}
	return nil
}

// httpClient speaks HTTP/1.1 to sortd over one keep-alive connection,
// writing pre-encoded requests.
type httpClient struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	body bytes.Buffer
	k, v []uint64
	checker
}

func dialHTTP(addr string) (*httpClient, error) {
	h := &httpClient{addr: addr}
	return h, h.redial()
}

func (h *httpClient) redial() error {
	if h.c != nil {
		h.c.Close()
	}
	c, err := net.Dial("tcp", h.addr)
	if err != nil {
		h.c = nil
		return err
	}
	h.c, h.br = c, bufio.NewReaderSize(c, 64<<10)
	return nil
}

func (h *httpClient) close() {
	if h.c != nil {
		h.c.Close()
	}
}

func (h *httpClient) do(r *svcRequest, res *reqResult) {
	res.sendAt = time.Now()
	status, err := h.exchange(r)
	res.done = time.Now()
	if err != nil {
		res.err = err
		_ = h.redial()
	} else if status != http.StatusOK {
		res.err = fmt.Errorf("http status %d: %.200s", status, h.body.Bytes())
	} else {
		res.err = h.parse(r, res)
	}
	res.verified = time.Now()
}

// exchange writes one request and reads the whole response body.
func (h *httpClient) exchange(r *svcRequest) (int, error) {
	if h.c == nil {
		if err := h.redial(); err != nil {
			return 0, err
		}
	}
	bufs := net.Buffers{r.hdr, r.body}
	if _, err := bufs.WriteTo(h.c); err != nil {
		return 0, err
	}
	resp, err := http.ReadResponse(h.br, nil)
	if err != nil {
		return 0, err
	}
	h.body.Reset()
	_, err = h.body.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// parse decodes a sortd JSON response and verifies it.
func (h *httpClient) parse(r *svcRequest, res *reqResult) error {
	var err error
	if h.k, h.v, err = parseSortResponse(h.body.Bytes(), h.k[:0], h.v[:0], res); err != nil {
		return err
	}
	if !r.vals {
		h.v = nil
	}
	return h.check(r, h.k, h.v)
}

// parseSortResponse decodes the fields of a /v1/sort success body the
// benchmark uses. sortd writes them with encoding/json, so the body is
// compact; the scanner accepts any field order.
func parseSortResponse(b []byte, keys, vals []uint64, res *reqResult) ([]uint64, []uint64, error) {
	var err error
	if keys, err = uintArray(b, `"keys":`, keys); err != nil {
		return nil, nil, err
	}
	if bytes.Contains(b, []byte(`"vals":`)) {
		if vals, err = uintArray(b, `"vals":`, vals); err != nil {
			return nil, nil, err
		}
	}
	res.queueNs = intField(b, `"queue_ns":`)
	res.sortNs = intField(b, `"sort_ns":`)
	res.batchRequests = int(intField(b, `"batch_requests":`))
	res.attempts = int(intField(b, `"attempts":`))
	res.batched = bytes.Contains(b, []byte(`"batched":true`))
	return keys, vals, nil
}

// uintArray parses the JSON array of unsigned integers after field.
func uintArray(b []byte, field string, out []uint64) ([]uint64, error) {
	i := bytes.Index(b, []byte(field))
	if i < 0 || i+len(field) >= len(b) || b[i+len(field)] != '[' {
		return nil, fmt.Errorf("response has no %s array", field)
	}
	p := i + len(field) + 1
	if p < len(b) && b[p] == ']' {
		return out, nil
	}
	for p < len(b) {
		var x uint64
		start := p
		for p < len(b) && b[p] >= '0' && b[p] <= '9' {
			x = x*10 + uint64(b[p]-'0')
			p++
		}
		if p == start || p-start > 20 || p >= len(b) {
			return nil, fmt.Errorf("malformed %s array at byte %d", field, p)
		}
		out = append(out, x)
		switch b[p] {
		case ',':
			p++
		case ']':
			return out, nil
		default:
			return nil, fmt.Errorf("malformed %s array at byte %d", field, p)
		}
	}
	return nil, fmt.Errorf("unterminated %s array", field)
}

// intField parses the integer after field, 0 when absent.
func intField(b []byte, field string) int64 {
	i := bytes.Index(b, []byte(field))
	if i < 0 {
		return 0
	}
	var x int64
	for p := i + len(field); p < len(b) && b[p] >= '0' && b[p] <= '9'; p++ {
		x = x*10 + int64(b[p]-'0')
	}
	return x
}

// tcpClient speaks sortd's length-prefixed binary framing over one
// connection, writing pre-encoded frames.
type tcpClient struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	buf  []byte
	k, v []uint64
	checker
}

func dialTCP(addr string) (*tcpClient, error) {
	t := &tcpClient{addr: addr}
	return t, t.redial()
}

func (t *tcpClient) redial() error {
	if t.c != nil {
		t.c.Close()
	}
	c, err := net.Dial("tcp", t.addr)
	if err != nil {
		t.c = nil
		return err
	}
	t.c, t.br = c, bufio.NewReaderSize(c, 64<<10)
	return nil
}

func (t *tcpClient) close() {
	if t.c != nil {
		t.c.Close()
	}
}

func (t *tcpClient) do(r *svcRequest, res *reqResult) {
	res.sendAt = time.Now()
	err := t.exchange(r)
	res.done = time.Now()
	if err != nil {
		res.err = err
		_ = t.redial()
	} else {
		res.err = t.parse(r)
	}
	res.verified = time.Now()
}

// exchange writes one frame and reads the response frame into t.buf.
func (t *tcpClient) exchange(r *svcRequest) error {
	if t.c == nil {
		if err := t.redial(); err != nil {
			return err
		}
	}
	if _, err := t.c.Write(r.frame); err != nil {
		return err
	}
	var lb [4]byte
	if _, err := io.ReadFull(t.br, lb[:]); err != nil {
		return err
	}
	n := int(binary.LittleEndian.Uint32(lb[:]))
	if cap(t.buf) < n {
		t.buf = make([]byte, n)
	}
	t.buf = t.buf[:n]
	_, err := io.ReadFull(t.br, t.buf)
	return err
}

// parse decodes a response frame and verifies it.
func (t *tcpClient) parse(r *svcRequest) error {
	b := t.buf
	if len(b) < 1 {
		return errors.New("empty tcp response")
	}
	if b[0] != server.TCPStatusOK {
		if len(b) >= 3 {
			m := int(binary.LittleEndian.Uint16(b[1:]))
			if 3+m <= len(b) {
				return fmt.Errorf("tcp status %d: %s", b[0], b[3:3+m])
			}
		}
		return fmt.Errorf("tcp status %d", b[0])
	}
	if len(b) < 5 {
		return errors.New("short tcp response")
	}
	n := int(binary.LittleEndian.Uint32(b[1:]))
	w := r.width / 8
	cols := 1
	if r.vals {
		cols = 2
	}
	if len(b) != 5+n*w*cols {
		return fmt.Errorf("tcp response carries %d bytes for %d keys", len(b)-5, n)
	}
	t.k = decodeColumn(b[5:], n, w, t.k[:0])
	t.v = nil
	if r.vals {
		t.v = decodeColumn(b[5+n*w:], n, w, t.v[:0])
	}
	return t.check(r, t.k, t.v)
}

func decodeColumn(b []byte, n, w int, out []uint64) []uint64 {
	for i := 0; i < n; i++ {
		if w == 4 {
			out = append(out, uint64(binary.LittleEndian.Uint32(b[i*4:])))
		} else {
			out = append(out, binary.LittleEndian.Uint64(b[i*8:]))
		}
	}
	return out
}

// submitClient calls Server.Submit in process: no codec, no socket.
type submitClient struct {
	srv      *server.Server
	req      server.Request
	k64, v64 []uint64
	k32, v32 []uint32
	k, v     []uint64
	checker
}

func (s *submitClient) close() {}

// load builds the in-process form of r in the client's reusable columns.
func (s *submitClient) load(r *svcRequest) {
	s.req = server.Request{Tenant: r.tenant, Algo: partsort.LSB}
	n := len(r.keys)
	if r.width == 64 {
		s.k64 = append(s.k64[:0], r.keys...)
		s.req.Keys64 = s.k64
		if r.vals {
			s.v64 = s.v64[:0]
			for i := 0; i < n; i++ {
				s.v64 = append(s.v64, uint64(i))
			}
			s.req.Vals64 = s.v64
		}
		return
	}
	s.k32 = s.k32[:0]
	for _, k := range r.keys {
		s.k32 = append(s.k32, uint32(k))
	}
	s.req.Keys32 = s.k32
	if r.vals {
		s.v32 = s.v32[:0]
		for i := 0; i < n; i++ {
			s.v32 = append(s.v32, uint32(i))
		}
		s.req.Vals32 = s.v32
	}
}

func (s *submitClient) do(r *svcRequest, res *reqResult) {
	s.load(r)
	res.sendAt = time.Now()
	out, err := s.srv.Submit(context.Background(), &s.req)
	res.done = time.Now()
	res.queueNs, res.sortNs = out.QueueWait.Nanoseconds(), out.SortTime.Nanoseconds()
	res.batched, res.batchRequests, res.attempts = out.Batched, out.BatchRequests, out.Attempts
	if err != nil {
		res.err = err
	} else {
		s.k, s.v = s.k[:0], nil
		if r.width == 64 {
			s.k = append(s.k, s.req.Keys64...)
			if r.vals {
				s.v = append(s.v[:0], s.req.Vals64...)
			}
		} else {
			for _, k := range s.req.Keys32 {
				s.k = append(s.k, uint64(k))
			}
			if r.vals {
				s.v = make([]uint64, 0, len(s.req.Vals32))
				for _, v := range s.req.Vals32 {
					s.v = append(s.v, uint64(v))
				}
			}
		}
		res.err = s.check(r, s.k, s.v)
	}
	res.verified = time.Now()
}

// handlerClient calls the HTTP handler in process on pre-encoded bodies
// with a response recorder: the JSON codec and HTTP routing, no socket.
type handlerClient struct {
	h    http.Handler
	k, v []uint64
	checker
}

func (c *handlerClient) close() {}

func (c *handlerClient) do(r *svcRequest, res *reqResult) {
	req := httptest.NewRequest(http.MethodPost, "/v1/sort", bytes.NewReader(r.body))
	rec := httptest.NewRecorder()
	res.sendAt = time.Now()
	c.h.ServeHTTP(rec, req)
	res.done = time.Now()
	if rec.Code != http.StatusOK {
		res.err = fmt.Errorf("handler status %d: %.200s", rec.Code, rec.Body.Bytes())
	} else {
		var err error
		c.k, c.v, err = parseSortResponse(rec.Body.Bytes(), c.k[:0], c.v[:0], res)
		if err == nil {
			if !r.vals {
				c.v = nil
			}
			err = c.check(r, c.k, c.v)
		}
		res.err = err
	}
	res.verified = time.Now()
}
