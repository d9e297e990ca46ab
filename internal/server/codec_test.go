// Codec tests: the /v1/sort decoder against json.Decoder (a differential
// fuzz target), the encoder against json.Encoder byte for byte, the
// decoder's allocation bound, and the first rungs of the server
// benchmark ladder (codec alone, then the whole handler).

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"testing"
	"testing/iotest"
	"time"
)

// FuzzSortRequestJSON holds decodeSortRequest to encoding/json: on any
// input it accepts exactly when json.Decoder with DisallowUnknownFields
// accepts and nothing but whitespace follows the value, and then yields
// the same struct. Each input is decoded from one buffer and again one
// byte per read, so tokens straddle chunk boundaries.
func FuzzSortRequestJSON(f *testing.F) {
	for _, seed := range []string{
		`{"algo":"lsb","keys":[3,1,2]}`,
		`{"tenant":"t0","algo":"lsb","width":64,"keys":[18446744073709551615,0,7]}`,
		`{"ALGO":"lsb","Keys":[3,1,2],"VaLs":[1,2,3],"Width":32,"PRIORITY":2,"Tenant":"x"}`,
		`{"\u212aeys":[5],"algo":"cmp","\u0073\u0061\u006c\u0073":null}`,
		`{"algo":"lsb","algo":"msb","keys":[1],"keys":[2,3],"width":32,"width":64}`,
		`{"algo":"lsb","tenant":"a","tenant":null,"priority":1,"priority":null}`,
		`{"keys":[1,2,3],"keys":[4],"keys":[9,null,null,null]}`,
		`{"keys":[1,2,3],"keys":[],"keys":[null,null]}`,
		`{"keys":[1,2,3],"keys":null,"keys":[null]}`,
		`{"algo":"lsb","keys":null}`,
		`{"algo":"lsb"}`,
		`{"algo":"lsb","keys":[],"vals":[]}`,
		`{"algo":"lsb","keys":[1e2]}`,
		`{"algo":"lsb","keys":[01]}`,
		`{"algo":"lsb","keys":[-1]}`,
		`{"algo":"lsb","keys":[1.0]}`,
		`{"algo":"lsb","keys":[18446744073709551616]}`,
		`{"priority":-0,"width":-9223372036854775808}`,
		`{"priority":9223372036854775808}`,
		`{"priority":1.5}`,
		`{"priority":"1"}`,
		`{"tenant":"a\"b\\c\/d\b\f\n\r\t\u00e9\ud83d\ude00\ud800x\udc00","algo":"lsb","keys":[1]}`,
		"{\"tenant\":\"\xff\xfe\xed\xa0\x80ok\",\"algo\":\"lsb\"}",
		`{"tenant":"\x"}`,
		"{\"tenant\":\"tab\there\"}",
		" \t\n{ \"algo\" : \"lsb\" , \"keys\" : [ 1 , 2 ] } \r\n",
		`{"algo":"lsb","keys":[3,1,2]}garbage`,
		`{"algo":"lsb","keys":[3,1,2]}{"algo":"lsb","keys":[1]}`,
		`{"algo":"lsb","bogus":true}`,
		`{"algo":5}`,
		`{"keys":"abc"}`,
		`{"keys":[1,"2"]}`,
		`{"keys":[1,]}`,
		`{"keys":[1 2]}`,
		`{,}`,
		`{"algo":"lsb",}`,
		`null`,
		`nul`,
		`[]`,
		`""`,
		`7`,
		``,
		`   `,
		`{}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want SortRequestJSON
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		wantErr := dec.Decode(&want)
		if wantErr == nil {
			rest := data[dec.InputOffset():]
			if len(bytes.TrimLeft(rest, " \t\r\n")) > 0 {
				wantErr = fmt.Errorf("trailing data %q", rest)
			}
		}
		for _, r := range []io.Reader{bytes.NewReader(data), iotest.OneByteReader(bytes.NewReader(data))} {
			var got SortRequestJSON
			d := getCodec()
			gotErr := d.decodeSortRequest(r, &got)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("input %q: decodeSortRequest error %v, encoding/json error %v", data, gotErr, wantErr)
			}
			if gotErr == nil && !reflect.DeepEqual(got, want) {
				t.Fatalf("input %q:\n got %#v\nwant %#v", data, got, want)
			}
			putCodec(d)
		}
	})
}

// responseJSON is the SortResponseJSON a sort answer maps onto, built
// the way the encoding/json handler built it (32-bit columns widened).
func responseJSON(req *Request, res Result) SortResponseJSON {
	resp := SortResponseJSON{
		QueueNs:       res.QueueWait.Nanoseconds(),
		SortNs:        res.SortTime.Nanoseconds(),
		Attempts:      res.Attempts,
		Stage:         res.Stage,
		Degraded:      res.Degraded,
		Batched:       res.Batched,
		BatchRequests: res.BatchRequests,
		Spilled:       res.Spilled,
	}
	widen := func(xs []uint32) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = uint64(x)
		}
		return out
	}
	if req.Keys64 != nil {
		resp.Keys, resp.Vals = req.Keys64, req.Vals64
	} else {
		resp.Keys = widen(req.Keys32)
		if req.Vals32 != nil {
			resp.Vals = widen(req.Vals32)
		}
	}
	return resp
}

// writeSizes records the size of every Write.
type writeSizes struct {
	bytes.Buffer
	sizes []int
}

func (w *writeSizes) Write(p []byte) (int, error) {
	w.sizes = append(w.sizes, len(p))
	return w.Buffer.Write(p)
}

// TestSortResponseMatchesEncodingJSON compares writeSortResponse with
// json.NewEncoder(w).Encode on random responses of both widths, with and
// without payloads, over every omitempty flag, and checks that no write
// exceeds one chunk.
func TestSortResponseMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	col := func(n int) []uint64 {
		if n < 0 {
			return nil
		}
		xs := make([]uint64, n)
		for i := range xs {
			xs[i] = rng.Uint64() >> rng.Intn(64)
		}
		return xs
	}
	for iter := 0; iter < 400; iter++ {
		n := []int{-1, 0, 1, 5, rng.Intn(4000)}[rng.Intn(5)]
		keys := col(n)
		var vals []uint64
		switch rng.Intn(3) {
		case 1:
			vals = col(0)
		case 2:
			vals = col(len(keys))
		}
		req := &Request{}
		if rng.Intn(2) == 0 {
			req.Keys64, req.Vals64 = keys, vals
		} else {
			narrow := func(xs []uint64) []uint32 {
				if xs == nil {
					return nil
				}
				out := make([]uint32, len(xs))
				for i, x := range xs {
					out[i] = uint32(x)
				}
				return out
			}
			req.Keys32, req.Vals32 = narrow(keys), narrow(vals)
		}
		res := Result{
			QueueWait:     time.Duration(rng.Int63() >> rng.Intn(63)),
			SortTime:      time.Duration(rng.Int63()>>rng.Intn(63)) - time.Duration(rng.Intn(2)),
			Attempts:      rng.Intn(4),
			Stage:         rng.Intn(3) - rng.Intn(2),
			Degraded:      rng.Intn(2) == 0,
			Batched:       rng.Intn(2) == 0,
			BatchRequests: rng.Intn(3) - rng.Intn(2),
			Spilled:       rng.Intn(2) == 0,
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(responseJSON(req, res)); err != nil {
			t.Fatal(err)
		}
		var got writeSizes
		d := getCodec()
		err := d.writeSortResponse(&got, req, res)
		putCodec(d)
		if err != nil {
			t.Fatalf("writeSortResponse: %v", err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("iteration %d differs from encoding/json:\n got %.300s\nwant %.300s", iter, got.Bytes(), want.Bytes())
		}
		for _, sz := range got.sizes {
			if sz > codecChunk {
				t.Fatalf("iteration %d: one write of %d bytes, chunk is %d", iter, sz, codecChunk)
			}
		}
	}
}

// sortBody returns a /v1/sort body shaped like the benchmark's svc-json
// requests: n uniform 64-bit keys, key-only.
func sortBody(n int) []byte {
	b := []byte(`{"tenant":"t0","algo":"lsb","width":64,"keys":[`)
	for i, k := range randKeys(n, 3) {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, k, 10)
	}
	return append(b, "]}"...)
}

// TestDecodeSortRequestAllocs bounds what decoding a request allocates
// on a warm codec to O(1) small objects (the tenant string): the body
// streams through the codec's chunk and never lives whole, and the key
// column is the codec's scratch. (It reuses one codec rather than the
// pool, which the race detector empties at random.)
func TestDecodeSortRequestAllocs(t *testing.T) {
	const n = 4096
	body := sortBody(n)
	rd := bytes.NewReader(body)
	d := new(codec)
	decode := func() {
		rd.Reset(body)
		var b SortRequestJSON
		if err := d.decodeSortRequest(rd, &b); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(b.Keys) != n {
			t.Fatalf("decoded %d keys, want %d", len(b.Keys), n)
		}
	}
	decode() // warm the codec
	if allocs := testing.AllocsPerRun(20, decode); allocs > 1 {
		t.Fatalf("decode of a %d-key body: %.1f allocs, want at most the tenant string", n, allocs)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		decode()
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > 256 {
		t.Fatalf("decode of a %d-key body allocated %d bytes per run, want at most 256 (a column is %d)", n, perRun, n*8)
	}
}

func BenchmarkDecodeSortRequest(b *testing.B) {
	body := sortBody(4096)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	rd := bytes.NewReader(body)
	for i := 0; i < b.N; i++ {
		rd.Reset(body)
		d := getCodec()
		var req SortRequestJSON
		err := d.decodeSortRequest(rd, &req)
		putCodec(d)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeSortResponse(b *testing.B) {
	keys := randKeys(4096, 3)
	req := &Request{Keys64: keys}
	res := Result{QueueWait: time.Millisecond, SortTime: time.Millisecond, Attempts: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := getCodec()
		err := d.writeSortResponse(io.Discard, req, res)
		putCodec(d)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHandleSort4096 is one svc-json request through the whole
// HTTP handler, in process: decode, admission, queue, sort, encode.
func BenchmarkHandleSort4096(b *testing.B) {
	s := New(testConfig())
	defer func() {
		if err := s.Drain(context.Background()); err != nil {
			b.Fatal(err)
		}
	}()
	h := s.Handler()
	body := sortBody(4096)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sort", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("HTTP %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
}
