package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"selnet/internal/distance"
	"selnet/internal/tensor"
	"selnet/internal/vecdata"
)

// checkScan runs the scanner over body and, when it accepts, checks that
// encoding/json accepts the same bytes with the same model, the same
// presence of "t", and Float64bits-equal values. It reports whether the
// scanner accepted.
func checkScan(t *testing.T, batch bool, body []byte) bool {
	t.Helper()
	var e estimateBody
	e.raw.Write(body)
	if !e.scan(batch) {
		return false
	}
	if e.ragged != -1 {
		t.Fatalf("scanner accepted %q with ragged row %d", body, e.ragged)
	}
	if !batch {
		var ref estimateRequest
		if err := decodeJSON(body, &ref); err != nil {
			t.Fatalf("scanner accepted %q, encoding/json refuses it: %v", body, err)
		}
		if e.model != ref.Model || !bitsEqual(e.row(0), ref.Query) || !bitsEqual([]float64{e.t}, []float64{ref.T}) {
			t.Fatalf("%q: scanner decoded model %q query %v t %v, encoding/json %q %v %v",
				body, e.model, e.row(0), e.t, ref.Model, ref.Query, ref.T)
		}
		return true
	}
	var ref estimateBatchRequest
	if err := decodeJSON(body, &ref); err != nil {
		t.Fatalf("scanner accepted %q, encoding/json refuses it: %v", body, err)
	}
	if e.model != ref.Model || e.hasT != (ref.T != nil) || !bitsEqual(e.ts, ref.Ts) {
		t.Fatalf("%q: scanner decoded model %q t present %v ts %v, encoding/json %q %v %v",
			body, e.model, e.hasT, e.ts, ref.Model, ref.T != nil, ref.Ts)
	}
	if e.hasT && math.Float64bits(e.t) != math.Float64bits(*ref.T) {
		t.Fatalf("%q: scanner decoded t %v, encoding/json %v", body, e.t, *ref.T)
	}
	if e.n != len(ref.Queries) || len(e.rows) != e.n*e.dim {
		t.Fatalf("%q: scanner decoded %d rows of dim %d (%d values), encoding/json %d rows",
			body, e.n, e.dim, len(e.rows), len(ref.Queries))
	}
	for i, q := range ref.Queries {
		if !bitsEqual(e.row(i), q) {
			t.Fatalf("%q: row %d scanned %v, encoding/json %v", body, i, e.row(i), q)
		}
	}
	return true
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// decodeSeeds are bodies at the edges of the scanner's subset; each is
// fuzzed as a body of both routes.
var decodeSeeds = []string{
	// What clients send.
	`{"model":"m","query":[0.25,-1.5e-3,7],"t":0.5}`,
	`{"model":"m","queries":[[1,2],[1,2],[3,4]],"ts":[0.1,0.2,0.3]}`,
	`{"queries":[[1,2]],"t":0.5,"model":"m"}`,
	"\r\n\t{ \"t\" : 1 , \"queries\" : [ [ 1 , 2 ] , [1,2] ] }\n",
	`{}`,
	// Escaped, case-variant and duplicate keys; escaped values.
	`{"mod\u0065l":"m","queries":[[1]],"t":1}`,
	`{"model":"a\"b","query":[1],"t":1}`,
	`{"model":"café","query":[1],"t":1}`,
	`{"Model":"m","Queries":[[1,2]],"T":0.5}`,
	`{"MODEL":"m","QUERY":[1],"T":2}`,
	`{"t":1,"t":2,"queries":[[1]]}`,
	`{"query":[1],"query":[2],"t":1}`,
	`{"model":"m","model":"n","queries":[[1]],"ts":[1]}`,
	// Keys from the other route, and unknown keys.
	`{"query":[1],"queries":[[1]],"t":1}`,
	`{"ts":[1],"query":[1]}`,
	`{"queries":[[1]],"t":1,"extra":0}`,
	// null rows, elements and values.
	`{"queries":[null,[1]],"t":1}`,
	`{"queries":[[1,null]],"t":1}`,
	`{"query":[null],"t":1}`,
	`{"query":null,"t":null,"model":null}`,
	`{"queries":null,"ts":null}`,
	// Numbers at the edges of the JSON grammar and of float64.
	`{"query":[-0],"t":-0}`,
	`{"queries":[[-0,0]],"ts":[-0.0]}`,
	`{"query":[1e400],"t":1}`,
	`{"query":[-1e400],"t":1}`,
	`{"query":[1e-400],"t":1E-400}`,
	`{"query":[01],"t":1}`,
	`{"query":[+1],"t":1}`,
	`{"query":[1.],"t":1}`,
	`{"query":[.5],"t":1}`,
	`{"query":[1e],"t":1}`,
	`{"query":[1e+],"t":1}`,
	`{"query":[-],"t":1}`,
	`{"query":[NaN],"t":1}`,
	`{"query":[0x10],"t":1}`,
	`{"query":[1.7976931348623157e308,4.9e-324,2.2250738585072014e-308],"t":1}`,
	`{"queries":[[123456789012345678901234567890123456789]],"t":1}`,
	// Trailing data.
	`{"query":[1],"t":1} x`,
	`{"queries":[[1]],"t":1}{"t":2}`,
	`{"queries":[[1]],"t":1}]`,
	"{\"query\":[1],\"t\":1}\n\t ",
	// Syntax errors.
	`{"query":[1],"t":1`,
	`{"query":[1,],"t":1}`,
	`{"queries":[[1],],"t":1}`,
	`{"model":"m",}`,
	`{,"model":"m"}`,
	`{"model" "m"}`,
	`{"model":"m" "t":1}`,
	`{"model":"unterminated`,
	"{\"model\":\"tab\there\"}",
	"{\"model\":\"\xff\"}",
	``,
	`[]`,
	`null`,
	// Unequal rows and empty arrays.
	`{"queries":[[1,2],[3]],"t":1}`,
	`{"queries":[[1],[1,2]],"t":1}`,
	`{"queries":[[],[1]],"t":1}`,
	`{"queries":[],"ts":[]}`,
	`{"queries":[[]],"t":0}`,
	`{"queries":[[],[]],"ts":[1,2]}`,
	`{"query":[],"t":0}`,
	// Rows that differ from the previous row only in whitespace or in
	// the last digit, and rows that extend it.
	`{"queries":[[1,2],[1, 2],[1,2]],"t":1}`,
	`{"queries":[[0.125,0.5],[0.125,0.6],[0.125,0.5]],"t":1}`,
	`{"queries":[[1.5],[1.50],[1.5]],"t":1}`,
	`{"queries":[[1,2],[1,2]3],"t":1}`,
	`{"queries":[[1,2],[1,2],[1,2,3]],"t":1}`,
	`{"queries":[[1,2],[1,2]],"ts":[0.1,0.2,0.3]}`,
}

// FuzzDecodeEstimate checks the scanner against encoding/json: whenever
// the scanner accepts a body, encoding/json accepts the same bytes and
// decodes the same request.
func FuzzDecodeEstimate(f *testing.F) {
	for _, body := range decodeSeeds {
		f.Add(false, []byte(body))
		f.Add(true, []byte(body))
	}
	f.Fuzz(func(t *testing.T, batch bool, body []byte) {
		checkScan(t, batch, body)
	})
}

// TestScanAcceptsClientBodies pins the scanner's fast path: what
// encoding/json writes for either route, indented or reordered,
// decodes without the fallback.
func TestScanAcceptsClientBodies(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rows := make([][]float64, 0, 24)
	for i := 0; i < 6; i++ {
		q := make([]float64, 5)
		for j := range q {
			q[j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
		}
		q[0] = math.Copysign(0, -1)
		for k := 0; k < 4; k++ {
			rows = append(rows, q)
		}
	}
	ts := make([]float64, len(rows))
	for i := range ts {
		ts[i] = rng.Float64()
	}
	tt := 0.375
	bodies := []struct {
		batch bool
		req   any
	}{
		{true, estimateBatchRequest{Model: "m", Queries: rows, Ts: ts}},
		{true, estimateBatchRequest{Queries: rows, T: &tt}},
		{true, estimateBatchRequest{Model: "ünïcode", Queries: [][]float64{{}}, T: &tt}},
		{false, estimateRequest{Model: "m", Query: rows[0], T: tt}},
		{false, estimateRequest{Query: rows[5]}},
	}
	for _, b := range bodies {
		compact, err := json.Marshal(b.req)
		if err != nil {
			t.Fatal(err)
		}
		indented, err := json.MarshalIndent(b.req, "\t", "   ")
		if err != nil {
			t.Fatal(err)
		}
		for _, body := range [][]byte{compact, indented} {
			if !checkScan(t, b.batch, body) {
				t.Errorf("scanner declined %s", body)
			}
		}
	}
	// Any key order; repeated rows in any layout.
	for _, body := range []string{
		`{"ts":[1,2],"queries":[[1],[1]],"model":"m"}`,
		`{"t":1,"query":[1],"model":"m"}`,
		`{"queries":[[1,2],[1, 2],[1,2]],"t":1}`,
		`{"queries":[[0.125,0.5],[0.125,0.6],[0.125,0.5]],"t":1}`,
		`{"queries":[[1.5],[1.50],[1.5]],"t":1}`,
	} {
		if !checkScan(t, strings.Contains(body, "queries"), []byte(body)) {
			t.Errorf("scanner declined %s", body)
		}
	}
}

// TestEstimateBatchMatchesReflectionDecode checks that a batch answer
// over HTTP is Float64bits-equal to EstimateBatch over the rows
// encoding/json decodes, for a ladder body the scanner takes and for a
// body only the fallback takes.
func TestEstimateBatchMatchesReflectionDecode(t *testing.T) {
	const dim = 6
	s := NewServer(Config{})
	defer s.Close()
	net := tinyNet(3, dim)
	if _, err := s.Registry().Publish("m", net, "mem"); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	ladder := batchBody(t, dim, 12, 8)
	for _, body := range [][]byte{ladder, bytes.Replace(ladder, []byte(`"ts"`), []byte(`"TS"`), 1)} {
		var req estimateBatchRequest
		if err := decodeJSON(body, &req); err != nil {
			t.Fatal(err)
		}
		want := net.EstimateBatch(tensor.FromRows(req.Queries), req.Ts)
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/v1/estimate/batch", bytes.NewReader(body)))
		if rw.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rw.Code, rw.Body)
		}
		var got estimateBatchResponse
		mustUnmarshal(t, rw.Body.Bytes(), &got)
		if !bitsEqual(got.Estimates, want) {
			t.Fatalf("HTTP answers %v, EstimateBatch %v", got.Estimates, want)
		}
	}
}

// batchBody is a /v1/estimate/batch body for model "m": vecs distinct
// vectors of dim values, each sent as a ladder of steps ascending
// thresholds.
func batchBody(t testing.TB, dim, vecs, steps int) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(vecs*steps + dim)))
	req := estimateBatchRequest{Model: "m"}
	for v := 0; v < vecs; v++ {
		q := make([]float64, dim)
		for j := range q {
			q[j] = rng.Float64()
		}
		for k := 0; k < steps; k++ {
			req.Queries = append(req.Queries, q)
			req.Ts = append(req.Ts, float64(k+1)/float64(steps))
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestEstimateBodiesConcurrent sends batch bodies of different sizes and
// single estimates from several goroutines at once, so pooled bodies
// pass between requests of every shape; each answer must equal the
// model's. Run with -race.
func TestEstimateBodiesConcurrent(t *testing.T) {
	const dim = 4
	s := NewServer(Config{})
	defer s.Close()
	net := tinyNet(5, dim)
	if _, err := s.Registry().Publish("m", net, "mem"); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	type call struct {
		route string
		body  []byte
		want  []float64
	}
	var calls []call
	for i, shape := range [][2]int{{1, 1}, {3, 8}, {40, 1}, {2, 3}} {
		body := batchBody(t, dim, shape[0], shape[1])
		var req estimateBatchRequest
		if err := decodeJSON(body, &req); err != nil {
			t.Fatal(err)
		}
		calls = append(calls, call{"/v1/estimate/batch", body, net.EstimateBatch(tensor.FromRows(req.Queries), req.Ts)})
		q := req.Queries[0]
		single, err := json.Marshal(estimateRequest{Model: "m", Query: q, T: float64(i) / 4})
		if err != nil {
			t.Fatal(err)
		}
		calls = append(calls, call{"/v1/estimate", single, []float64{net.Estimate(q, float64(i)/4)}})
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c := calls[(g+i)%len(calls)]
				rw := httptest.NewRecorder()
				h.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, c.route, bytes.NewReader(c.body)))
				var got []float64
				if c.route == "/v1/estimate" {
					var r estimateResponse
					_ = json.Unmarshal(rw.Body.Bytes(), &r)
					got = []float64{r.Estimate}
				} else {
					var r estimateBatchResponse
					_ = json.Unmarshal(rw.Body.Bytes(), &r)
					got = r.Estimates
				}
				if rw.Code != http.StatusOK || !bitsEqual(got, c.want) {
					t.Errorf("%s: %d %v, want %v", c.route, rw.Code, got, c.want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestEstimateErrorsUnchanged pins the status and message of the
// estimate routes' validation errors, whichever decoder took the body.
func TestEstimateErrorsUnchanged(t *testing.T) {
	s := NewServer(Config{})
	defer s.Close()
	if _, err := s.Registry().Publish("m", tinyNet(1, 3), "mem"); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	for _, tc := range []struct {
		route, body string
		status      int
		message     string
	}{
		{"/v1/estimate/batch", `{"model":"m","queries":[[1,2,3],[1,2]],"ts":[0.1,0.2]}`, 400, `query 1 has dim 2, model "m" expects 3`},
		{"/v1/estimate/batch", `{"model":"m","queries":[[1,2,3],[1,2,3],[1,null]],"t":1}`, 400, `query 2 has dim 2, model "m" expects 3`},
		{"/v1/estimate/batch", `{"model":"m","queries":[[1,2]],"ts":[0.1]}`, 400, `query has dim 2, model "m" expects 3`},
		{"/v1/estimate/batch", `{"model":"m","queries":[[]],"t":1}`, 400, `empty "query"`},
		{"/v1/estimate/batch", `{"model":"m","queries":[],"t":1}`, 400, `empty "queries"`},
		{"/v1/estimate/batch", `{"model":"m","queries":null,"t":1}`, 400, `empty "queries"`},
		{"/v1/estimate/batch", `{"model":"m","queries":[[1,2,3]],"t":1,"ts":[1]}`, 400, `provide "t" or "ts", not both`},
		{"/v1/estimate/batch", `{"model":"m","queries":[[1,2,3]],"ts":[1,2]}`, 400, `1 queries but 2 thresholds`},
		{"/v1/estimate/batch", `{"model":"nope","queries":[[1]],"t":1}`, 404, `unknown model "nope"`},
		{"/v1/estimate/batch", `{"model":"m","queries":[[1,2,3]],"t":1,"x":2}`, 400, `bad request body: json: unknown field "x"`},
		{"/v1/estimate", `{"model":"m","query":[1,2],"t":1}`, 400, `query has dim 2, model "m" expects 3`},
		{"/v1/estimate", `{"model":"m","t":1}`, 400, `empty "query"`},
		{"/v1/estimate", `{"model":"m","query":[1e400,2,3],"t":1}`, 400,
			`bad request body: json: cannot unmarshal number 1e400 into Go struct field estimateRequest.query of type float64`},
		{"/v1/estimate", `{"model":"m","query":[1,2,3],"t":1`, 400, `bad request body: unexpected EOF`},
		{"/v1/estimate", ``, 400, `bad request body: EOF`},
	} {
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, tc.route, strings.NewReader(tc.body)))
		var e errorResponse
		mustUnmarshal(t, rw.Body.Bytes(), &e)
		if rw.Code != tc.status || e.Error.Message != tc.message {
			t.Errorf("%s %s: %d %q, want %d %q", tc.route, tc.body, rw.Code, e.Error.Message, tc.status, tc.message)
		}
	}
}

// BenchmarkDecodeBatchBody scans a batch body shaped like selbench's
// batch_scan requests (the body decimal's TestFastPathCoversClientBodies
// checks): 32 jittered fasttext-like vectors of 64 dims, each at its 8
// ascending thresholds, written by json.Marshal.
func BenchmarkDecodeBatchBody(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	db := vecdata.SyntheticFasttext(rng, 2000, 64, distance.Euclidean)
	wl := vecdata.GeometricWorkload(rng, db, 32, 8)
	req := estimateBatchRequest{Model: "part"}
	for i := 0; i < len(wl.Queries); i += 8 {
		x := make([]float64, db.Dim)
		for j, v := range wl.Queries[i].X {
			x[j] = v + rng.NormFloat64()*1e-3
		}
		for _, q := range wl.Queries[i : i+8] {
			req.Queries = append(req.Queries, x)
			req.Ts = append(req.Ts, q.T)
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	var e estimateBody
	e.raw.Write(body)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		if !e.scan(true) || e.n != 256 {
			b.Fatalf("scanner declined the body or read %d rows", e.n)
		}
	}
}
