package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"unicode/utf8"

	"selnet/internal/decimal"
)

// maxBodyBytes caps request bodies, both when decoding locally and when
// buffering for a cluster forward.
const maxBodyBytes = 16 << 20

// maxPooledBytes bounds the buffers a pooled value keeps, so one huge
// request does not stay pinned in a pool.
const maxPooledBytes = 1 << 20

// readBody reads r's body, capped at maxBodyBytes, into buf.
func readBody(r *http.Request, buf *bytes.Buffer) error {
	buf.Reset()
	if n := r.ContentLength; n > 0 && n <= maxBodyBytes {
		// Size a cold buffer once, with the room ReadFrom wants for its
		// final, empty read, instead of doubling it up to the body.
		buf.Grow(int(n) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(nil, r.Body, maxBodyBytes)); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// decodeJSON strictly decodes body as one JSON value into v: unknown
// fields are errors, and so is anything but whitespace after the value.
func decodeJSON(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("bad request body: data after the JSON value")
	}
	return nil
}

// decodeRequest reads r's body and decodes it with decodeJSON.
func decodeRequest(r *http.Request, v any) error {
	var buf bytes.Buffer
	if err := readBody(r, &buf); err != nil {
		return err
	}
	return decodeJSON(buf.Bytes(), v)
}

// estimateBody is one decoded estimate request: the batch route's
// queries as n rows, the single route's query as row 0. Bodies are
// pooled, so once warm a request decodes without allocating; the
// handler releases its body only after the response is written.
type estimateBody struct {
	raw bytes.Buffer // the request body as read

	model string
	// name is the last model name scan decoded; scan reuses it while
	// requests repeat it, so a warm body decodes without allocating.
	name   string
	rows   []float64 // rows of dim values, row-major
	n, dim int       // n counts the batch route's rows
	// ragged is the first row whose length differs from row 0's, and
	// raggedDim its length; ragged is -1 when all rows are equally long.
	// Only the encoding/json fallback yields ragged rows, and rows then
	// stops before row ragged.
	ragged, raggedDim int
	ts                []float64
	t                 float64
	hasT              bool
}

var bodyPool = sync.Pool{New: func() any { return new(estimateBody) }}

func getEstimateBody() *estimateBody { return bodyPool.Get().(*estimateBody) }

// release returns e to the pool. e must not be used afterwards.
func (e *estimateBody) release() {
	if e.raw.Cap() > maxPooledBytes || 8*(cap(e.rows)+cap(e.ts)) > maxPooledBytes {
		return
	}
	bodyPool.Put(e)
}

func (e *estimateBody) reset() {
	e.model = ""
	e.rows, e.ts = e.rows[:0], e.ts[:0]
	e.n, e.dim, e.ragged, e.raggedDim = 0, 0, -1, 0
	e.t, e.hasT = 0, false
}

// row returns row i's values.
func (e *estimateBody) row(i int) []float64 { return e.rows[i*e.dim : (i+1)*e.dim] }

// decode reads r's body as a single (batch false) or batch estimate
// request. The scanner takes the bodies clients send; whatever it
// declines, encoding/json decides, so the accepted bodies and the
// errors are those of encoding/json alone.
func (e *estimateBody) decode(r *http.Request, batch bool) error {
	if err := readBody(r, &e.raw); err != nil {
		return err
	}
	if e.scan(batch) {
		return nil
	}
	return e.decodeStrict(batch)
}

// decodeStrict decodes e.raw with encoding/json.
func (e *estimateBody) decodeStrict(batch bool) error {
	e.reset()
	if !batch {
		var req estimateRequest
		if err := decodeJSON(e.raw.Bytes(), &req); err != nil {
			return err
		}
		e.model, e.t = req.Model, req.T
		e.rows, e.dim = req.Query, len(req.Query)
		return nil
	}
	var req estimateBatchRequest
	if err := decodeJSON(e.raw.Bytes(), &req); err != nil {
		return err
	}
	e.model, e.ts = req.Model, req.Ts
	if req.T != nil {
		e.t, e.hasT = *req.T, true
	}
	e.n = len(req.Queries)
	if e.n > 0 {
		e.dim = len(req.Queries[0])
	}
	for i, q := range req.Queries {
		if len(q) != e.dim {
			e.ragged, e.raggedDim = i, len(q)
			break
		}
		e.rows = append(e.rows, q...)
	}
	return nil
}

// scan decodes e.raw without reflection. It accepts exact-case keys
// ("model", "query", "t" on the single route; "model", "queries", "ts",
// "t" on the batch route) at most once each, in any order, with any JSON
// whitespace; strings without escapes; numbers as JSON writes them,
// parsed as encoding/json parses them; and batch rows of equal length.
// It reports false for anything else (null, escapes, unknown or
// duplicate keys, syntax errors, trailing data), never an error.
func (e *estimateBody) scan(batch bool) bool {
	e.reset()
	const (
		keyModel = 1 << iota
		keyRows
		keyTs
		keyT
	)
	s := scanner{b: e.raw.Bytes()}
	seen := 0
	if !s.next('{') {
		return false
	}
	for !s.next('}') {
		if seen != 0 && !s.next(',') {
			return false
		}
		k, ok := s.str()
		if !ok || !s.next(':') {
			return false
		}
		key := 0
		switch {
		case string(k) == "model":
			key = keyModel
		case string(k) == "t":
			key = keyT
		case !batch && string(k) == "query", batch && string(k) == "queries":
			key = keyRows
		case batch && string(k) == "ts":
			key = keyTs
		}
		if key == 0 || seen&key != 0 {
			return false
		}
		seen |= key
		switch key {
		case keyModel:
			var v []byte
			v, ok = s.str()
			if string(v) != e.name {
				e.name = string(v)
			}
			e.model = e.name
		case keyT:
			e.t, ok = s.num()
			e.hasT = true
		case keyRows:
			if batch {
				ok = s.queries(e)
			} else {
				e.rows, ok = s.row(e.rows)
				e.dim = len(e.rows)
			}
		case keyTs:
			e.ts, ok = s.row(e.ts)
		}
		if !ok {
			return false
		}
	}
	s.ws()
	return s.i == len(s.b)
}

// scanner walks a JSON body for estimateBody.scan; each method reports
// false where the body leaves the subset scan accepts.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// next skips whitespace and consumes c if c comes next.
func (s *scanner) next(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// str reads a string with no escapes whose contents are valid UTF-8.
func (s *scanner) str() ([]byte, bool) {
	if !s.next('"') {
		return nil, false
	}
	start := s.i
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			v := s.b[start:s.i]
			s.i++
			return v, utf8.Valid(v)
		case c == '\\' || c < 0x20:
			return nil, false
		}
	}
	return nil, false
}

// num reads a number in the JSON grammar with decimal.Parse, which
// reads its digits once and returns strconv.ParseFloat's value, as
// encoding/json does, so the bits agree. A number outside float64's
// range, which encoding/json rejects, is declined.
func (s *scanner) num() (float64, bool) {
	s.ws()
	v, n, ok := decimal.Parse(s.b[s.i:])
	s.i += n
	return v, ok
}

// row appends one array of numbers to dst.
func (s *scanner) row(dst []float64) ([]float64, bool) {
	if !s.next('[') {
		return dst, false
	}
	if s.next(']') {
		return dst, true
	}
	for {
		v, ok := s.num()
		if !ok {
			return dst, false
		}
		dst = append(dst, v)
		if s.next(']') {
			return dst, true
		}
		if !s.next(',') {
			return dst, false
		}
	}
}

// queries reads the batch route's array of rows into e. A row whose
// text repeats the previous row's byte for byte, as a threshold ladder's
// does, copies the previous row's values instead of parsing them again:
// equal bytes parse to equal floats.
func (s *scanner) queries(e *estimateBody) bool {
	if !s.next('[') {
		return false
	}
	if s.next(']') {
		return true
	}
	var prev []byte // the previous row's text, "[" to "]"
	for {
		s.ws()
		start := s.i
		if e.n > 0 && bytes.HasPrefix(s.b[start:], prev) {
			// prev holds one "]", its last byte, so the match is the
			// whole row.
			s.i += len(prev)
			e.rows = append(e.rows, e.rows[len(e.rows)-e.dim:]...)
		} else {
			var ok bool
			if e.rows, ok = s.row(e.rows); !ok {
				return false
			}
			if e.n == 0 {
				e.dim = len(e.rows)
			} else if len(e.rows) != (e.n+1)*e.dim {
				return false
			}
			prev = s.b[start:s.i]
		}
		e.n++
		if s.next(']') {
			return true
		}
		if !s.next(',') {
			return false
		}
	}
}
