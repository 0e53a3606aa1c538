package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"hrtsched/internal/plan"
)

// The hot /v1 bodies — analyze, capacity, place, remove and the two
// batches — are parsed and written here without reflection. Requests go
// through one strict scanner that accepts only the canonical spelling of
// each shape; anything else (case-folded or escaped keys, null, floats,
// duplicate keys, trailing bytes) goes to encoding/json over the same
// bytes, which stays the specification: it decides every answer and
// every 400 message the scanner does not. Responses are appended into a
// pooled buffer by one appender per type, each writing exactly the bytes
// encoding/json writes for that type's tags.

// maxScanBody is the largest body read whole and offered to the scanner.
// A longer one streams through encoding/json as every body did before
// the scanner, so a large or malformed body costs no more memory than it
// did then, and no buffer over this size is kept in the pool.
const maxScanBody = 64 << 10

var bodyPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4<<10)
	return &b
}}

// putBody returns a body buffer to the pool unless it grew too large.
func putBody(bp *[]byte, b []byte) {
	if cap(b) <= maxScanBody {
		*bp = b[:0]
		bodyPool.Put(bp)
	}
}

// Header values shared by every response that sets them, so setting one
// allocates nothing. net/http only reads them.
var (
	jsonContentType = []string{"application/json"}
	cacheHit        = []string{"hit"}
	cacheMiss       = []string{"miss"}
)

// decodeBody parses a POST body into `into`, answering the envelope on
// any protocol error. The body is read once; the canonical scanner
// handles the hot request types up to maxScanBody and encoding/json
// everything else.
func decodeBody(w http.ResponseWriter, req *http.Request, into any) bool {
	if req.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "POST only", 0)
		return false
	}
	bp := bodyPool.Get().(*[]byte)
	b, tail := readBody(req.Body, *bp, req.ContentLength)
	var err error
	if tail != nil || !scanCanonical(b, into) {
		err = decodeFallback(b, tail, into)
	}
	putBody(bp, b)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error(), 0)
		return false
	}
	return true
}

// readBody appends r's bytes to b until EOF or until b holds maxScanBody
// bytes, growing b once up front when the request declares its length.
// tail is nil when b holds the whole body; otherwise it yields what a
// stream decoder reads next: the rest of r, or the read error.
func readBody(r io.Reader, b []byte, contentLength int64) (_ []byte, tail io.Reader) {
	if contentLength > 0 && contentLength < maxScanBody {
		// One byte more than the body, so the read that meets EOF needs
		// no growth.
		b = slices.Grow(b, int(contentLength)+1-len(b))
	}
	for len(b) < maxScanBody {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):min(cap(b), maxScanBody)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, errReader{err}
		}
	}
	return b, r
}

// decodeFallback decodes with encoding/json exactly as decoding the
// request body as a stream did — the first value only, unknown fields
// rejected — reading the bytes already in b and then tail, if any.
func decodeFallback(b []byte, tail io.Reader, into any) error {
	var r io.Reader = bytes.NewReader(b)
	if tail != nil {
		r = io.MultiReader(r, tail)
	}
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec.Decode(into)
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// scanCanonical parses b into `into` when `into` is a hot request type
// and b is its canonical spelling: keys exactly as tagged and at most
// once each, integers matching -?(0|[1-9][0-9]*) that fit an int64,
// strings of printable ASCII without '\' or '"', any JSON whitespace,
// and nothing after the value. It reports false, leaving `into`
// untouched, for any other input.
func scanCanonical(b []byte, into any) bool {
	s := scanner{b: b}
	switch v := into.(type) {
	case *analyzeRequest:
		return scanInto(&s, v, s.analyzeRequest)
	case *analyzeBatchRequest:
		return scanInto(&s, v, func() analyzeBatchRequest {
			return analyzeBatchRequest{Items: scanItems(&s, s.analyzeRequest)}
		})
	case *placeRequest:
		return scanInto(&s, v, s.placeRequest)
	case *placeBatchRequest:
		return scanInto(&s, v, func() placeBatchRequest {
			return placeBatchRequest{Items: scanItems(&s, s.placeRequest)}
		})
	case *idRequest:
		return scanInto(&s, v, s.idRequest)
	}
	return false
}

// scanInto stores what scan read into `into` when it was the whole body.
func scanInto[T any](s *scanner, into *T, scan func() T) bool {
	r := scan()
	if !s.end() {
		return false
	}
	*into = r
	return true
}

// scanner walks one canonical body. bad is sticky: once set, every step
// is a no-op and the caller falls back to encoding/json.
type scanner struct {
	b   []byte
	i   int
	bad bool
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

// eat consumes c after optional whitespace, reporting whether it was
// there.
func (s *scanner) eat(c byte) bool {
	s.ws()
	if !s.bad && s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

func (s *scanner) expect(c byte) {
	if !s.eat(c) {
		s.bad = true
	}
}

// end reports whether the whole body was one canonical value.
func (s *scanner) end() bool {
	s.ws()
	return !s.bad && s.i == len(s.b)
}

// member scans up to the value of an object's n-th member (its opening
// brace first when n is 0) and returns the index of the member's key in
// names. It returns -1 at the closing brace, and on anything else — a
// key not in names, a key already recorded in seen, malformed input —
// after marking the scan bad.
func (s *scanner) member(n int, seen *uint8, names ...string) int {
	if n == 0 {
		s.expect('{')
	}
	if s.bad || s.eat('}') {
		return -1
	}
	if n > 0 {
		s.expect(',')
	}
	key := s.rawStr()
	s.expect(':')
	if s.bad {
		return -1
	}
	for i, name := range names {
		if string(key) == name && *seen&(1<<i) == 0 {
			*seen |= 1 << i
			return i
		}
	}
	s.bad = true
	return -1
}

// next reports whether an array's n-th element follows (its opening
// bracket first when n is 0), consuming the comma before it.
func (s *scanner) next(n int) bool {
	if n == 0 {
		s.expect('[')
	}
	if s.bad || s.eat(']') {
		return false
	}
	if n > 0 {
		s.expect(',')
	}
	return !s.bad
}

// scanItems scans {"items":[elem,...]}; a present array is non-nil, as
// encoding/json decodes an empty one.
func scanItems[T any](s *scanner, elem func() T) []T {
	var items []T
	var seen uint8
	for n := 0; s.member(n, &seen, "items") == 0; n++ {
		items = []T{}
		for m := 0; s.next(m); m++ {
			items = append(items, elem())
		}
	}
	return items
}

func (s *scanner) analyzeRequest() analyzeRequest {
	var r analyzeRequest
	var seen uint8
	for n := 0; ; n++ {
		switch s.member(n, &seen, "tasks", "probe_period_ns") {
		case 0:
			r.Tasks = s.tasks()
		case 1:
			r.ProbePeriodNs = s.int()
		default:
			return r
		}
	}
}

func (s *scanner) placeRequest() placeRequest {
	var r placeRequest
	var seen uint8
	for n := 0; ; n++ {
		switch s.member(n, &seen, "id", "tasks") {
		case 0:
			r.ID = s.str()
		case 1:
			r.Tasks = s.tasks()
		default:
			return r
		}
	}
}

func (s *scanner) idRequest() idRequest {
	var r idRequest
	var seen uint8
	for n := 0; s.member(n, &seen, "id") == 0; n++ {
		r.ID = s.str()
	}
	return r
}

// tasks scans a task list into a non-nil set whose first allocation
// holds the few tasks a gang usually has.
func (s *scanner) tasks() plan.TaskSet {
	ts := make(plan.TaskSet, 0, 4)
	for n := 0; s.next(n); n++ {
		ts = append(ts, s.task())
	}
	return ts
}

func (s *scanner) task() plan.Task {
	var t plan.Task
	var seen uint8
	for n := 0; ; n++ {
		switch s.member(n, &seen, "period_ns", "slice_ns") {
		case 0:
			t.PeriodNs = s.int()
		case 1:
			t.SliceNs = s.int()
		default:
			return t
		}
	}
}

// rawStr scans a canonical string and returns its bytes, which alias the
// body.
func (s *scanner) rawStr() []byte {
	if !s.eat('"') {
		s.bad = true
		return nil
	}
	for start := s.i; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1]
		case c < 0x20 || c > 0x7e || c == '\\':
			s.bad = true
			return nil
		}
	}
	s.bad = true
	return nil
}

func (s *scanner) str() string { return string(s.rawStr()) }

// int scans -?(0|[1-9][0-9]*) within int64's range.
func (s *scanner) int() int64 {
	s.ws()
	neg := s.i < len(s.b) && s.b[s.i] == '-'
	if neg {
		s.i++
	}
	start := s.i
	var u uint64
	for ; s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9'; s.i++ {
		u = u*10 + uint64(s.b[s.i]-'0')
	}
	// At most 19 digits cannot overflow the uint64; the sign then bounds
	// the magnitude to int64's range.
	n := s.i - start
	limit := uint64(1<<63 - 1)
	if neg {
		limit++
	}
	if n == 0 || n > 19 || (n > 1 && s.b[start] == '0') || u > limit {
		s.bad = true
		return 0
	}
	if neg {
		return -int64(u)
	}
	return int64(u)
}

// writeAppended answers 200 with the JSON body appendJSON writes into a
// pooled buffer, plus the trailing newline writeJSON writes.
func writeAppended(w http.ResponseWriter, appendJSON func([]byte) []byte) {
	bp := bodyPool.Get().(*[]byte)
	b := append(appendJSON(*bp), '\n')
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	w.Write(b) //nolint:errcheck — client hangup
	putBody(bp, b)
}

// WritePlaceBatchReply answers 200 with the /v1/cluster/place-batch
// envelope {"items":[...]} for items.
func WritePlaceBatchReply(w http.ResponseWriter, items []PlaceBatchEntry) {
	writeAppended(w, func(b []byte) []byte { return appendPlaceBatchReply(b, items) })
}

// AppendJSON appends the result's JSON object to b, as encoding/json
// writes it.
func (r PlaceResult) AppendJSON(b []byte) []byte {
	b = append(b, `{"placed":`...)
	b = strconv.AppendBool(b, r.Placed)
	b = append(b, `,"node":`...)
	b = strconv.AppendInt(b, int64(r.Node), 10)
	b = append(b, `,"attempts":`...)
	b = strconv.AppendInt(b, int64(r.Attempts), 10)
	b = append(b, `,"verdict":`...)
	b = r.Verdict.AppendJSON(b)
	return append(b, '}')
}

// AppendJSON appends the envelope's JSON object to b, as encoding/json
// writes it.
func (e APIError) AppendJSON(b []byte) []byte {
	b = append(b, `{"code":`...)
	b = appendString(b, e.Code)
	b = append(b, `,"reason":`...)
	b = appendString(b, e.Reason)
	if e.RetryAfterMs != 0 {
		b = append(b, `,"retry_after_ms":`...)
		b = strconv.AppendInt(b, e.RetryAfterMs, 10)
	}
	if e.DAGCode != "" {
		b = append(b, `,"dag_code":`...)
		b = appendString(b, e.DAGCode)
	}
	if len(e.BlockingPath) > 0 {
		b = append(b, `,"blocking_path":[`...)
		for i, n := range e.BlockingPath {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(n), 10)
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// AppendJSON appends the entry's JSON object to b, as encoding/json
// writes it.
func (e PlaceBatchEntry) AppendJSON(b []byte) []byte {
	b = append(b, `{"id":`...)
	b = appendString(b, e.ID)
	if e.Result != nil {
		b = append(b, `,"result":`...)
		b = e.Result.AppendJSON(b)
	}
	if e.Error != nil {
		b = append(b, `,"error":`...)
		b = e.Error.AppendJSON(b)
	}
	return append(b, '}')
}

func appendRemoveReply(b []byte, v plan.Verdict) []byte {
	b = append(b, `{"verdict":`...)
	return append(v.AppendJSON(b), '}')
}

func appendPlaceBatchReply(b []byte, items []PlaceBatchEntry) []byte {
	return appendItems(b, items, PlaceBatchEntry.AppendJSON)
}

func appendAnalyzeBatchReply(b []byte, verdicts []plan.Verdict) []byte {
	return appendItems(b, verdicts, plan.Verdict.AppendJSON)
}

// appendItems writes {"items":[...]}, with null for a nil slice as
// encoding/json writes it.
func appendItems[T any](b []byte, items []T, appendJSON func(T, []byte) []byte) []byte {
	b = append(b, `{"items":`...)
	if items == nil {
		return append(b, `null}`...)
	}
	b = append(b, '[')
	for i, it := range items {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSON(it, b)
	}
	return append(b, "]}"...)
}

// appendString writes s as a JSON string. Printable ASCII that
// encoding/json leaves unescaped is copied; anything else (quotes,
// backslashes, the HTML characters <, > and &, control bytes, non-ASCII)
// is handed to encoding/json, so the escaping is its own.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
