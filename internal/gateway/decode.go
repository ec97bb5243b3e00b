package gateway

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"netcut/internal/graph"
)

// The POST /v1/plan body decoder: one pass over the body bytes straight
// into PlanRequestWire, with no reflection and no intermediate token
// stream. It accepts exactly the bodies that encoding/json's Decoder
// accepts for PlanRequestWire when followed by nothing but whitespace,
// and yields the identical struct:
//
//   - keys match field names case-insensitively after unescaping, with
//     encoding/json's folding ('ſ' matches 's', the Kelvin sign 'k');
//   - unknown keys are skipped whatever their value, but still checked
//     for syntax and the 10000-level nesting limit;
//   - null leaves strings, numbers, bools and structs unchanged and
//     sets pointers and slices to nil;
//   - a repeated key decodes into the value already there: structs and
//     slice elements merge, and a slice regrown past its length reuses
//     what an earlier, longer array left in its capacity;
//   - strings unescape as encoding/json does, replacing invalid UTF-8
//     and unpaired surrogates with U+FFFD;
//   - ints take only integer literals in range (1.0, 1e2 and overflow
//     are rejected), floats only values inside float64's range.
//
// Every rejection is the same 400 invalid_json, so the decoder stops
// at the first syntax or type error. FuzzDecodeRequestMatchesJSON pins
// the equivalence against encoding/json: change PlanRequestWire and
// this decoder together.

// maxNestingDepth is encoding/json's limit on open objects and arrays.
const maxNestingDepth = 10000

// maxPooledBody and maxPooledElems bound the buffers a pooled decoder
// keeps: big enough for every zoo graph's wire form, small enough that
// outsized bodies (near MaxBodyBytes, or thousands of tiny array
// elements) do not stay pinned in the pool.
const (
	maxPooledBody  = 256 << 10
	maxPooledElems = 1024
)

// wireDecoder is the decoder's state. Instances are pooled with their
// buffers; decoded values never alias memory the decoder reuses.
type wireDecoder struct {
	data  []byte
	pos   int
	depth int // open objects and arrays

	body []byte   // the request body
	str  []byte   // unescaped string scratch
	key  [16]byte // folded key; longer than every field name
	skip []byte   // open containers of a skipped value

	// Element scratch for arrays decoded into a nil slice: elements
	// are built here and copied out at their exact count.
	nodes  []NodeWire
	blocks []BlockWire
	ints   []int

	// Slabs the pointer-free pointer fields are carved from.
	shapes   []ShapeWire
	blockIdx []int
}

var decoderPool = sync.Pool{New: func() any { return new(wireDecoder) }}

// decodeError is a syntax or type error at a byte offset of the body.
type decodeError struct {
	msg string
	off int
}

func (e *decodeError) Error() string { return fmt.Sprintf("%s at offset %d", e.msg, e.off) }

func (d *wireDecoder) fail(msg string) error { return &decodeError{msg: msg, off: d.pos} }

// mismatch reports a value whose JSON type the target field cannot
// hold. encoding/json reports these after decoding the rest; the
// outcome is the same rejection either way.
func (d *wireDecoder) mismatch() error { return d.fail("value of the wrong type") }

// decodeRequest reads and parses one request body, then validates it
// into the planner's request. It never panics on arbitrary input
// (fuzzed), and everything it accepts is safe to hand to the planner.
func decodeRequest(body io.Reader) (*decodedRequest, *apiError) {
	var wire PlanRequestWire
	d := decoderPool.Get().(*wireDecoder)
	aerr := d.decodeBody(body, &wire)
	d.reset()
	decoderPool.Put(d)
	if aerr != nil {
		return nil, aerr
	}
	return requestFromWire(&wire)
}

// decodeBody reads body and parses it into w. A body over the
// http.MaxBytesReader limit is a 413 wherever the limit falls.
func (d *wireDecoder) decodeBody(body io.Reader, w *PlanRequestWire) *apiError {
	var err error
	if d.body, err = readBody(d.body, body); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			return errf(http.StatusRequestEntityTooLarge, "body_too_large",
				"request body exceeds %d bytes", maxErr.Limit)
		}
		return errf(http.StatusBadRequest, "invalid_json", "reading request body: %v", err)
	}
	if err := d.decode(d.body, w); err != nil {
		return errf(http.StatusBadRequest, "invalid_json", "decoding request: %v", err)
	}
	return nil
}

// readBody reads r to EOF, reusing buf's storage.
func readBody(buf []byte, r io.Reader) ([]byte, error) {
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// reset readies the decoder for the pool. A pooled decoder is never
// freed, so it must keep no memory a request's values point into, and
// no buffer too large to be worth reusing.
func (d *wireDecoder) reset() {
	if cap(d.body) > maxPooledBody {
		d.body = nil
	}
	if cap(d.str) > maxPooledBody {
		d.str = nil
	}
	if cap(d.nodes) > maxPooledElems {
		d.nodes = nil
	}
	if cap(d.blocks) > maxPooledElems {
		d.blocks = nil
	}
	if cap(d.ints) > maxPooledElems {
		d.ints = nil
	}
	d.data = nil
}

// decode parses data, which must hold one JSON value and nothing but
// whitespace after it, into w.
func (d *wireDecoder) decode(data []byte, w *PlanRequestWire) error {
	d.data, d.pos, d.depth = data, 0, 0
	d.skipWS()
	if d.pos == len(d.data) {
		return d.fail("empty request body")
	}
	if err := d.planRequest(w); err != nil {
		return err
	}
	d.skipWS()
	if d.pos != len(d.data) {
		return d.fail("trailing data after request body")
	}
	return nil
}

func (d *wireDecoder) planRequest(w *PlanRequestWire) error {
	if ok, err := d.object(); !ok {
		return err
	}
	for first := true; ; first = false {
		key, more, err := d.member(first)
		if !more || err != nil {
			return err
		}
		switch string(key) {
		case "NETWORK":
			err = d.string(&w.Network, copyString)
		case "GRAPH":
			err = decodePtr(d, &w.Graph, nil, (*wireDecoder).graph)
		case "TARGET":
			err = d.string(&w.Target, copyString)
		case "DEADLINE_MS":
			err = d.float(&w.DeadlineMs)
		case "ESTIMATOR":
			err = d.string(&w.Estimator, copyString)
		case "BUDGET_MS":
			err = d.float(&w.BudgetMs)
		case "ALLOW_DEGRADED":
			err = d.bool(&w.AllowDegraded)
		default:
			err = d.skipValue()
		}
		if err != nil {
			return err
		}
	}
}

func (d *wireDecoder) graph(w *GraphWire) error {
	if ok, err := d.object(); !ok {
		return err
	}
	for first := true; ; first = false {
		key, more, err := d.member(first)
		if !more || err != nil {
			return err
		}
		switch string(key) {
		case "NAME":
			err = d.string(&w.Name, copyString)
		case "INPUT":
			err = d.shape(&w.Input)
		case "NUM_CLASSES":
			err = d.int(&w.NumClasses)
		case "NODES":
			err = decodeArray(d, &w.Nodes, &d.nodes, (*wireDecoder).node)
		case "BLOCKS":
			err = decodeArray(d, &w.Blocks, &d.blocks, (*wireDecoder).block)
		default:
			err = d.skipValue()
		}
		if err != nil {
			return err
		}
	}
}

func (d *wireDecoder) node(n *NodeWire) error {
	if ok, err := d.object(); !ok {
		return err
	}
	for first := true; ; first = false {
		key, more, err := d.member(first)
		if !more || err != nil {
			return err
		}
		switch string(key) {
		case "ID":
			err = d.int(&n.ID)
		case "NAME":
			err = d.string(&n.Name, copyString)
		case "KIND":
			err = d.string(&n.Kind, internKind)
		case "INPUTS":
			err = decodeArray(d, &n.Inputs, &d.ints, (*wireDecoder).int)
		case "IN":
			err = decodePtr(d, &n.In, &d.shapes, (*wireDecoder).shape)
		case "OUT":
			err = d.shape(&n.Out)
		case "KH":
			err = d.int(&n.KH)
		case "KW":
			err = d.int(&n.KW)
		case "STRIDE":
			err = d.int(&n.Stride)
		case "PAD":
			err = d.string(&n.Pad, internPad)
		case "MACS":
			err = d.int64(&n.MACs)
		case "PARAMS":
			err = d.int64(&n.Params)
		case "WEIGHT_BYTES":
			err = d.int64(&n.WeightBytes)
		case "IO_BYTES":
			err = d.int64(&n.IOBytes)
		case "BLOCK":
			err = decodePtr(d, &n.Block, &d.blockIdx, (*wireDecoder).int)
		case "HEAD":
			err = d.bool(&n.Head)
		default:
			err = d.skipValue()
		}
		if err != nil {
			return err
		}
	}
}

func (d *wireDecoder) block(b *BlockWire) error {
	if ok, err := d.object(); !ok {
		return err
	}
	for first := true; ; first = false {
		key, more, err := d.member(first)
		if !more || err != nil {
			return err
		}
		switch string(key) {
		case "INDEX":
			err = d.int(&b.Index)
		case "LABEL":
			err = d.string(&b.Label, copyString)
		case "NODES":
			err = decodeArray(d, &b.Nodes, &d.ints, (*wireDecoder).int)
		case "OUTPUT":
			err = d.int(&b.Output)
		default:
			err = d.skipValue()
		}
		if err != nil {
			return err
		}
	}
}

func (d *wireDecoder) shape(s *ShapeWire) error {
	if ok, err := d.object(); !ok {
		return err
	}
	for first := true; ; first = false {
		key, more, err := d.member(first)
		if !more || err != nil {
			return err
		}
		switch string(key) {
		case "H":
			err = d.int(&s.H)
		case "W":
			err = d.int(&s.W)
		case "C":
			err = d.int(&s.C)
		default:
			err = d.skipValue()
		}
		if err != nil {
			return err
		}
	}
}

// decodePtr decodes into *p, allocating it if nil (from slab, unless
// that is nil); null sets it nil.
func decodePtr[T any](d *wireDecoder, p **T, slab *[]T, elem func(*wireDecoder, *T) error) error {
	if d.peek() == 'n' {
		*p = nil
		return d.literal("null")
	}
	switch {
	case *p != nil:
	case slab == nil:
		*p = new(T)
	default:
		*p = slabNew(slab)
	}
	return elem(d, *p)
}

// slabNew returns a pointer to a new zero T carved from *slab, so a
// graph's many small per-node pointers cost one allocation per chunk.
// A slab element is handed out once and never reused, so the pointers
// stay valid after the decoder goes back to the pool. T must hold no
// pointers: the pooled decoder keeps its current chunk, and with it
// whatever the chunk's elements would point to.
func slabNew[T any](slab *[]T) *T {
	s := *slab
	if len(s) == cap(s) {
		s = make([]T, 0, 64)
	}
	s = s[:len(s)+1]
	*slab = s
	return &s[len(s)-1]
}

// decodeArray decodes a JSON array into *s as encoding/json does: null
// sets nil, [] a non-nil empty slice, and elements decode into what
// the slice already holds — up to its capacity, past its length. A nil
// slice is built in scratch and copied out at its exact length, one
// allocation; regrowing a slice keeps its whole capacity's contents,
// so that choice of capacity never shows in a later decode.
func decodeArray[T any](d *wireDecoder, s *[]T, scratch *[]T, elem func(*wireDecoder, *T) error) error {
	switch d.peek() {
	case 'n':
		*s = nil
		return d.literal("null")
	case '[':
	default:
		return d.mismatch()
	}
	if err := d.open(); err != nil {
		return err
	}
	d.skipWS()
	if d.peek() == ']' {
		d.close()
		*s = []T{}
		return nil
	}
	if *s != nil {
		return decodeElems(d, s, false, elem)
	}
	v := (*scratch)[:0]
	err := decodeElems(d, &v, true, elem)
	if err == nil {
		*s = append(make([]T, 0, len(v)), v...)
	}
	clear(v) // the pooled scratch keeps no reference, on error too
	*scratch = v[:0]
	return err
}

// decodeElems decodes the elements of an array whose '[' is consumed
// and which is not empty into *v, from index 0; fresh appends each
// element instead of decoding into the one already there.
func decodeElems[T any](d *wireDecoder, v *[]T, fresh bool, elem func(*wireDecoder, *T) error) error {
	s := *v
	var zero T
	for i := 0; ; i++ {
		switch {
		case fresh:
			s = append(s, zero)
		case i >= cap(s):
			s = append(s[:cap(s)], zero)[:i+1]
		case i >= len(s):
			s = s[:i+1]
		}
		*v = s
		if err := elem(d, &s[i]); err != nil {
			return err
		}
		d.skipWS()
		switch d.peek() {
		case ',':
			d.pos++
			d.skipWS()
			continue
		case ']':
			d.close()
		default:
			return d.fail("expected ',' or ']' after array element")
		}
		*v = s[:i+1]
		return nil
	}
}

// object consumes the '{' opening an object-typed value. It returns
// false for null (the target stays as it is) and for an error.
func (d *wireDecoder) object() (bool, error) {
	switch d.peek() {
	case '{':
		err := d.open()
		return err == nil, err
	case 'n':
		return false, d.literal("null")
	}
	return false, d.mismatch()
}

// member advances to the next member of the object being decoded
// (first: its '{' was just consumed) and leaves d.pos at the member's
// value. It returns the key folded as encoding/json matches field
// names, or more == false once the closing '}' is consumed.
func (d *wireDecoder) member(first bool) (key []byte, more bool, err error) {
	d.skipWS()
	c := d.peek()
	switch {
	case c == '}':
		d.close()
		return nil, false, nil
	case !first && c == ',':
		d.pos++
		d.skipWS()
		if d.peek() != '"' {
			return nil, false, d.fail("expected object key")
		}
	case first && c == '"':
	default:
		return nil, false, d.fail("expected object key or '}'")
	}
	if key, err = d.memberKey(); err != nil {
		return nil, false, err
	}
	return key, true, nil
}

// memberKey consumes a key string and its ':' and returns the folded
// key.
func (d *wireDecoder) memberKey() ([]byte, error) {
	raw, plain, err := d.scanString()
	if err != nil {
		return nil, err
	}
	if !plain {
		raw = d.unquote(raw)
	}
	key := d.fold(raw)
	d.skipWS()
	if d.peek() != ':' {
		return nil, d.fail("expected ':' after object key")
	}
	d.pos++
	d.skipWS()
	return key, nil
}

// fold folds an unescaped key the way encoding/json's foldName does —
// ASCII letters upper-cased, any other rune mapped to the smallest
// rune of its Unicode simple-fold orbit — for comparison with the
// upper-cased field names. It returns nil when the result cannot be a
// field name: a rune outside ASCII, or longer than d.key.
func (d *wireDecoder) fold(b []byte) []byte {
	k := d.key[:0]
	for i := 0; i < len(b); {
		c := b[i]
		if c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			i++
		} else {
			r, n := utf8.DecodeRune(b[i:])
			i += n
			if r = foldRune(r); r >= utf8.RuneSelf {
				return nil
			}
			c = byte(r)
		}
		if len(k) == len(d.key) {
			return nil
		}
		k = append(k, c)
	}
	return k
}

// foldRune returns the smallest rune of r's simple-fold orbit.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

// string decodes a string value into *dst, through intern.
func (d *wireDecoder) string(dst *string, intern func([]byte) string) error {
	switch d.peek() {
	case '"':
		raw, plain, err := d.scanString()
		if err != nil {
			return err
		}
		if !plain {
			raw = d.unquote(raw)
		}
		*dst = intern(raw)
		return nil
	case 'n':
		return d.literal("null")
	}
	return d.mismatch()
}

func copyString(b []byte) string { return string(b) }

// internKind returns the canonical operator name for b, so a graph's
// kinds share the graph package's strings instead of one allocation
// per node.
func internKind(b []byte) string {
	if k, ok := graph.ParseOpKind(string(b)); ok {
		return k.String()
	}
	return string(b)
}

func internPad(b []byte) string {
	switch string(b) {
	case "same":
		return "same"
	case "valid":
		return "valid"
	}
	return string(b)
}

func (d *wireDecoder) bool(dst *bool) error {
	switch d.peek() {
	case 't':
		*dst = true
		return d.literal("true")
	case 'f':
		*dst = false
		return d.literal("false")
	case 'n':
		return d.literal("null")
	}
	return d.mismatch()
}

func (d *wireDecoder) float(dst *float64) error {
	switch c := d.peek(); {
	case c == 'n':
		return d.literal("null")
	case c != '-' && (c < '0' || c > '9'):
		return d.mismatch()
	}
	num, err := d.number()
	if err != nil {
		return err
	}
	f, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		return d.fail("number out of float64 range")
	}
	*dst = f
	return nil
}

func (d *wireDecoder) int(dst *int) error {
	n, ok, err := d.integer(strconv.IntSize)
	if ok {
		*dst = int(n)
	}
	return err
}

func (d *wireDecoder) int64(dst *int64) error {
	n, ok, err := d.integer(64)
	if ok {
		*dst = n
	}
	return err
}

// integer decodes a number that must be an integer literal fitting in
// a signed int of the given bits; anything else after its digits is a
// rejection either way (a fraction or exponent, a leading zero), so it
// needs no further scanning. ok is false for null and errors.
func (d *wireDecoder) integer(bits int) (n int64, ok bool, err error) {
	data, i := d.data, d.pos
	if i < len(data) && data[i] == 'n' {
		return 0, false, d.literal("null")
	}
	neg := i < len(data) && data[i] == '-'
	if neg {
		i++
	}
	start := i
	var u uint64
	for ; i < len(data) && data[i]-'0' <= 9; i++ {
		if u > (1<<63)/10 {
			d.pos = i
			return 0, false, d.fail("integer out of range")
		}
		u = u*10 + uint64(data[i]-'0')
	}
	d.pos = i
	switch {
	case i == start && !neg:
		return 0, false, d.mismatch()
	case i == start || (data[start] == '0' && i-start > 1):
		return 0, false, d.fail("invalid number")
	case i < len(data) && (data[i] == '.' || data[i] == 'e' || data[i] == 'E'):
		return 0, false, d.fail("number is not an integer")
	}
	if limit := uint64(1) << (bits - 1); u > limit || (!neg && u == limit) {
		return 0, false, d.fail("integer out of range")
	}
	if neg {
		return -int64(u), true, nil
	}
	return int64(u), true, nil
}

// number consumes a number token of JSON's grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?. What may follow it
// is the caller's check.
func (d *wireDecoder) number() ([]byte, error) {
	start := d.pos
	if d.peek() == '-' {
		d.pos++
	}
	switch c := d.peek(); {
	case c == '0':
		d.pos++
	case '1' <= c && c <= '9':
		d.digits()
	default:
		return nil, d.fail("invalid number")
	}
	if d.peek() == '.' {
		d.pos++
		if !d.digits() {
			return nil, d.fail("invalid number")
		}
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.pos++
		if c := d.peek(); c == '+' || c == '-' {
			d.pos++
		}
		if !d.digits() {
			return nil, d.fail("invalid number")
		}
	}
	return d.data[start:d.pos], nil
}

// digits consumes a run of decimal digits and reports whether there
// was at least one.
func (d *wireDecoder) digits() bool {
	data, i := d.data, d.pos
	for i < len(data) && data[i]-'0' <= 9 {
		i++
	}
	start := d.pos
	d.pos = i
	return i > start
}

// scanString consumes a string token and returns its raw contents.
// plain reports that they need no unescaping: no escapes, valid UTF-8.
func (d *wireDecoder) scanString() (raw []byte, plain bool, err error) {
	data := d.data
	start := d.pos + 1 // past the opening quote
	i := start
	for i < len(data) && plainByte[data[i]] {
		i++
	}
	if i < len(data) && data[i] == '"' {
		d.pos = i + 1
		return data[start:i], true, nil
	}
	escaped, ascii := false, true
	for d.pos = i; d.pos < len(data); {
		c := data[d.pos]
		switch {
		case c == '"':
			raw = data[start:d.pos]
			d.pos++
			return raw, !escaped && (ascii || utf8.Valid(raw)), nil
		case c == '\\':
			escaped = true
			if err := d.escape(); err != nil {
				return nil, false, err
			}
		case c < 0x20:
			return nil, false, d.fail("control character in string")
		default:
			if c >= utf8.RuneSelf {
				ascii = false
			}
			d.pos++
		}
	}
	return nil, false, d.fail("unterminated string")
}

// plainByte marks the bytes a string's contents can hold as they are:
// printable ASCII other than '"' and '\\'.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// escape consumes one escape sequence, checking its syntax.
func (d *wireDecoder) escape() error {
	d.pos++ // the backslash
	switch d.peek() {
	case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
		d.pos++
		return nil
	case 'u':
		if d.pos+4 < len(d.data) && hex4(d.data[d.pos+1:d.pos+5]) >= 0 {
			d.pos += 5
			return nil
		}
	}
	return d.fail("invalid escape in string")
}

// hex4 decodes four hex digits, or returns -1.
func hex4(b []byte) rune {
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// getu4 decodes a \uXXXX escape at the start of s, or returns -1.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	return hex4(s[2:])
}

// unquote unescapes the raw contents of a scanned string into d.str,
// exactly as encoding/json does: a surrogate escape pairs with a
// following low-surrogate escape or becomes U+FFFD, and each byte of
// invalid UTF-8 becomes U+FFFD.
func (d *wireDecoder) unquote(s []byte) []byte {
	b := d.str[:0]
	for r := 0; r < len(s); {
		c := s[r]
		switch {
		case c == '\\':
			switch e := s[r+1]; e {
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				rr := getu4(s[r:])
				r += 6
				if utf16.IsSurrogate(rr) {
					if dec := utf16.DecodeRune(rr, getu4(s[r:])); dec != unicode.ReplacementChar {
						r += 6
						b = utf8.AppendRune(b, dec)
						continue
					}
					rr = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, rr)
				continue
			default: // '"', '\\', '/'
				b = append(b, e)
			}
			r += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			r++
		default:
			rr, size := utf8.DecodeRune(s[r:])
			r += size
			b = utf8.AppendRune(b, rr)
		}
	}
	d.str = b
	return b
}

// skipValue consumes a value of any type, checking its syntax and the
// nesting limit as encoding/json does for a key it does not store.
func (d *wireDecoder) skipValue() error {
	open := d.skip[:0]
	for {
		// A value starts at d.pos.
		switch c := d.peek(); c {
		case '{', '[':
			if err := d.open(); err != nil {
				return err
			}
			d.skipWS()
			if d.peek() != c+2 { // '{'+2 is '}', '['+2 is ']'
				open = append(open, c)
				if c == '{' {
					if d.peek() != '"' {
						return d.fail("expected object key or '}'")
					}
					if _, err := d.memberKey(); err != nil {
						return err
					}
				}
				continue
			}
			d.close()
		case '"':
			if _, _, err := d.scanString(); err != nil {
				return err
			}
		case 't':
			if err := d.literal("true"); err != nil {
				return err
			}
		case 'f':
			if err := d.literal("false"); err != nil {
				return err
			}
		case 'n':
			if err := d.literal("null"); err != nil {
				return err
			}
		default:
			if _, err := d.number(); err != nil {
				return err
			}
		}
		// A value ended: close finished containers until one has a
		// next element, or the skipped value is complete.
		for {
			if len(open) == 0 {
				d.skip = open
				return nil
			}
			top := open[len(open)-1]
			d.skipWS()
			c := d.peek()
			if c == ',' {
				d.pos++
				d.skipWS()
				if top == '{' {
					if d.peek() != '"' {
						return d.fail("expected object key")
					}
					if _, err := d.memberKey(); err != nil {
						return err
					}
				}
				break
			}
			if c != top+2 {
				return d.fail("expected ',' or end of container")
			}
			d.close()
			open = open[:len(open)-1]
		}
	}
}

// open consumes '{' or '[', enforcing the nesting limit.
func (d *wireDecoder) open() error {
	if d.depth == maxNestingDepth {
		return d.fail("exceeded max nesting depth")
	}
	d.pos++
	d.depth++
	return nil
}

// close consumes '}' or ']'.
func (d *wireDecoder) close() {
	d.pos++
	d.depth--
}

// literal consumes the keyword lit (true, false or null).
func (d *wireDecoder) literal(lit string) error {
	if len(d.data)-d.pos < len(lit) || string(d.data[d.pos:d.pos+len(lit)]) != lit {
		return d.fail("invalid literal")
	}
	d.pos += len(lit)
	return nil
}

// peek returns the byte at d.pos, or 0 at the end of the body (0 is
// never valid where a token is expected).
func (d *wireDecoder) peek() byte {
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

func (d *wireDecoder) skipWS() {
	if d.pos < len(d.data) && d.data[d.pos] > ' ' {
		return // every whitespace byte is at most ' '
	}
	data, i := d.data, d.pos
	for i < len(data) && (data[i] == ' ' || data[i] == '\t' || data[i] == '\n' || data[i] == '\r') {
		i++
	}
	d.pos = i
}
