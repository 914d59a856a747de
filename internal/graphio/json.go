package graphio

import (
	"bytes"
	"strconv"
	"unicode/utf8"
)

// Spec is a JSON graph document as decoded: syntactically valid and
// shaped like the schema, with nothing checked yet against the channel
// count. New turns it into a Graph.
type Spec struct {
	Channels int
	Inputs   []int
	Outputs  []int
	Edges    [][2]int
}

// DecodeJSON decodes a JSON graph document without validating it: the
// syntax half of ParseJSON, for callers that embed the graph in a larger
// request and validate it later. Every error wraps ErrSyntax.
func DecodeJSON(data []byte) (Spec, error) {
	d, err := scanJSON(data)
	if err != nil {
		return Spec{}, err
	}
	sp := Spec{Channels: d.channels, Inputs: d.inputs, Outputs: d.outputs}
	_ = d.eachEdge(func(from, to int) error { // never fails: fn returns nil
		sp.Edges = append(sp.Edges, [2]int{from, to})
		return nil
	})
	return sp, nil
}

// ParseJSON parses the canonical JSON variant; the package comment gives
// the accepted grammar and the error precedence.
func ParseJSON(data []byte) (*Graph, error) {
	d, err := scanJSON(data)
	if err != nil {
		return nil, err
	}
	g, err := newGraph(d.channels, d.inputs, d.outputs)
	if err != nil {
		return nil, err
	}
	if err := d.eachEdge(func(from, to int) error { return addEdge(g.Edges, 0, from, to) }); err != nil {
		return nil, err
	}
	return g, nil
}

// jsonDoc is a scanned document. The edges live in pairs while every
// "edges" array decoded so far was a fresh list of exact pairs of small
// ids, the common case; otherwise in tuples, shaped the way
// encoding/json leaves a [][]int so that repeated keys decode over it
// the same way. At most one of the two is non-empty.
type jsonDoc struct {
	channels        int
	inputs, outputs []int
	pairs           []int32 // sender, receiver, sender, receiver, ...
	tuples          [][]int
}

// eachEdge calls fn on every edge in document order, stopping at the
// first error.
func (d *jsonDoc) eachEdge(fn func(from, to int) error) error {
	for i := 0; i < len(d.pairs); i += 2 {
		if err := fn(int(d.pairs[i]), int(d.pairs[i+1])); err != nil {
			return err
		}
	}
	for _, t := range d.tuples {
		if err := fn(t[0], t[1]); err != nil {
			return err
		}
	}
	return nil
}

// jsonScanner is a cursor over one JSON document.
type jsonScanner struct {
	data []byte
	pos  int
}

func (s *jsonScanner) fail(what string) error {
	return perr(0, ErrSyntax, "offset %d: %s", s.pos, what)
}

// peek skips JSON whitespace and returns the next byte, or 0 at the end
// of the input (a literal NUL is no more valid there than the end).
func (s *jsonScanner) peek() byte {
	if s.pos = skipWS(s.data, s.pos); s.pos < len(s.data) {
		return s.data[s.pos]
	}
	return 0
}

// skipWS returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipWS(b []byte, i int) int {
	for ; i < len(b); i++ {
		switch b[i] {
		case ' ', '\t', '\n', '\r':
		default:
			return i
		}
	}
	return i
}

// consume skips whitespace and then c, reporting whether c was next.
func (s *jsonScanner) consume(c byte) bool {
	if s.peek() != c {
		return false
	}
	s.pos++
	return true
}

// null skips whitespace and then a null literal, reporting whether one
// was next.
func (s *jsonScanner) null() bool {
	if s.peek() != 'n' || !bytes.HasPrefix(s.data[s.pos:], []byte("null")) {
		return false
	}
	s.pos += 4
	return true
}

// integer skips whitespace and reads an integer literal. A number with a
// fraction or exponent, a leading zero or an overflow is not one.
func (s *jsonScanner) integer() (int, bool) {
	if c := s.peek(); c != '-' && (c < '0' || c > '9') {
		return 0, false
	}
	b := s.data[s.pos:]
	v, n, ok := leadingInt(b)
	if !ok {
		return 0, false
	}
	d0 := 0
	if b[0] == '-' {
		d0 = 1
	}
	if b[d0] == '0' && n > d0+1 {
		return 0, false // leading zero
	}
	if n < len(b) {
		switch b[n] {
		case '.', 'e', 'E':
			return 0, false
		}
	}
	s.pos += n
	return v, true
}

// The document's keys, in the order jsonKeys lists them.
const (
	keyChannels = iota
	keyInputs
	keyOutputs
	keyEdges
)

var jsonKeys = [...][]byte{[]byte("channels"), []byte("inputs"), []byte("outputs"), []byte("edges")}

// key reads an object key and returns its index in jsonKeys.
func (s *jsonScanner) key() (int, error) {
	if s.peek() != '"' {
		return 0, s.fail("expected a string key")
	}
	s.pos++
	start, escaped := s.pos, false
	for {
		if s.pos >= len(s.data) {
			return 0, s.fail("unterminated string")
		}
		c := s.data[s.pos]
		if c == '"' {
			break
		}
		if c < 0x20 {
			return 0, s.fail("control character in string")
		}
		s.pos++
		if c != '\\' {
			continue
		}
		escaped = true
		if s.pos >= len(s.data) {
			return 0, s.fail("unterminated string")
		}
		switch s.data[s.pos] {
		case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			s.pos++
		case 'u':
			if _, ok := hex4(s.data[s.pos+1:]); !ok {
				return 0, s.fail("bad \\u escape")
			}
			s.pos += 5
		default:
			return 0, s.fail("bad escape")
		}
	}
	name := s.data[start:s.pos]
	s.pos++
	if escaped {
		name = unescape(name)
	}
	for i, k := range jsonKeys {
		if bytes.EqualFold(name, k) {
			return i, nil
		}
	}
	return 0, s.fail("unknown key " + strconv.Quote(string(name)))
}

// hex4 decodes the four hex digits at the start of b.
func hex4(b []byte) (rune, bool) {
	if len(b) < 4 {
		return 0, false
	}
	var r rune
	for _, c := range b[:4] {
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

// unescape decodes the escapes of a validated string body. Every
// surrogate escape becomes U+FFFD, where encoding/json combines a valid
// pair into one rune; no rune of either kind folds to an ASCII letter,
// so which keys match is the same.
func unescape(b []byte) []byte {
	out := make([]byte, 0, len(b))
	for i := 0; i < len(b); i++ {
		c := b[i]
		if c != '\\' {
			out = append(out, c)
			continue
		}
		i++
		switch b[i] {
		case 'b':
			out = append(out, '\b')
		case 'f':
			out = append(out, '\f')
		case 'n':
			out = append(out, '\n')
		case 'r':
			out = append(out, '\r')
		case 't':
			out = append(out, '\t')
		case 'u':
			r, _ := hex4(b[i+1:])
			if 0xD800 <= r && r < 0xE000 {
				r = utf8.RuneError
			}
			out = utf8.AppendRune(out, r)
			i += 4
		default: // '"', '\\', '/'
			out = append(out, b[i])
		}
	}
	return out
}

// scanJSON reads the whole document; any error it returns is ErrSyntax.
func scanJSON(data []byte) (*jsonDoc, error) {
	s := &jsonScanner{data: data}
	d := &jsonDoc{}
	if !s.null() {
		if err := s.object(d); err != nil {
			return nil, err
		}
	}
	if s.peek(); s.pos < len(data) {
		return nil, s.fail("trailing data after JSON document")
	}
	for _, t := range d.tuples {
		if len(t) != 2 {
			return nil, s.fail("an edge is not a [sender, receiver] pair")
		}
	}
	return d, nil
}

// object reads the top-level object into d.
func (s *jsonScanner) object(d *jsonDoc) error {
	if !s.consume('{') {
		return s.fail("expected an object")
	}
	if s.consume('}') {
		return nil
	}
	for {
		k, err := s.key()
		if err != nil {
			return err
		}
		if !s.consume(':') {
			return s.fail("expected ':'")
		}
		switch k {
		case keyChannels:
			d.channels, err = s.intElem(d.channels)
		case keyInputs:
			d.inputs, err = array(s, d.inputs, s.intElem)
		case keyOutputs:
			d.outputs, err = array(s, d.outputs, s.intElem)
		case keyEdges:
			err = s.edges(d)
		}
		if err != nil {
			return err
		}
		if s.consume(',') {
			continue
		}
		if s.consume('}') {
			return nil
		}
		return s.fail("expected ',' or '}'")
	}
}

// intElem reads an integer or null into a slot holding v; null keeps v.
func (s *jsonScanner) intElem(v int) (int, error) {
	if s.null() {
		return v, nil
	}
	n, ok := s.integer()
	if !ok {
		return 0, s.fail("expected an integer")
	}
	return n, nil
}

// array reads a JSON array or null into dst the way encoding/json
// decodes into a slice field that already holds dst: null yields nil;
// an array is decoded over dst element by element, growing it with
// append and, within its capacity, re-exposing the elements a shorter
// earlier decode left behind, then truncated to the array's length.
func array[T any](s *jsonScanner, dst []T, elem func(T) (T, error)) ([]T, error) {
	if s.null() {
		return nil, nil
	}
	if !s.consume('[') {
		return nil, s.fail("expected an array")
	}
	i := 0
	if !s.consume(']') {
		for {
			if i == len(dst) {
				if i < cap(dst) {
					dst = dst[:i+1]
				} else {
					var zero T
					dst = append(dst, zero)
				}
			}
			var err error
			if dst[i], err = elem(dst[i]); err != nil {
				return nil, err
			}
			i++
			if s.consume(',') {
				continue
			}
			if s.consume(']') {
				break
			}
			return nil, s.fail("expected ',' or ']'")
		}
	}
	if i == 0 {
		return dst[:0:0], nil
	}
	return dst[:i], nil
}

// edges reads the "edges" value into d: through the pair fast path when
// the earlier value (if any) left nothing to decode over, else — and
// whenever the fast path declines the array — through the general
// tuples path.
func (s *jsonScanner) edges(d *jsonDoc) error {
	if len(d.pairs) > 0 {
		// A repeated key: turn the pairs into the [][]int encoding/json
		// would hold, built element by element so the capacities match.
		for i := 0; i < len(d.pairs); i += 2 {
			d.tuples = append(d.tuples, []int{int(d.pairs[i]), int(d.pairs[i+1])})
		}
		d.pairs = d.pairs[:0]
	}
	if cap(d.tuples) == 0 {
		start := s.pos
		if s.pairs(d) {
			return nil
		}
		s.pos, d.pairs = start, d.pairs[:0]
	}
	var err error
	d.tuples, err = array(s, d.tuples, func(t []int) ([]int, error) { return array(s, t, s.intElem) })
	return err
}

// pairs reads an array of [sender, receiver] pairs into d.pairs, for
// the ids real graphs use: unsigned integer literals of at most nine
// digits. It reports false, having consumed an unspecified prefix, on
// anything else — a null, a sign, a longer number, a non-pair — which
// the general path then decodes or rejects.
func (s *jsonScanner) pairs(d *jsonDoc) bool {
	b := s.data
	i := skipWS(b, s.pos)
	if i == len(b) || b[i] != '[' {
		return false
	}
	if i = skipWS(b, i+1); i < len(b) && b[i] == ']' {
		s.pos = i + 1
		return true
	}
	if d.pairs == nil {
		// Room for one edge per 12 bytes ("[1234,5678],"), the density of
		// the generated dragonflies; denser input grows by append.
		d.pairs = make([]int32, 0, (len(b)-i)/6)
	}
	var from, to int32
	var ok bool
	for {
		if i == len(b) || b[i] != '[' {
			return false
		}
		from, i, ok = smallID(b, skipWS(b, i+1))
		if i = skipWS(b, i); !ok || i == len(b) || b[i] != ',' {
			return false
		}
		to, i, ok = smallID(b, skipWS(b, i+1))
		if i = skipWS(b, i); !ok || i == len(b) || b[i] != ']' {
			return false
		}
		d.pairs = append(d.pairs, from, to)
		switch i = skipWS(b, i+1); {
		case i == len(b):
			return false
		case b[i] == ',':
			i = skipWS(b, i+1)
		case b[i] == ']':
			s.pos = i + 1
			return true
		default:
			return false
		}
	}
}

// smallID reads an unsigned integer literal of one to nine digits at
// b[i:] and returns it with the index just past it.
func smallID(b []byte, i int) (int32, int, bool) {
	start := i
	var v int32
	for ; i < len(b) && i-start < 10; i++ {
		d := b[i] - '0'
		if d > 9 {
			break
		}
		v = v*10 + int32(d)
	}
	n := i - start
	if n == 0 || n > 9 || (n > 1 && b[start] == '0') {
		return 0, i, false
	}
	if i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E') {
		return 0, i, false
	}
	return v, i, true
}

// ExportJSON renders the canonical JSON variant (sorted sets, edges
// ascending by sender then receiver, one trailing newline). Byte-stable
// like ExportCDG.
func (g *Graph) ExportJSON() []byte {
	n := g.Edges.NumNodes()
	w := idBytes(n)
	b := make([]byte, 0, 64+(len(g.Inputs)+len(g.Outputs))*w+g.Edges.NumEdges()*(2*w+2))
	b = strconv.AppendInt(append(b, `{"channels":`...), int64(n), 10)
	b = appendIDs(append(b, `,"inputs":[`...), g.Inputs, ',')
	b = appendIDs(append(b, `],"outputs":[`...), g.Outputs, ',')
	b = append(b, `],"edges":[`...)
	sep := false
	for v := 0; v < n; v++ {
		for _, to := range g.Edges.Succs(v) {
			if sep {
				b = append(b, ',')
			}
			sep = true
			b = strconv.AppendInt(append(b, '['), int64(v), 10)
			b = strconv.AppendInt(append(b, ','), int64(to), 10)
			b = append(b, ']')
		}
	}
	return append(b, "]}\n"...)
}
