package graphio

import (
	"bytes"
	"strconv"
	"unicode/utf16"
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
// syntax half of ParseJSON, for wire types that unmarshal a graph and
// validate it later. Every error wraps ErrSyntax.
func DecodeJSON(data []byte) (Spec, error) {
	d, err := scanJSON(data)
	if err != nil {
		return Spec{}, err
	}
	sp := Spec{Channels: d.channels, Inputs: d.inputs, Outputs: d.outputs}
	for i := 0; i < len(d.pairs); i += 2 {
		sp.Edges = append(sp.Edges, [2]int{int(d.pairs[i]), int(d.pairs[i+1])})
	}
	for _, t := range d.tuples {
		sp.Edges = append(sp.Edges, [2]int{t[0], t[1]})
	}
	return sp, nil
}

// ParseJSON parses the canonical JSON variant; the package comment gives
// the accepted grammar and the error precedence.
func ParseJSON(data []byte) (*Graph, error) {
	d, err := scanJSON(data)
	if err != nil {
		return nil, err
	}
	return d.Build(Limits{})
}

// JSONDoc is a scanned JSON graph: syntactically valid, nothing checked
// yet against its channel count. The edges live in pairs while every
// "edges" array decoded so far was a fresh list of exact pairs of small
// ids, the common case; otherwise in tuples, shaped the way
// encoding/json leaves a [][]int so that repeated keys decode over it
// the same way. At most one of the two is non-empty.
type JSONDoc struct {
	channels        int
	inputs, outputs []int
	pairs           []int32 // sender, receiver, sender, receiver, ...
	tuples          [][]int
}

// Build validates the document into a Graph under the limits l, with
// ParseJSON's error precedence after syntax: the channel count, its
// limit, the input set, the output set, the edge limit, then the first
// bad edge in document order. The pair buffer goes to
// cdg.BuildEdgeSet as it is.
//
//ebda:hotpath
func (d *JSONDoc) Build(l Limits) (*Graph, error) {
	g, err := newGraph(l, d.channels, d.inputs, d.outputs)
	if err != nil {
		return nil, err
	}
	if l.edgesOver(len(d.pairs)/2 + len(d.tuples)) {
		return nil, l.edgeErr(0)
	}
	b := edgeBuf{channels: d.channels, pairs: d.pairs}
	// Pair ids are unsigned, so only the upper bound can fail.
	for i := 0; i < len(b.pairs); i += 2 {
		if int(b.pairs[i]) >= b.channels || int(b.pairs[i+1]) >= b.channels {
			b.err = rangeErr(0, int(b.pairs[i]), int(b.pairs[i+1]), b.channels)
			b.pairs = b.pairs[:i]
			break
		}
	}
	if len(d.tuples) > 0 {
		b.pairs = make([]int32, 0, 2*len(d.tuples))
		for _, t := range d.tuples {
			if !b.add(0, t[0], t[1]) {
				break
			}
		}
	}
	if g.Edges, err = b.build(nil); err != nil {
		return nil, err
	}
	return g, nil
}

// Scanner reads JSON with the grammar the graph decoder uses, for
// decoders of documents that embed a graph — a request envelope around
// a "graph" value — so that the graph is scanned once, straight into
// its pair buffer. Values decode the way encoding/json decodes them
// into Go values of the matching type; every error wraps ErrSyntax.
type Scanner struct {
	data []byte
	pos  int
}

// NewScanner returns a scanner at the start of data.
func NewScanner(data []byte) *Scanner { return &Scanner{data: data} }

func (s *Scanner) fail(what string) error {
	return perr(0, ErrSyntax, "offset %d: %s", s.pos, what)
}

// peek skips JSON whitespace and returns the next byte, or 0 at the end
// of the input (a literal NUL is no more valid there than the end).
func (s *Scanner) peek() byte {
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
func (s *Scanner) consume(c byte) bool {
	if s.peek() != c {
		return false
	}
	s.pos++
	return true
}

// End checks that only whitespace is left.
func (s *Scanner) End() error {
	if s.peek(); s.pos < len(s.data) {
		return s.fail("trailing data after JSON document")
	}
	return nil
}

// Null skips whitespace and then a null literal, reporting whether one
// was next.
func (s *Scanner) Null() bool {
	if s.peek() != 'n' || !bytes.HasPrefix(s.data[s.pos:], []byte("null")) {
		return false
	}
	s.pos += 4
	return true
}

// integer skips whitespace and reads an integer literal. A number with a
// fraction or exponent, a leading zero or an overflow is not one.
func (s *Scanner) integer() (int, bool) {
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

// The graph document's keys, in the order jsonKeys lists them.
const (
	keyChannels = iota
	keyInputs
	keyOutputs
	keyEdges
)

var jsonKeys = [][]byte{[]byte("channels"), []byte("inputs"), []byte("outputs"), []byte("edges")}

// String reads a JSON string and returns its value as encoding/json
// decodes it into a string: escapes resolved, a valid surrogate pair
// combined, a lone surrogate or an invalid UTF-8 byte replaced by
// U+FFFD. A string with no escape and valid UTF-8 is returned as a
// subslice of the input; any other is decoded once into a new buffer.
//
//ebda:hotpath
func (s *Scanner) String() ([]byte, error) {
	if s.peek() != '"' {
		return nil, s.fail("expected a string")
	}
	s.pos++
	start, escaped := s.pos, false
	for {
		if s.pos >= len(s.data) {
			return nil, s.fail("unterminated string")
		}
		c := s.data[s.pos]
		if c == '"' {
			break
		}
		if c < 0x20 {
			return nil, s.fail("control character in string")
		}
		s.pos++
		if c != '\\' {
			continue
		}
		escaped = true
		if s.pos >= len(s.data) {
			return nil, s.fail("unterminated string")
		}
		switch s.data[s.pos] {
		case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			s.pos++
		case 'u':
			if _, ok := hex4(s.data[s.pos+1:]); !ok {
				return nil, s.fail("bad \\u escape")
			}
			s.pos += 5
		default:
			return nil, s.fail("bad escape")
		}
	}
	raw := s.data[start:s.pos]
	s.pos++
	if !escaped && utf8.Valid(raw) {
		return raw, nil
	}
	return unquote(raw), nil
}

// key reads an object key and returns its index in keys.
func (s *Scanner) key(keys [][]byte) (int, error) {
	if s.peek() != '"' {
		return 0, s.fail("expected a string key")
	}
	name, err := s.String()
	if err != nil {
		return 0, err
	}
	for i, k := range keys {
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

// unquote decodes the body of a validated string the way encoding/json
// does.
func unquote(b []byte) []byte {
	out := make([]byte, 0, len(b)+utf8.UTFMax)
	for i := 0; i < len(b); {
		c := b[i]
		switch {
		case c == '\\':
			i++
			switch c = b[i]; c {
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
			case 'u':
				r, _ := hex4(b[i+1:])
				i += 5
				if utf16.IsSurrogate(r) {
					r2 := rune(-1)
					if i+1 < len(b) && b[i] == '\\' && b[i+1] == 'u' {
						r2, _ = hex4(b[i+2:])
					}
					if r = utf16.DecodeRune(r, r2); r != utf8.RuneError {
						i += 6
					}
				}
				out = utf8.AppendRune(out, r)
				continue
			}
			out = append(out, c) // and '"', '\\', '/' as they are
			i++
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, w := utf8.DecodeRune(b[i:])
			out = utf8.AppendRune(out, r)
			i += w
		}
	}
	return out
}

// scanJSON reads a whole graph document, an object or a bare null; any
// error it returns is ErrSyntax.
func scanJSON(data []byte) (*JSONDoc, error) {
	s := Scanner{data: data}
	d := &JSONDoc{}
	if !s.Null() {
		var err error
		if d, err = s.Graph(); err != nil {
			return nil, err
		}
	}
	if err := s.End(); err != nil {
		return nil, err
	}
	return d, nil
}

// Object reads a JSON object whose keys must each match one of keys,
// case-insensitively after unescaping as encoding/json matches field
// names. For every member it calls field with the key's index, the
// scanner standing before the value, which field must consume.
func (s *Scanner) Object(keys [][]byte, field func(k int) error) error {
	if !s.consume('{') {
		return s.fail("expected an object")
	}
	if s.consume('}') {
		return nil
	}
	for {
		k, err := s.key(keys)
		if err != nil {
			return err
		}
		if !s.consume(':') {
			return s.fail("expected ':'")
		}
		if err := field(k); err != nil {
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

// Graph reads a graph object — not null, which an embedding decoder
// gives its own meaning — with the package comment's grammar.
func (s *Scanner) Graph() (*JSONDoc, error) {
	d := &JSONDoc{}
	err := s.Object(jsonKeys, func(k int) (err error) {
		switch k {
		case keyChannels:
			d.channels, err = s.intElem(d.channels)
		case keyInputs:
			d.inputs, err = s.Ints(d.inputs)
		case keyOutputs:
			d.outputs, err = s.Ints(d.outputs)
		case keyEdges:
			err = s.edges(d)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, t := range d.tuples {
		if len(t) != 2 {
			return nil, s.fail("an edge is not a [sender, receiver] pair")
		}
	}
	return d, nil
}

// intElem reads an integer or null into a slot holding v; null keeps v.
func (s *Scanner) intElem(v int) (int, error) {
	if s.Null() {
		return v, nil
	}
	n, ok := s.integer()
	if !ok {
		return 0, s.fail("expected an integer")
	}
	return n, nil
}

// Ints reads an array of integers or null into dst, as encoding/json
// decodes into an []int field that already holds dst (see array).
func (s *Scanner) Ints(dst []int) ([]int, error) { return array(s, dst, s.intElem) }

// array reads a JSON array or null into dst the way encoding/json
// decodes into a slice field that already holds dst: null yields nil;
// an array is decoded over dst element by element, growing it with
// append and, within its capacity, re-exposing the elements a shorter
// earlier decode left behind, then truncated to the array's length.
func array[T any](s *Scanner, dst []T, elem func(T) (T, error)) ([]T, error) {
	if s.Null() {
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
func (s *Scanner) edges(d *JSONDoc) error {
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
	d.tuples, err = array(s, d.tuples, s.Ints)
	return err
}

// pairs reads an array of [sender, receiver] pairs into d.pairs, for
// the ids real graphs use: unsigned integer literals of at most nine
// digits. It reports false, having consumed an unspecified prefix, on
// anything else — a null, a sign, a longer number, a non-pair — which
// the general path then decodes or rejects.
//
//ebda:hotpath
func (s *Scanner) pairs(d *JSONDoc) bool {
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
//
//ebda:hotpath
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
