package graphio

import (
	"bytes"
	"strconv"
	"unicode"
	"unicode/utf8"
)

// textScanner is a cursor over constellation text: it hands out lines
// as subslices of the input and lexes their ids into one reused buffer.
type textScanner struct {
	data []byte
	pos  int   // start of the next line
	line int   // 1-based number of the last line handed out
	ids  []int // the last line's ids
}

// next returns the next line without its '\n'. A final '\n' ends the
// last line; it does not open an empty one.
func (s *textScanner) next() ([]byte, bool) {
	if s.pos >= len(s.data) {
		return nil, false
	}
	rest := s.data[s.pos:]
	n := bytes.IndexByte(rest, '\n')
	if n < 0 {
		n = len(rest)
	}
	s.pos += n + 1
	s.line++
	return rest[:n], true
}

// significant returns the next line that is not a comment, skipping
// blank lines too when blankOK.
func (s *textScanner) significant(blankOK bool) ([]byte, bool) {
	for {
		ln, ok := s.next()
		if !ok {
			return nil, false
		}
		i := skipSpace(ln, 0)
		if i < len(ln) && ln[i] == '#' {
			continue
		}
		if i == len(ln) && blankOK {
			continue
		}
		return ln, true
	}
}

// fields lexes the whitespace-separated ids of the current line ln into
// s.ids.
func (s *textScanner) fields(ln []byte) ([]int, error) {
	s.ids = s.ids[:0]
	for i := skipSpace(ln, 0); i < len(ln); i = skipSpace(ln, i) {
		v, n, ok := leadingInt(ln[i:])
		if !ok || (i+n < len(ln) && spaceAt(ln, i+n) == 0) {
			end := i
			for end < len(ln) && spaceAt(ln, end) == 0 {
				end++
			}
			return nil, perr(s.line, ErrSyntax, "%q is not a channel id", ln[i:end])
		}
		s.ids = append(s.ids, v)
		i += n
	}
	return s.ids, nil
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// spaceAt returns the width of the whitespace rune (unicode.IsSpace)
// starting at b[i], or 0 when there is none.
func spaceAt(b []byte, i int) int {
	if c := b[i]; c < utf8.RuneSelf {
		if asciiSpace[c] {
			return 1
		}
		return 0
	}
	r, w := utf8.DecodeRune(b[i:])
	if unicode.IsSpace(r) {
		return w
	}
	return 0
}

// skipSpace returns the index of the first non-space byte at or after i.
func skipSpace(b []byte, i int) int {
	for i < len(b) {
		if c := b[i]; c < utf8.RuneSelf {
			if !asciiSpace[c] {
				break
			}
			i++
		} else if w := spaceAt(b, i); w > 0 {
			i += w
		} else {
			break
		}
	}
	return i
}

// ParseCDG parses the constellation text format.
func ParseCDG(data []byte) (*Graph, error) { return Limits{}.ParseCDG(data) }

// ParseCDG is the package ParseCDG under the limits l: the channel count
// is checked as soon as it is read, and edge collection stops once it
// passes the edge limit.
//
//ebda:hotpath
func (l Limits) ParseCDG(data []byte) (*Graph, error) {
	s := textScanner{data: data}
	ln, ok := s.significant(true)
	if !ok {
		return nil, perr(s.line, ErrMissingSection, "channel count line missing")
	}
	ids, err := s.fields(ln)
	if err != nil || len(ids) != 1 || ids[0] < 0 || ids[0] > MaxChannels {
		return nil, perr(s.line, ErrChannelCount, "%q is not a count in [0, %d]", bytes.TrimSpace(ln), MaxChannels)
	}
	channels := ids[0]
	if err := l.checkChannels(s.line, channels); err != nil {
		return nil, err
	}
	g := &Graph{}

	// The input and output lines directly follow the count; a blank line
	// here means the empty set.
	for _, sec := range []struct {
		what string
		dst  *[]int
	}{{"input", &g.Inputs}, {"output", &g.Outputs}} {
		ln, ok := s.significant(false)
		if !ok {
			return nil, perr(s.line, ErrMissingSection, "%s ids line missing", sec.what)
		}
		ids, err := s.fields(ln)
		if err != nil {
			return nil, err
		}
		if *sec.dst, err = canonIDs(s.line, sec.what, ids, channels); err != nil {
			return nil, err
		}
	}

	// Room for one edge per space: every receiver follows one in the
	// canonical export; other separators grow the buffer by append.
	room := 2 * bytes.Count(data[min(s.pos, len(data)):], []byte{' '})
	if l.Edges > 0 {
		room = min(room, 2*(l.Edges+1))
	}
	b := edgeBuf{channels: channels, pairs: make([]int32, 0, room)}
	edges := s // the scanner at the first edge line, for lineOf
	for b.err == nil {
		ln, ok := s.significant(true)
		if !ok {
			break
		}
		ids, err := s.fields(ln)
		switch {
		case err != nil:
			b.err = err
		case len(ids) < 2:
			b.err = perr(s.line, ErrSyntax, "edge line needs a sender and at least one receiver")
		default:
			for _, to := range ids[1:] {
				if !b.add(s.line, ids[0], to) {
					break
				}
			}
			if b.err == nil && l.edgesOver(len(b.pairs)/2) {
				b.err = l.edgeErr(s.line)
			}
		}
	}
	// lineOf finds the line of the i-th collected edge by scanning the
	// edge lines again; only a duplicate edge's error needs it.
	lineOf := func(i int) int {
		for {
			ln, _ := edges.significant(true)
			ids, _ := edges.fields(ln)
			if i < len(ids)-1 {
				return edges.line
			}
			i -= len(ids) - 1
		}
	}
	if g.Edges, err = b.build(lineOf); err != nil {
		return nil, err
	}
	return g, nil
}

// ExportCDG renders the graph in the canonical constellation text form:
// count line, ascending input ids, ascending output ids, then one edge
// line per sender with successors, ascending, receivers ascending. The
// output is byte-stable: equal graphs export equal bytes.
func (g *Graph) ExportCDG() []byte {
	n := g.Edges.NumNodes()
	senders := 0
	for v := 0; v < n; v++ {
		if len(g.Edges.Succs(v)) > 0 {
			senders++
		}
	}
	b := make([]byte, 0, (3+len(g.Inputs)+len(g.Outputs)+senders+g.Edges.NumEdges())*idBytes(n))
	b = append(strconv.AppendInt(b, int64(n), 10), '\n')
	b = append(appendIDs(b, g.Inputs, ' '), '\n')
	b = append(appendIDs(b, g.Outputs, ' '), '\n')
	for v := 0; v < n; v++ {
		succs := g.Edges.Succs(v)
		if len(succs) == 0 {
			continue
		}
		b = strconv.AppendInt(b, int64(v), 10)
		for _, s := range succs {
			b = strconv.AppendInt(append(b, ' '), int64(s), 10)
		}
		b = append(b, '\n')
	}
	return b
}
