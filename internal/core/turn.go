// Package core implements the EbDa theory: partitions of channel classes,
// the three theorems governing when a partition (and a chain of partitions)
// is cycle-free, and the extraction of the full allowable turn set from a
// partition chain.
//
// The theory operates on abstract channel classes (see internal/channel).
// Designs produced here are independently verifiable on concrete networks
// through internal/cdg, which builds the induced channel dependency graph
// and checks it for cycles — the Dally condition.
package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"ebda/internal/channel"
)

// TurnKind classifies a transition between two channels by the angle
// between them, following the paper's Definitions 4 and 5.
type TurnKind int

// The three turn kinds.
const (
	// Turn90 is a transition between channels of different dimensions
	// (a 90-degree turn).
	Turn90 TurnKind = iota
	// UTurn is a transition between opposite directions of the same
	// dimension (a 180-degree turn), possibly with different VC numbers.
	UTurn
	// ITurn is a transition between channels of the same dimension and
	// direction but different VC numbers or parity classes (a 0-degree
	// turn).
	ITurn
)

// String returns "90", "U" or "I".
func (k TurnKind) String() string {
	switch k {
	case Turn90:
		return "90"
	case UTurn:
		return "U"
	case ITurn:
		return "I"
	default:
		return fmt.Sprintf("TurnKind(%d)", int(k))
	}
}

// Theorem identifies which of the paper's three theorems admits a turn.
type Theorem int

// The theorem labels used when annotating extracted turns.
const (
	// ByTheorem1 marks 90-degree turns formed inside a partition.
	ByTheorem1 Theorem = 1
	// ByTheorem2 marks U- and I-turns formed inside a partition under
	// the ascending-order rule.
	ByTheorem2 Theorem = 2
	// ByTheorem3 marks turns formed by transitions between partitions.
	ByTheorem3 Theorem = 3
)

// String returns "T1", "T2" or "T3".
func (t Theorem) String() string { return fmt.Sprintf("T%d", int(t)) }

// Turn is a permitted transition from one channel class to another.
type Turn struct {
	From, To channel.Class
	// Source records which theorem admitted the turn.
	Source Theorem
}

// Kind classifies the turn by the relation between its endpoints.
func (t Turn) Kind() TurnKind { return KindOf(t.From, t.To) }

// KindOf classifies the transition from one class to another.
func KindOf(from, to channel.Class) TurnKind {
	if from.Dim != to.Dim {
		return Turn90
	}
	if from.Sign != to.Sign {
		return UTurn
	}
	return ITurn
}

// String renders the turn in the figure notation of the paper, e.g. "E1N2"
// for VC-numbered channels or "WS" in plain 2D settings.
func (t Turn) String() string { return t.From.Short() + t.To.Short() }

// PlainString renders the turn using ShortPlain endpoint notation ("WS",
// "N1W1" only when VCs matter).
func (t Turn) PlainString() string { return t.From.ShortPlain() + t.To.ShortPlain() }

// TurnSet is the set of permitted transitions of a design, keyed by the
// (from, to) class pair, together with the set of channel classes the
// design declares (a class may be declared without participating in any
// turn, e.g. the only channel of a single-partition design). It is the
// object the paper's figures and tables enumerate, and the input from
// which routing algorithms and channel dependency graphs are built.
//
// Continuing along the same channel class (taking the class's next
// concrete channel without turning) is always permitted for declared
// classes — Definition 2's "arbitrarily and repeatedly" — and Allows
// reflects that.
type TurnSet struct {
	turns    map[[2]channel.Class]Theorem
	declared map[channel.Class]bool

	// mu guards matrix, the memoized allow-matrix. Mutations (Add,
	// Declare) invalidate it; Matrix rebuilds on demand. The maps above
	// are not guarded: TurnSet construction is single-goroutine, and only
	// the built set (and its immutable matrix) is shared across workers.
	mu     sync.Mutex
	matrix *AllowMatrix
}

// NewTurnSet returns an empty turn set.
func NewTurnSet() *TurnSet {
	return &TurnSet{
		turns:    make(map[[2]channel.Class]Theorem),
		declared: make(map[channel.Class]bool),
	}
}

// Add inserts a turn and declares both endpoint classes. If the turn is
// already present, the earliest theorem label is kept (a turn admitted by
// Theorem 1 stays labelled T1 even if a later transition would also
// produce it).
func (s *TurnSet) Add(from, to channel.Class, src Theorem) {
	s.invalidate()
	s.declared[from] = true
	s.declared[to] = true
	key := [2]channel.Class{from, to}
	if old, ok := s.turns[key]; ok && old <= src {
		return
	}
	s.turns[key] = src
}

// invalidate drops the memoized allow-matrix after a mutation.
func (s *TurnSet) invalidate() {
	s.mu.Lock()
	s.matrix = nil
	s.mu.Unlock()
}

// Declare registers a channel class as part of the design without adding
// any turn. Declared classes permit same-class continuation.
func (s *TurnSet) Declare(cls channel.Class) {
	s.invalidate()
	s.declared[cls] = true
}

// Declared reports whether a class is part of the design.
func (s *TurnSet) Declared(cls channel.Class) bool { return s.declared[cls] }

// Allows reports whether the transition from one class to another is
// permitted: either an explicit turn, or same-class continuation of a
// declared class.
func (s *TurnSet) Allows(from, to channel.Class) bool {
	if from == to {
		return s.declared[from]
	}
	_, ok := s.turns[[2]channel.Class{from, to}]
	return ok
}

// Contains reports whether the exact turn (including its theorem label) is
// present.
func (s *TurnSet) Contains(t Turn) bool {
	src, ok := s.turns[[2]channel.Class{t.From, t.To}]
	return ok && src == t.Source
}

// Len returns the number of turns in the set.
func (s *TurnSet) Len() int { return len(s.turns) }

// Turns returns all turns sorted by (From, To) class order.
func (s *TurnSet) Turns() []Turn {
	out := make([]Turn, 0, len(s.turns))
	for key, src := range s.turns {
		out = append(out, Turn{From: key[0], To: key[1], Source: src})
	}
	sort.Slice(out, func(i, j int) bool {
		if c := out[i].From.Compare(out[j].From); c != 0 {
			return c < 0
		}
		return out[i].To.Compare(out[j].To) < 0
	})
	return out
}

// ByKind returns the turns of one kind, sorted.
func (s *TurnSet) ByKind(k TurnKind) []Turn {
	var out []Turn
	for _, t := range s.Turns() {
		if t.Kind() == k {
			out = append(out, t)
		}
	}
	return out
}

// BySource returns the turns admitted by one theorem, sorted.
func (s *TurnSet) BySource(src Theorem) []Turn {
	var out []Turn
	for _, t := range s.Turns() {
		if t.Source == src {
			out = append(out, t)
		}
	}
	return out
}

// Counts returns the number of 90-degree, U- and I-turns in the set.
func (s *TurnSet) Counts() (n90, nU, nI int) {
	for key := range s.turns {
		switch KindOf(key[0], key[1]) {
		case Turn90:
			n90++
		case UTurn:
			nU++
		case ITurn:
			nI++
		}
	}
	return
}

// Classes returns every declared channel class (which includes every turn
// endpoint), sorted.
func (s *TurnSet) Classes() []channel.Class {
	out := make([]channel.Class, 0, len(s.declared))
	for c := range s.declared {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// AllowMatrix is an immutable dense snapshot of a turn set's transition
// relation over interned class indices. Hot loops (channel-dependency
// extraction, path counting) use it in place of TurnSet.Allows to avoid
// hashing struct keys per query: classes are interned once, then every
// Allows test is one bit probe.
//
// The matrix reflects the turn set at the time Matrix was called; turns
// added later are not visible.
type AllowMatrix struct {
	classes []channel.Class
	index   map[channel.Class]int32
	words   int
	// rows[i*words : (i+1)*words] is the bitset of classes reachable
	// from class i.
	rows []uint64
}

// Matrix returns the dense allow-matrix of the set's current state. Class
// indices follow Classes() order (sorted), and same-class continuation of
// declared classes is included, matching Allows. The matrix is memoized:
// repeated calls between mutations return the same immutable snapshot, so
// hot verification loops pay the dense build once per turn set.
//
//ebda:hotpath
func (s *TurnSet) Matrix() *AllowMatrix {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.matrix == nil {
		s.matrix = s.buildMatrix()
	}
	return s.matrix
}

// buildMatrix constructs a fresh dense snapshot; callers hold s.mu.
func (s *TurnSet) buildMatrix() *AllowMatrix {
	classes := s.Classes()
	m := &AllowMatrix{
		classes: classes,
		index:   make(map[channel.Class]int32, len(classes)),
		words:   (len(classes) + 63) / 64,
	}
	m.rows = make([]uint64, len(classes)*m.words)
	for i, c := range classes {
		m.index[c] = int32(i)
	}
	for i, from := range classes {
		row := m.rows[i*m.words : (i+1)*m.words]
		for j, to := range classes {
			if s.Allows(from, to) {
				row[j/64] |= 1 << uint(j%64)
			}
		}
	}
	return m
}

// NumClasses returns the number of interned classes.
func (m *AllowMatrix) NumClasses() int { return len(m.classes) }

// Classes returns the interned classes in index order. The slice must not
// be modified.
func (m *AllowMatrix) Classes() []channel.Class { return m.classes }

// Index returns the interned index of a class, or false if the class was
// not part of the set when the matrix was built.
func (m *AllowMatrix) Index(c channel.Class) (int, bool) {
	i, ok := m.index[c]
	return int(i), ok
}

// Words returns the number of 64-bit words in one Row bitset.
func (m *AllowMatrix) Words() int { return m.words }

// Row returns the bitset of classes reachable from class index i, Words()
// words long. The slice must not be modified.
func (m *AllowMatrix) Row(i int) []uint64 { return m.rows[i*m.words : (i+1)*m.words] }

// Allows reports whether the transition from class index from to class
// index to is permitted.
func (m *AllowMatrix) Allows(from, to int) bool {
	return m.rows[from*m.words+to/64]&(1<<uint(to%64)) != 0
}

// AllowsAny reports whether any (from, to) pair across the two index sets
// is permitted.
func (m *AllowMatrix) AllowsAny(from, to []int32) bool {
	for _, a := range from {
		row := m.rows[int(a)*m.words:]
		for _, b := range to {
			if row[b/64]&(1<<uint(b%64)) != 0 {
				return true
			}
		}
	}
	return false
}

// Clone returns a deep copy of the set: same turns (with labels) and the
// same declared classes. The memoized matrix is not shared; the clone
// builds its own on first use. Delta verification clones the base relation
// before toggling turns so the base set stays untouched.
func (s *TurnSet) Clone() *TurnSet {
	c := NewTurnSet()
	for key, src := range s.turns {
		c.turns[key] = src
	}
	for cls := range s.declared {
		c.declared[cls] = true
	}
	return c
}

// Remove deletes the turn from one class to another and reports whether it
// was present. Both endpoint classes stay declared — removing a turn
// narrows the transition relation without shrinking the design's channel
// class set, which keeps interned class tables (and the VC configuration
// they imply) stable across turn-toggle deltas.
func (s *TurnSet) Remove(from, to channel.Class) bool {
	key := [2]channel.Class{from, to}
	if _, ok := s.turns[key]; !ok {
		return false
	}
	s.invalidate()
	delete(s.turns, key)
	return true
}

// Union returns a new set containing the turns and declared classes of
// both sets.
func (s *TurnSet) Union(o *TurnSet) *TurnSet {
	u := NewTurnSet()
	for key, src := range s.turns {
		u.Add(key[0], key[1], src)
	}
	for key, src := range o.turns {
		u.Add(key[0], key[1], src)
	}
	for c := range s.declared {
		u.Declare(c)
	}
	for c := range o.declared {
		u.Declare(c)
	}
	return u
}

// Equal reports whether two sets permit exactly the same transitions
// (theorem labels are ignored).
func (s *TurnSet) Equal(o *TurnSet) bool {
	if len(s.turns) != len(o.turns) {
		return false
	}
	for key := range s.turns {
		if _, ok := o.turns[key]; !ok {
			return false
		}
	}
	return true
}

// Subset reports whether every turn in s is also in o.
func (s *TurnSet) Subset(o *TurnSet) bool {
	for key := range s.turns {
		if _, ok := o.turns[key]; !ok {
			return false
		}
	}
	return true
}

// Fingerprint returns two independent 64-bit digests of the transition
// relation: the declared classes plus every (from, to) turn pair. Theorem
// labels are excluded — verification depends only on Allows — so two sets
// that are Equal with the same declarations always share a fingerprint,
// even when built by different derivations. Per-element digests combine by
// addition, which is commutative, so map iteration order cannot change the
// result. Verification caches key on the first digest and store the second
// as a collision check.
func (s *TurnSet) Fingerprint() (uint64, uint64) {
	const (
		declSeedA = 0x9e3779b97f4a7c15
		declSeedB = 0xc2b2ae3d27d4eb4f
		turnSeedA = 0xd6e8feb86659fd93
		turnSeedB = 0xa0761d6478bd642f
	)
	var h1, h2 uint64
	for c := range s.declared {
		e := classCode(c)
		h1 += mix64(e ^ declSeedA)
		h2 += mix64(e ^ declSeedB)
	}
	for key := range s.turns {
		// The pair combination is ordered (from*prime ^ to), so the turn
		// a->b and its reverse b->a digest differently.
		e := classCode(key[0])*0x100000001b3 ^ classCode(key[1])
		h1 += mix64(e ^ turnSeedA)
		h2 += mix64(e ^ turnSeedB)
	}
	return h1, h2
}

// classCode packs a channel class into a uint64 for fingerprinting.
func classCode(c channel.Class) uint64 {
	e := uint64(uint32(int32(c.Dim)))
	e = e*1000003 + uint64(uint32(int32(c.Sign)))
	e = e*1000003 + uint64(uint32(int32(c.VC)))
	e = e*1000003 + uint64(uint32(int32(c.PDim)))
	e = e*1000003 + uint64(uint32(int32(c.Par)))
	return e
}

// mix64 is the splitmix64 finalizer: a fast, well-distributed bijection
// used to decorrelate the additive fingerprint terms.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// String renders the set grouped by kind, in Short notation, e.g.
// "90: E1N1 N1E1 | U: U1D1 | I: E1E2".
func (s *TurnSet) String() string {
	var b strings.Builder
	for i, k := range []TurnKind{Turn90, UTurn, ITurn} {
		ts := s.ByKind(k)
		if len(ts) == 0 {
			continue
		}
		if i > 0 && b.Len() > 0 {
			b.WriteString(" | ")
		}
		fmt.Fprintf(&b, "%s:", k)
		for _, t := range ts {
			b.WriteByte(' ')
			b.WriteString(t.String())
		}
	}
	return b.String()
}

// FormatTurns renders a list of turns as space-separated Short notation.
func FormatTurns(ts []Turn) string {
	parts := make([]string, len(ts))
	for i, t := range ts {
		parts[i] = t.String()
	}
	return strings.Join(parts, " ")
}

// FormatTurnsPlain renders a list of turns as space-separated ShortPlain
// notation ("WS SE ES SW").
func FormatTurnsPlain(ts []Turn) string {
	parts := make([]string, len(ts))
	for i, t := range ts {
		parts[i] = t.PlainString()
	}
	return strings.Join(parts, " ")
}

// ParseTurnList parses turns given as "from>to" pairs separated by spaces or
// commas, where each endpoint uses the channel.Parse notation, e.g.
// "X+>Y+, Y1->X2+". It is used by the verification CLI.
func ParseTurnList(s string) ([]Turn, error) {
	fields := strings.FieldsFunc(s, func(r rune) bool { return r == ' ' || r == ',' })
	out := make([]Turn, 0, len(fields))
	for _, f := range fields {
		parts := strings.Split(f, ">")
		if len(parts) != 2 {
			return nil, fmt.Errorf("core: malformed turn %q (want from>to)", f)
		}
		from, err := channel.Parse(parts[0])
		if err != nil {
			return nil, err
		}
		to, err := channel.Parse(parts[1])
		if err != nil {
			return nil, err
		}
		out = append(out, Turn{From: from, To: to})
	}
	return out, nil
}
