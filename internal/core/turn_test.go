package core

import (
	"math/rand"
	"testing"

	"ebda/internal/channel"
)

// randomTurnSet draws a turn set over a small class pool, mixing explicit
// turns with declare-only classes and parity-restricted classes.
func randomTurnSet(r *rand.Rand) *TurnSet {
	pool := channel.MustParseList("X1+ X1- X2+ Y1+ Y1- Y2-")
	pool = append(pool,
		channel.NewParity(channel.Y, channel.Plus, channel.X, channel.Odd),
		channel.NewParity(channel.Y, channel.Plus, channel.X, channel.Even),
	)
	ts := NewTurnSet()
	for _, c := range pool {
		if r.Intn(2) == 0 {
			ts.Declare(c)
		}
	}
	for i := 0; i < 12; i++ {
		from := pool[r.Intn(len(pool))]
		to := pool[r.Intn(len(pool))]
		if from != to {
			ts.Add(from, to, Theorem(1+r.Intn(3)))
		}
	}
	return ts
}

func TestMatrixMatchesAllows(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		ts := randomTurnSet(r)
		m := ts.Matrix()
		classes := m.Classes()
		if len(classes) != m.NumClasses() {
			t.Fatalf("NumClasses = %d, want %d", m.NumClasses(), len(classes))
		}
		for i, from := range classes {
			if idx, ok := m.Index(from); !ok || idx != i {
				t.Fatalf("Index(%s) = %d,%v, want %d", from, idx, ok, i)
			}
			for j, to := range classes {
				if m.Allows(i, j) != ts.Allows(from, to) {
					t.Fatalf("trial %d: matrix.Allows(%s, %s) = %v, turn set says %v",
						trial, from, to, m.Allows(i, j), ts.Allows(from, to))
				}
			}
		}
	}
}

func TestMatrixContinuationAndUnknown(t *testing.T) {
	ts := NewTurnSet()
	e := channel.New(channel.X, channel.Plus)
	n := channel.New(channel.Y, channel.Plus)
	ts.Declare(e)
	ts.Add(e, n, ByTheorem1)
	m := ts.Matrix()
	ei, _ := m.Index(e)
	ni, _ := m.Index(n)
	if !m.Allows(ei, ei) {
		t.Error("declared class must allow same-class continuation")
	}
	if !m.Allows(ei, ni) || m.Allows(ni, ei) {
		t.Error("explicit turn direction lost")
	}
	if _, ok := m.Index(channel.New(channel.X, channel.Minus)); ok {
		t.Error("unknown class must not resolve")
	}
	// Row exposes the same relation as a bitset per source class.
	if m.Words() != 1 || m.Row(ei)[0] != 1<<uint(ei)|1<<uint(ni) || m.Row(ni)[0] != 1<<uint(ni) {
		t.Errorf("rows = %b, %b; want the continuation bits plus E->N", m.Row(ei), m.Row(ni))
	}
	// AllowsAny is the pairwise any-match over index sets.
	if !m.AllowsAny([]int32{int32(ei)}, []int32{int32(ni)}) {
		t.Error("AllowsAny must see the explicit turn")
	}
	if m.AllowsAny([]int32{int32(ni)}, []int32{int32(ei)}) {
		t.Error("AllowsAny must not invent turns")
	}
	if m.AllowsAny(nil, []int32{int32(ni)}) || m.AllowsAny([]int32{int32(ei)}, nil) {
		t.Error("empty sides must yield false")
	}
	// The matrix is a snapshot: later Adds are invisible.
	ts.Add(n, e, ByTheorem1)
	if m.Allows(ni, ei) {
		t.Error("matrix must be a snapshot, not a live view")
	}
}
