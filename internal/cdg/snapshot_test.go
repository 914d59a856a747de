package cdg

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"sync"
	"testing"

	"ebda/internal/topology"
)

// snapshotCache builds a cache holding both acyclic and cyclic verdicts
// (cyclic entries carry Cycle witnesses, exercising the full report
// codec) and returns it with the design list used to populate it.
func snapshotCache(t testing.TB) (*VerifyCache, []*topology.Network) {
	t.Helper()
	c := &VerifyCache{}
	nets := []*topology.Network{
		topology.NewMesh(4, 4),
		topology.NewMesh(3, 5),
		topology.NewTorus(4, 4),
		topology.NewPartialMesh3D(3, 3, 2, [][2]int{{0, 0}}),
	}
	for _, net := range nets {
		c.VerifyTurnSetJobs(net, nil, xyTurnSet(), 1)
		c.VerifyTurnSetJobs(net, nil, allTurnSet(), 1)
	}
	return c, nets
}

func TestSnapshotRoundTrip(t *testing.T) {
	src, nets := snapshotCache(t)
	var buf bytes.Buffer
	saved, err := src.SaveSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if want := src.Stats().Entries; saved != want {
		t.Fatalf("saved %d entries, cache holds %d", saved, want)
	}

	dst := &VerifyCache{}
	loaded, err := dst.LoadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded != saved {
		t.Fatalf("loaded %d entries, saved %d", loaded, saved)
	}

	// Every lookup through the warm-started cache must be bit-identical
	// to the source.
	for _, net := range nets {
		for _, mk := range []int{0, 1} {
			ts := xyTurnSet()
			if mk == 1 {
				ts = allTurnSet()
			}
			want, ok := src.Lookup(VerifyKey(net, nil, ts))
			if !ok {
				t.Fatalf("%s: source cache lost an entry", net.Name())
			}
			got, ok := dst.Lookup(VerifyKey(net, nil, ts))
			if !ok {
				t.Fatalf("%s: warm-started cache misses", net.Name())
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s: report diverged after round-trip:\n%+v\nvs\n%+v", net.Name(), want, got)
			}
		}
	}
}

func TestSnapshotDeterministicBytes(t *testing.T) {
	// Equal cache contents must produce byte-equal snapshots regardless
	// of map iteration order: entries are sorted by key on save.
	c, _ := snapshotCache(t)
	var a, b bytes.Buffer
	if _, err := c.SaveSnapshot(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SaveSnapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two saves of one cache produced different bytes")
	}
}

func TestSnapshotEmptyCache(t *testing.T) {
	c := &VerifyCache{}
	var buf bytes.Buffer
	if n, err := c.SaveSnapshot(&buf); err != nil || n != 0 {
		t.Fatalf("empty save = (%d, %v)", n, err)
	}
	d := &VerifyCache{}
	if n, err := d.LoadSnapshot(bytes.NewReader(buf.Bytes())); err != nil || n != 0 {
		t.Fatalf("empty load = (%d, %v)", n, err)
	}
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	c, _ := snapshotCache(t)
	var buf bytes.Buffer
	if _, err := c.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[0] ^= 0xff
		d := &VerifyCache{}
		if _, err := d.LoadSnapshot(bytes.NewReader(bad)); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("err = %v, want ErrSnapshotCorrupt", err)
		}
		if d.Stats().Entries != 0 {
			t.Fatal("corrupt load mutated the cache")
		}
	})

	t.Run("version skew", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		binary.LittleEndian.PutUint32(bad[8:], snapshotVersion+1)
		d := &VerifyCache{}
		if _, err := d.LoadSnapshot(bytes.NewReader(bad)); !errors.Is(err, ErrSnapshotVersion) {
			t.Fatalf("err = %v, want ErrSnapshotVersion", err)
		}
		if d.Stats().Entries != 0 {
			t.Fatal("version-skewed load mutated the cache")
		}
	})

	t.Run("bit flip in body", func(t *testing.T) {
		// Flip one bit in the middle of the entry region: either a
		// decoded length goes implausible or the trailer hash catches it.
		bad := append([]byte(nil), good...)
		bad[len(bad)/2] ^= 0x01
		d := &VerifyCache{}
		if _, err := d.LoadSnapshot(bytes.NewReader(bad)); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("err = %v, want ErrSnapshotCorrupt", err)
		}
		if d.Stats().Entries != 0 {
			t.Fatal("bit-flipped load mutated the cache")
		}
	})

	t.Run("bit flip in trailer", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[len(bad)-1] ^= 0x80
		d := &VerifyCache{}
		if _, err := d.LoadSnapshot(bytes.NewReader(bad)); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("err = %v, want ErrSnapshotCorrupt", err)
		}
	})

	t.Run("truncation", func(t *testing.T) {
		// Cut the stream at every interesting boundary plus a sweep of
		// mid-stream offsets; all must reject without mutating the cache.
		cuts := []int{0, 4, 8, 11, 12, 19, 20, len(good) / 3, len(good) / 2, len(good) - 9, len(good) - 1}
		for _, n := range cuts {
			if n >= len(good) {
				continue
			}
			d := &VerifyCache{}
			if _, err := d.LoadSnapshot(bytes.NewReader(good[:n])); !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("truncation at %d: err = %v, want ErrSnapshotCorrupt", n, err)
			}
			if d.Stats().Entries != 0 {
				t.Fatalf("truncation at %d mutated the cache", n)
			}
		}
	})

	t.Run("trailing garbage", func(t *testing.T) {
		bad := append(append([]byte(nil), good...), 0x00)
		d := &VerifyCache{}
		if _, err := d.LoadSnapshot(bytes.NewReader(bad)); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("err = %v, want ErrSnapshotCorrupt", err)
		}
	})
}

func TestSnapshotLoadRespectsEvictionEpochs(t *testing.T) {
	// A snapshot larger than the cache bound must warm-start through the
	// normal epoch-flush semantics, not grow without limit.
	old := maxCacheEntries
	maxCacheEntries = 3
	defer func() { maxCacheEntries = old }()

	src, _ := snapshotCache(t)
	var buf bytes.Buffer
	if _, err := src.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	d := &VerifyCache{}
	n, err := d.LoadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if s.Entries > maxCacheEntries {
		t.Fatalf("entries = %d, bound %d", s.Entries, maxCacheEntries)
	}
	if n > maxCacheEntries && s.Evictions == 0 {
		t.Fatalf("loaded %d entries past bound %d with no evictions counted", n, maxCacheEntries)
	}
}

func TestSnapshotLoadConcurrentWithVerifies(t *testing.T) {
	// Snapshot loads racing live verifications and eviction flushes must
	// stay safe (run under -race in CI) and must never surface a wrong
	// verdict: the dual-hash key contract holds for loaded entries too.
	src, nets := snapshotCache(t)
	var buf bytes.Buffer
	if _, err := src.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()

	// Lower the epoch-flush bound for the contended cache only, after the
	// fully-populated source snapshot exists, so loads constantly race
	// eviction flushes.
	old := maxCacheEntries
	maxCacheEntries = 4
	defer func() { maxCacheEntries = old }()

	// Ground truth per design, from the source cache (XY on the torus is
	// cyclic — wrap links close a dependency ring without extra VCs).
	wantXY := make([]bool, len(nets))
	for i, net := range nets {
		rep, ok := src.Lookup(VerifyKey(net, nil, xyTurnSet()))
		if !ok {
			t.Fatalf("%s: source cache lost an entry", net.Name())
		}
		wantXY[i] = rep.Acyclic
	}

	c := &VerifyCache{}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if w%2 == 0 {
					if _, err := c.LoadSnapshot(bytes.NewReader(snap)); err != nil {
						t.Errorf("concurrent load: %v", err)
						return
					}
				} else {
					ni := (w + i) % len(nets)
					rep := c.VerifyTurnSetJobs(nets[ni], nil, xyTurnSet(), 1)
					if rep.Acyclic != wantXY[ni] {
						t.Errorf("%s under XY: acyclic = %v, want %v", nets[ni].Name(), rep.Acyclic, wantXY[ni])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// Whatever interleaving happened, surviving entries answer correctly.
	for i, net := range nets {
		if rep, ok := c.Lookup(VerifyKey(net, nil, xyTurnSet())); ok && rep.Acyclic != wantXY[i] {
			t.Fatalf("%s: cache serves a wrong verdict after concurrent loads", net.Name())
		}
		if rep, ok := c.Lookup(VerifyKey(net, nil, allTurnSet())); ok && rep.Acyclic {
			t.Fatalf("%s: cache serves a wrong verdict after concurrent loads", net.Name())
		}
	}
}

// FuzzLoadSnapshot holds the loader to its contract on arbitrary bytes:
// a stream is either accepted, and then survives a save/load round trip
// byte-for-byte, or rejected with a typed error and no entry inserted.
func FuzzLoadSnapshot(f *testing.F) {
	src, _ := snapshotCache(f)
	var good, empty bytes.Buffer
	if _, err := src.SaveSnapshot(&good); err != nil {
		f.Fatal(err)
	}
	if _, err := (&VerifyCache{}).SaveSnapshot(&empty); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add(empty.Bytes())
	f.Add(good.Bytes()[:good.Len()/2])
	f.Add(snapshotMagic[:])
	f.Fuzz(func(t *testing.T, data []byte) {
		c := &VerifyCache{}
		c.put(keyedEntry[Report]{1, cacheEntry[Report]{2, Report{Network: "resident"}}})
		n, err := c.LoadSnapshot(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrSnapshotCorrupt) && !errors.Is(err, ErrSnapshotVersion) {
				t.Fatalf("untyped load error: %v", err)
			}
			if got := c.Stats().Entries; got != 1 {
				t.Fatalf("rejected load left %d entries, want the 1 resident", got)
			}
			return
		}
		d := &VerifyCache{}
		if m, err := d.LoadSnapshot(bytes.NewReader(data)); err != nil || m != n {
			t.Fatalf("reload = (%d, %v), first load carried %d", m, err, n)
		}
		var first, second bytes.Buffer
		if _, err := d.SaveSnapshot(&first); err != nil {
			t.Fatal(err)
		}
		e := &VerifyCache{}
		if _, err := e.LoadSnapshot(bytes.NewReader(first.Bytes())); err != nil {
			t.Fatalf("saved snapshot does not load: %v", err)
		}
		if _, err := e.SaveSnapshot(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("save/load/save is not byte-stable")
		}
		if d.Stats().Entries != e.Stats().Entries {
			t.Fatalf("round trip changed the entry count: %d vs %d", d.Stats().Entries, e.Stats().Entries)
		}
	})
}
