package cdg

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"ebda/internal/channel"
	"ebda/internal/core"
	"ebda/internal/obs"
	"ebda/internal/topology"
)

func TestCacheHitOnRepeat(t *testing.T) {
	c := &VerifyCache{}
	net := topology.NewMesh(4, 4)
	ts := xyTurnSet()
	first := c.VerifyTurnSetJobs(net, nil, ts, 0)
	second := c.VerifyTurnSetJobs(net, nil, ts, 0)
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("cached report diverged: %+v vs %+v", first, second)
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != 1 || s.Entries != 1 {
		t.Errorf("stats = %+v, want 1 miss, 1 hit, 1 entry", s)
	}
	if s.HitRate() != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", s.HitRate())
	}
}

func TestCacheHitsAcrossInstances(t *testing.T) {
	// Equal relations built independently on equal-shape (but distinct)
	// networks must share one entry — the sweeps rebuild both per
	// candidate.
	c := &VerifyCache{}
	c.VerifyTurnSetJobs(topology.NewMesh(4, 4), nil, xyTurnSet(), 0)
	rep := c.VerifyTurnSetJobs(topology.NewMesh(4, 4), nil, xyTurnSet(), 0)
	if s := c.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v, want a cross-instance hit", s)
	}
	if !rep.Acyclic {
		t.Errorf("XY must verify acyclic: %s", rep)
	}
}

func TestCacheKeyDiscriminates(t *testing.T) {
	c := &VerifyCache{}
	mesh := topology.NewMesh(4, 4)
	base := c.Stats()
	probes := []struct {
		name string
		net  *topology.Network
		vcs  VCConfig
		ts   *core.TurnSet
	}{
		{"base", mesh, nil, xyTurnSet()},
		{"bigger mesh", topology.NewMesh(5, 4), nil, xyTurnSet()},
		{"torus", topology.NewTorus(4, 4), nil, xyTurnSet()},
		{"more vcs", mesh, Uniform(2, 2), xyTurnSet()},
		{"other turns", mesh, nil, allTurnSet()},
	}
	for i, p := range probes {
		c.VerifyTurnSetJobs(p.net, p.vcs, p.ts, 0)
		s := c.Stats()
		if want := base.Misses + uint64(i) + 1; s.Misses != want {
			t.Fatalf("%s: misses = %d, want %d (keys must differ)", p.name, s.Misses, want)
		}
		if s.Hits != base.Hits {
			t.Fatalf("%s: unexpected hit", p.name)
		}
	}
}

func TestCacheInvalidatedByMutation(t *testing.T) {
	c := &VerifyCache{}
	net := topology.NewMesh(4, 4)
	ts := xyTurnSet()
	if rep := c.VerifyTurnSetJobs(net, nil, ts, 0); !rep.Acyclic {
		t.Fatalf("XY must be acyclic: %s", rep)
	}
	// Completing the turn set to every 90-degree turn makes it cyclic;
	// the mutated set must fingerprint differently and re-verify.
	n, s := channel.New(channel.Y, channel.Plus), channel.New(channel.Y, channel.Minus)
	e, w := channel.New(channel.X, channel.Plus), channel.New(channel.X, channel.Minus)
	for _, from := range []channel.Class{n, s} {
		for _, to := range []channel.Class{e, w} {
			ts.Add(from, to, core.ByTheorem1)
		}
	}
	rep := c.VerifyTurnSetJobs(net, nil, ts, 0)
	if rep.Acyclic {
		t.Fatal("full 2D turn set must be cyclic — stale cache entry served")
	}
	if st := c.Stats(); st.Misses != 2 || st.Hits != 0 {
		t.Errorf("stats = %+v, want two distinct misses", st)
	}
}

func TestCacheIrregularNetworksDistinct(t *testing.T) {
	// Same name, same dimensions, different elevator columns: only the
	// link list tells them apart, so irregular keys must include it.
	c := &VerifyCache{}
	a := topology.NewPartialMesh3D(3, 3, 2, [][2]int{{0, 0}})
	b := topology.NewPartialMesh3D(3, 3, 2, [][2]int{{0, 0}, {2, 2}})
	ts := xyTurnSet()
	ra := c.VerifyTurnSetJobs(a, nil, ts, 0)
	rb := c.VerifyTurnSetJobs(b, nil, ts, 0)
	if s := c.Stats(); s.Misses != 2 || s.Hits != 0 {
		t.Fatalf("stats = %+v: different irregular networks must miss", s)
	}
	if ra.Channels == rb.Channels {
		t.Errorf("elevator variants report equal channel counts (%d); key test is vacuous", ra.Channels)
	}
}

func TestCacheChainEntryPoint(t *testing.T) {
	// VerifyChainCached must hit across chain re-parses: AllTurns builds
	// a fresh TurnSet per call, but the relation is identical.
	DefaultCache.Reset()
	net := topology.NewMesh(4, 4)
	before := DefaultCache.Stats()
	spec := "PA[X1+ Y1+ Y1-] -> PB[X1- Y2+ Y2-]"
	first := VerifyChainCached(net, core.MustParseChain(spec))
	second := VerifyChainCached(net, core.MustParseChain(spec))
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("chain reports diverged: %+v vs %+v", first, second)
	}
	after := DefaultCache.Stats()
	if after.Hits != before.Hits+1 || after.Misses != before.Misses+1 {
		t.Errorf("stats before %+v after %+v, want one miss then one hit", before, after)
	}
}

func TestCacheConcurrent(t *testing.T) {
	// Hammer one cache from many goroutines across a mix of shapes; run
	// under -race via `make check`. Every result must match the serial
	// reference for its shape.
	c := &VerifyCache{}
	nets := []*topology.Network{
		topology.NewMesh(4, 4),
		topology.NewMesh(3, 5),
		topology.NewTorus(4, 4),
	}
	sets := []*core.TurnSet{xyTurnSet(), allTurnSet(), parityTurnSet()}
	var want []Report
	for i, net := range nets {
		want = append(want, freshReport(net, nil, sets[i], 1))
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				k := (w + i) % len(nets)
				got := c.VerifyTurnSetJobs(nets[k], nil, sets[k], 2)
				if !reflect.DeepEqual(got, want[k]) {
					select {
					case errs <- got.String() + " != " + want[k].String():
					default:
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if s := c.Stats(); s.Hits+s.Misses != 8*20 {
		t.Errorf("stats = %+v, want %d total probes", s, 8*20)
	}
}

func TestCacheEvictionCounting(t *testing.T) {
	// Lower the epoch-flush bound to force evictions; cdg tests run
	// sequentially within the package, so restoring it is safe.
	old := maxCacheEntries
	maxCacheEntries = 2
	defer func() { maxCacheEntries = old }()

	c := &VerifyCache{}
	nets := []*topology.Network{
		topology.NewMesh(4, 4),
		topology.NewMesh(3, 5),
		topology.NewMesh(5, 5),
	}
	for _, net := range nets {
		c.VerifyTurnSetJobs(net, nil, xyTurnSet(), 1)
	}
	s := c.Stats()
	if s.Misses != 3 || s.Evictions != 2 {
		t.Fatalf("stats = %+v, want 3 misses and 2 evictions (epoch flush at 2 entries)", s)
	}
	if s.Entries != 1 {
		t.Fatalf("entries = %d, want 1 after the flush", s.Entries)
	}
	// Reset is an intentional epoch boundary, not capacity pressure.
	c.Reset()
	if s := c.Stats(); s.Evictions != 0 || s.Entries != 0 {
		t.Fatalf("stats after reset = %+v, want zeroed", s)
	}
}

// TestCacheEntriesGaugeIsProcessTotal pins the entries gauge as the live
// total across every verify cache in the process: replicas and private
// caches each move it by their own size changes.
func TestCacheEntriesGaugeIsProcessTotal(t *testing.T) {
	gauge := obs.Default.Gauge("ebda_verify_cache_entries", "")
	base := gauge.Value()
	a, b := &VerifyCache{}, &VerifyCache{}
	for _, net := range []*topology.Network{topology.NewMesh(3, 3), topology.NewMesh(3, 4), topology.NewMesh(4, 4)} {
		a.VerifyTurnSetJobs(net, nil, xyTurnSet(), 1)
	}
	b.VerifyTurnSetJobs(topology.NewMesh(3, 3), nil, xyTurnSet(), 1)
	if got := gauge.Value() - base; got != 4 {
		t.Fatalf("gauge moved by %d with caches of 3 and 1 entries, want 4", got)
	}
	b.Reset()
	if got := gauge.Value() - base; got != 3 {
		t.Fatalf("gauge moved by %d after resetting the 1-entry cache, want 3", got)
	}
	a.Reset()
	if got := gauge.Value() - base; got != 0 {
		t.Fatalf("gauge moved by %d after resetting both caches, want 0", got)
	}
}

// TestQueryEntryPointsUseTheirKeys pins that the query entry points store
// under the identity the query already holds: a query whose key a caller
// has altered lands under the altered key, so VerifyQueryCtx and
// VerifyDeltaQueryCtx never hash the design again. The untouched queries'
// keys equal VerifyKey and DeltaKey.
func TestQueryEntryPointsUseTheirKeys(t *testing.T) {
	net := topology.NewMesh(4, 4)
	ts := xyTurnSet()
	q := NewTurnSetQuery(net, nil, ts)
	if k, c := VerifyKey(net, nil, ts); q.Key != k || q.Check != c {
		t.Fatalf("query key %x/%x, VerifyKey %x/%x", q.Key, q.Check, k, c)
	}
	diff := Diff{RemoveLinks: net.Links()[:1]}
	d := q.Delta(diff)
	if k, c := DeltaKey(net, nil, ts, diff); d.Key != k || d.Check != c {
		t.Fatalf("delta query key %x/%x, DeltaKey %x/%x", d.Key, d.Check, k, c)
	}

	c := &VerifyCache{}
	q.Key ^= 1
	d.Key ^= 1
	if _, err := c.VerifyQueryCtx(context.Background(), q, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.VerifyDeltaQueryCtx(context.Background(), d, 1); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Lookup(q.Key, q.Check); !ok {
		t.Error("turn-set verdict not stored under the query's key")
	}
	if _, ok := c.Lookup(d.Key, d.Check); !ok {
		t.Error("delta verdict not stored under the query's key")
	}
	if st := c.Stats(); st.Entries != 2 || st.Misses != 2 {
		t.Errorf("stats %+v, want two misses and two entries", st)
	}
}
