package securemem

import (
	"testing"

	"github.com/salus-sim/salus/internal/security/bmt"
	"github.com/salus-sim/salus/internal/security/counters"
)

// TestResidentAccessZeroAlloc pins the Salus hot path: a read or write
// of one sector of a device-resident page, through Concurrent, allocates
// nothing — no tree hashing scratch, no lock bookkeeping.
func TestResidentAccessZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cfg := salusCfg(16, 8)
	cfg.Shards = 4
	c, err := NewConcurrent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sector := make([]byte, 32)
	// Migrate page 1 in and fetch every chunk's counters once.
	for off := 0; off < 4096; off += 256 {
		if err := c.Write(HomeAddr(4096+off), sector); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	next := func() HomeAddr {
		i++
		return HomeAddr(4096 + i%128*32) // rotate sectors: no minor overflows
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := c.Write(next(), sector); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("resident Concurrent.Write allocates %.1f times per op, want 0", n)
	}
	buf := make([]byte, 32)
	if n := testing.AllocsPerRun(100, func() {
		if err := c.Read(next(), buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("resident Concurrent.Read allocates %.1f times per op, want 0", n)
	}
}

// TestEvictionPathZeroAlloc pins the miss path: with one frame per
// shard, every write below migrates its page in and evicts a dirty page
// (collapse, re-encryption, home-tree update), and none of it allocates.
func TestEvictionPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cfg := salusCfg(16, 4)
	cfg.Shards = 4
	c, err := NewConcurrent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("evicted and migrated back")
	i := 0
	if n := testing.AllocsPerRun(100, func() {
		i++
		// Pages i%16 and (i+4)%16 share a shard and its single frame.
		if err := c.Write(HomeAddr(i%16*4096+i%100*32), data); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("evicting Concurrent.Write allocates %.1f times per op, want 0", n)
	}
	// AllocsPerRun makes 101 calls; the first four fill the free frames.
	if got := c.Stats().PageEvictions; got != 97 {
		t.Fatalf("%d evictions, want one per write after the first four", got)
	}
}

// TestDevSubtreeIsolation checks that writes confined to one shard touch
// only that shard's device subtree: every other subtree root stays put.
func TestDevSubtreeIsolation(t *testing.T) {
	const shards = 4
	cfg := salusCfg(16, 8)
	cfg.Shards = shards
	c, err := NewConcurrent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	roots := func() (r [shards][32]byte) {
		for k := range r {
			r[k] = c.sys.shards[k].devTree.Root()
		}
		return r
	}
	for k := 0; k < shards; k++ {
		before := roots()
		// Pages k, k+4, k+8, k+12 are shard k's; with two frames per
		// shard this also evicts and migrates within the shard.
		for p := k; p < 16; p += shards {
			for off := 0; off < 4096; off += 1000 {
				if err := c.Write(HomeAddr(p*4096+off), []byte("shard-local write")); err != nil {
					t.Fatal(err)
				}
			}
		}
		after := roots()
		for j := range after {
			switch {
			case j == k && after[j] == before[j]:
				t.Errorf("writes to shard %d left its subtree root unchanged", k)
			case j != k && after[j] != before[j]:
				t.Errorf("writes to shard %d changed shard %d's subtree root", k, j)
			}
		}
	}
}

// TestOneShardDevTreeMatchesDeviceWideLayout checks that with one shard
// the device subtree is the device-wide tree of the unsharded layout:
// leaf i holds counter groups [i*GroupsPerSector, (i+1)*GroupsPerSector)
// of the frame-major group array.
func TestOneShardDevTreeMatchesDeviceWideLayout(t *testing.T) {
	s := newSys(t, ModelSalus, 8, 8) // every page fits: no eviction collapses groups behind the tree
	for p := 0; p < 8; p++ {
		for off := p * 300; off < 4096; off += 700 {
			if err := s.Write(HomeAddr(p*4096+off), []byte("device-wide layout")); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Overflow one minor so a chunk re-encrypts under a bumped major.
	for i := 0; i <= counters.IFMinorMax; i++ {
		if err := s.Write(HomeAddr(3*4096+64), []byte("overflow")); err != nil {
			t.Fatal(err)
		}
	}
	gps := counters.GroupsPerSector
	ref, err := bmt.New(s.eng, (len(s.devGroups)+gps-1)/gps)
	if err != nil {
		t.Fatal(err)
	}
	for leaf := 0; leaf*gps < len(s.devGroups); leaf++ {
		var sec counters.IFSector
		copy(sec.Groups[:], s.devGroups[leaf*gps:min((leaf+1)*gps, len(s.devGroups))])
		if err := ref.Update(leaf, sec.Encode()); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := s.shards[0].devTree.Root(), ref.Root(); got != want {
		t.Fatalf("one-shard device subtree root %x, device-wide layout root %x", got, want)
	}
}
