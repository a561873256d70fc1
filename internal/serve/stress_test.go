package serve

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"github.com/salus-sim/salus/internal/crash"
	"github.com/salus-sim/salus/internal/securemem"
)

// TestStripedLockStress drives the striped lock layout under load: two
// clients on disjoint engine shards run reads and writes through Do,
// checking every read against their own shadow of their pages, while a
// third goroutine keeps cycling the whole-system operations — a quiesced
// checkpoint, Stats, StateDigest, Flush, Snapshot and a quiesced
// checkpoint-recover-swap. Run under the race detector (make race) it
// also checks that nothing the clients touch is shared unsynchronised.
func TestStripedLockStress(t *testing.T) {
	const (
		pages  = 16
		shards = 4
		ops    = 500
	)
	cfg := securemem.Config{
		Geometry: testGeo(), Model: securemem.ModelSalus,
		TotalPages: pages, DevicePages: 8, Shards: shards,
	}
	eng, err := securemem.NewConcurrent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := testServer(t, eng, Config{})
	store := crash.NewMemStore()
	j := crash.NewJournal(store)

	var clients, chaos sync.WaitGroup
	done := make(chan struct{})
	for c := 0; c < 2; c++ {
		clients.Add(1)
		go func(c int) {
			defer clients.Done()
			// Client c owns the pages of shards 2c and 2c+1.
			var owned []int
			for p := 0; p < pages; p++ {
				if p%shards/2 == c {
					owned = append(owned, p)
				}
			}
			shadow := make([]byte, pages*4096)
			rng := rand.New(rand.NewSource(int64(c) + 1))
			for i := 0; i < ops; i++ {
				p := owned[rng.Intn(len(owned))]
				off := p*4096 + rng.Intn(4096-100)
				n := 1 + rng.Intn(100)
				if rng.Intn(2) == 0 {
					data := make([]byte, n)
					rng.Read(data)
					if err := srv.Do(&Request{Class: Interactive, Addr: securemem.HomeAddr(off), Write: true, Data: data}); err != nil {
						t.Errorf("client %d write %d: %v", c, i, err)
						return
					}
					copy(shadow[off:], data)
					continue
				}
				buf := make([]byte, n)
				if err := srv.Do(&Request{Class: Interactive, Addr: securemem.HomeAddr(off), Buf: buf}); err != nil {
					t.Errorf("client %d read %d: %v", c, i, err)
					return
				}
				if !bytes.Equal(buf, shadow[off:off+n]) {
					t.Errorf("client %d read %d at %#x: bytes differ from shadow", c, i, off)
					return
				}
			}
		}(c)
	}
	chaos.Add(1)
	go func() {
		defer chaos.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := srv.WithQuiesced(func(e *securemem.Concurrent) error {
				_, err := e.Checkpoint(j)
				return err
			}); err != nil {
				t.Errorf("quiesced checkpoint: %v", err)
				return
			}
			e := srv.Engine()
			e.Stats()
			e.StateDigest()
			if err := e.Flush(); err != nil {
				t.Errorf("flush: %v", err)
				return
			}
			srv.Snapshot()
			if err := srv.WithQuiescedSwap(func(old *securemem.Concurrent) (*securemem.Concurrent, error) {
				root, err := old.Checkpoint(j)
				if err != nil {
					return nil, err
				}
				sys, err := securemem.Recover(cfg, store.Bytes(), root)
				if err != nil {
					return nil, err
				}
				return securemem.ConcurrentFrom(sys, shards), nil
			}); err != nil {
				t.Errorf("quiesced swap: %v", err)
				return
			}
		}
	}()
	clients.Wait()
	close(done)
	chaos.Wait()

	rep := srv.Snapshot()
	if got := rep.Ops[Interactive].Served; got != 2*ops && !t.Failed() {
		t.Fatalf("served %d of %d requests", got, 2*ops)
	}
}
