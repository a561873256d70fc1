// Link outage: attach a CXL link model to a protected memory and walk
// the degraded-mode ladder. While the link is down, device-resident pages
// keep serving; misses fail fast with a typed error; dirty evictions park
// on a bounded writeback queue instead of blocking. On recovery the queue
// drains in order and the home tier ends byte-identical to an
// outage-free run — and a rollback staged against the home tier during
// the outage is caught on drain, because every parked chunk is
// re-verified against the trusted integrity root before it overwrites
// home state.
package main

import (
	"bytes"
	"errors"
	"fmt"
	"log"

	salus "github.com/salus-sim/salus"
)

func pageData(page, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(page*31 + i)
	}
	return b
}

func main() {
	// 8 pages total, 2 device frames, a hand-driven link, and a writeback
	// queue of 1 so backpressure is easy to show.
	sys, err := salus.NewDefault(8, 2)
	if err != nil {
		log.Fatal(err)
	}
	manual := salus.NewManualLink()
	lnk := salus.NewLink(manual, salus.DefaultBreakerConfig())
	sys.AttachLink(lnk, nil, 1)

	// Pull pages 0 and 1 into the device tier and dirty them.
	for pg := 0; pg < 2; pg++ {
		if err := sys.Write(salus.HomeAddr(pg*4096), pageData(pg, 64)); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Println("phase 1 — outage: resident pages serve, misses fail typed")
	manual.Set(salus.LinkDown)
	got := make([]byte, 64)
	if err := sys.Read(0, got); err != nil || !bytes.Equal(got, pageData(0, 64)) {
		log.Fatalf("FAILED: resident read during outage (err=%v)", err)
	}
	fmt.Println("  resident page 0 read byte-exact with the link down")
	err = sys.Read(5*4096, make([]byte, 32)) // page 5 is not resident
	if !errors.Is(err, salus.ErrLinkDown) && !errors.Is(err, salus.ErrDegraded) {
		log.Fatalf("FAILED: miss during outage not typed (err=%v)", err)
	}
	fmt.Printf("  miss on page 5 refused: %v\n\n", err)

	fmt.Println("phase 2 — dirty writebacks park; a full queue pushes back")
	err = sys.Flush() // two dirty pages, queue capacity one
	if !errors.Is(err, salus.ErrQueueFull) {
		log.Fatalf("FAILED: second eviction should hit queue capacity (err=%v)", err)
	}
	fmt.Printf("  %d writeback parked, then: %v\n\n", sys.QueuedWritebacks(), err)

	fmt.Println("phase 3 — recovery: the queue drains, home catches up")
	manual.Set(salus.LinkUp)
	lnk.ForceUp() // operator reset: close the breaker instead of waiting out its cooldown
	n, err := sys.DrainWritebacks()
	if err != nil {
		log.Fatalf("FAILED: drain after recovery (err=%v)", err)
	}
	if err := sys.Flush(); err != nil {
		log.Fatal(err)
	}
	lst := lnk.Stats()
	fmt.Printf("  drained %d parked writeback(s); link saw %d refusals, %d flaps\n\n",
		n, lst.DownRefusals, lst.Flaps)

	fmt.Println("phase 4 — a home rollback during the outage is detected on drain")
	sys2, err := salus.NewDefault(8, 2)
	if err != nil {
		log.Fatal(err)
	}
	manual2 := salus.NewManualLink()
	lnk2 := salus.NewLink(manual2, salus.DefaultBreakerConfig())
	sys2.AttachLink(lnk2, nil, 4)
	if err := sys2.Write(0, pageData(1, 64)); err != nil { // epoch A
		log.Fatal(err)
	}
	if err := sys2.Flush(); err != nil {
		log.Fatal(err)
	}
	snap := sys2.SnapshotHomeChunk(0)                      // attacker records epoch A's home state
	if err := sys2.Write(0, pageData(2, 64)); err != nil { // epoch B
		log.Fatal(err)
	}
	if err := sys2.Flush(); err != nil {
		log.Fatal(err)
	}
	if err := sys2.Write(0, pageData(3, 64)); err != nil { // epoch C, dirty
		log.Fatal(err)
	}
	manual2.Set(salus.LinkDown)
	if err := sys2.Flush(); err != nil && !errors.Is(err, salus.ErrLinkDown) &&
		!errors.Is(err, salus.ErrDegraded) {
		log.Fatal(err)
	}
	sys2.ReplayHomeChunk(snap) // roll the home tier back while the link is dark
	manual2.Set(salus.LinkUp)
	lnk2.ForceUp()
	if _, err := sys2.DrainWritebacks(); !errors.Is(err, salus.ErrFreshness) {
		log.Fatalf("FAILED: rollback not detected on drain (err=%v)", err)
	}
	fmt.Println("  drain refused: the parked chunk's metadata no longer matches the trusted root")
	fmt.Printf("  queue still holds the park (%d entries) — nothing stale reached home\n",
		sys2.QueuedWritebacks())
	fmt.Println("\noutage survived: resident data served, writebacks reconciled, rollback caught")
}
