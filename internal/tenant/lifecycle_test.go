package tenant

import (
	"bytes"
	"errors"
	"testing"

	"github.com/salus-sim/salus/internal/crash"
	"github.com/salus-sim/salus/internal/securemem"
)

// TestDestroyTenantRetiresIdentity pins the retirement contract: after
// DestroyTenant every operation under the identity fails typed
// ErrTenantClosed, query methods degrade to zero values, and the pool
// reports the reclaimed frame partition.
func TestDestroyTenantRetiresIdentity(t *testing.T) {
	p := newTestPool(t)
	a := tn(t, p, "a")

	if err := a.Write(0, []byte("doomed tenant payload")); err != nil {
		t.Fatal(err)
	}
	store := crash.NewMemStore()
	j := crash.NewJournal(store)
	if _, err := a.Checkpoint(j); err != nil {
		t.Fatal(err)
	}
	if a.Closed() {
		t.Fatal("tenant reports closed before destruction")
	}

	if err := p.DestroyTenant("a"); err != nil {
		t.Fatal(err)
	}
	if !a.Closed() {
		t.Error("Closed() = false after DestroyTenant")
	}
	if a.Engine() != nil {
		t.Error("Engine() non-nil after DestroyTenant")
	}
	if got := p.ReclaimedFrames(); got != a.Frames() {
		t.Errorf("ReclaimedFrames = %d, want %d", got, a.Frames())
	}

	buf := make([]byte, 8)
	checks := map[string]error{
		"Read":           a.Read(0, buf),
		"Write":          a.Write(0, buf),
		"Flush":          a.Flush(),
		"DestroyAgain":   p.DestroyTenant("a"),
		"RecoverTenant":  p.RecoverTenant("a", store.Bytes(), securemem.TrustedRoot{}),
		"SecondMigKeyOp": func() error { _, err := a.MigrationKey(); return err }(),
		"Checkpoint":     func() error { _, err := a.Checkpoint(j); return err }(),
		"FullCheckpoint": func() error { _, err := a.FullCheckpoint(j); return err }(),
		"Drain":          func() error { _, err := a.DrainWritebacks(); return err }(),
	}
	for name, err := range checks {
		if !errors.Is(err, ErrTenantClosed) {
			t.Errorf("%s after destroy: got %v, want ErrTenantClosed", name, err)
		}
	}
	if a.Epoch() != 0 {
		t.Errorf("Epoch after destroy = %d, want 0", a.Epoch())
	}
	if a.QueuedWritebacks() != 0 {
		t.Error("QueuedWritebacks non-zero after destroy")
	}
	if a.StateDigest() != [32]byte{} {
		t.Error("StateDigest non-zero after destroy")
	}

	if err := p.DestroyTenant("ghost"); !errors.Is(err, ErrUnknownTenant) {
		t.Errorf("DestroyTenant(ghost): got %v, want ErrUnknownTenant", err)
	}
}

// TestDestroyTenantZeroizesKeysAndScrubsWindows proves retirement
// leaves no residue: the derived key material and the tenant's home
// and device backing windows all read as zero afterwards, while the
// sibling's window — and its service — are untouched.
func TestDestroyTenantZeroizesKeysAndScrubsWindows(t *testing.T) {
	p := newTestPool(t)
	a, b := tn(t, p, "a"), tn(t, p, "b")

	msgB := []byte("sibling stays intact")
	if err := a.Write(64, []byte("secret bytes for tenant a")); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(); err != nil { // push ciphertext into the home window
		t.Fatal(err)
	}
	if err := b.Write(b.Base()+64, msgB); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	sibDigest := b.StateDigest()

	aBacking := a.memCfg.Backing
	aesKey, macKey := a.memCfg.AESKey, a.memCfg.MACKey
	if allZero(aBacking.Home) {
		t.Fatal("test setup: tenant a home window empty before destroy")
	}

	if err := p.DestroyTenant("a"); err != nil {
		t.Fatal(err)
	}
	if !allZero(aesKey) || !allZero(macKey) {
		t.Error("key material not zeroized")
	}
	if !allZero(aBacking.Home) || !allZero(aBacking.Device) {
		t.Error("backing windows not scrubbed")
	}

	if got := b.StateDigest(); got != sibDigest {
		t.Error("sibling digest changed by DestroyTenant")
	}
	got := make([]byte, len(msgB))
	if err := b.Read(b.Base()+64, got); err != nil || !bytes.Equal(got, msgB) {
		t.Errorf("sibling read after destroy: %v, %q", err, got)
	}
}

// TestFullCheckpointSelfContained pins the migration bootstrap
// property: a FullCheckpoint journal alone — no earlier epochs —
// rebuilds the whole slice on a second pool derived from the same
// masters, byte-identical.
func TestFullCheckpointSelfContained(t *testing.T) {
	src := newTestPool(t)
	a := tn(t, src, "a")

	msg1 := []byte("written before an ordinary checkpoint")
	msg2 := []byte("written after it, carried only by the full one")
	if err := a.Write(128, msg1); err != nil {
		t.Fatal(err)
	}
	// Deliberately discarded: the full journal must not need it.
	if _, err := a.Checkpoint(crash.NewJournal(crash.NewMemStore())); err != nil {
		t.Fatal(err)
	}
	if err := a.Write(2*4096, msg2); err != nil {
		t.Fatal(err)
	}
	fullStore := crash.NewMemStore()
	root, err := a.FullCheckpoint(crash.NewJournal(fullStore))
	if err != nil {
		t.Fatal(err)
	}

	dst := newTestPool(t)
	if err := dst.RecoverTenant("a", fullStore.Bytes(), root); err != nil {
		t.Fatalf("recover from self-contained journal: %v", err)
	}
	da := tn(t, dst, "a")
	for _, probe := range []struct {
		addr securemem.HomeAddr
		want []byte
	}{{128, msg1}, {2 * 4096, msg2}} {
		got := make([]byte, len(probe.want))
		if err := da.Read(probe.addr, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, probe.want) {
			t.Errorf("dest read @%d = %q, want %q", probe.addr, got, probe.want)
		}
	}
}

// TestStagedRecoveryInstallsOnlyOnCommit: a staged recovery leaves the
// live tenant serving and its backing window untouched until Commit; a
// failed recovery or an Abort leaves the tenant as it was; Commit on a
// tenant destroyed meanwhile fails ErrTenantClosed.
func TestStagedRecoveryInstallsOnlyOnCommit(t *testing.T) {
	src := newTestPool(t)
	a := tn(t, src, "a")
	msg := []byte("carried by the staged journal")
	if err := a.Write(3*4096+5, msg); err != nil {
		t.Fatal(err)
	}
	store := crash.NewMemStore()
	root, err := a.FullCheckpoint(crash.NewJournal(store))
	if err != nil {
		t.Fatal(err)
	}

	dst := newTestPool(t)
	da := tn(t, dst, "a")
	live := []byte("the destination's own bytes")
	if err := da.Write(0, live); err != nil {
		t.Fatal(err)
	}
	window := append([]byte(nil), da.memCfg.Backing.Home...)
	digest := da.StateDigest()
	same := func(what string) {
		t.Helper()
		if da.Epoch() != 0 || da.StateDigest() != digest || !bytes.Equal(da.memCfg.Backing.Home, window) {
			t.Fatalf("%s changed the live tenant", what)
		}
	}

	st, err := dst.StageRecovery("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Apply(store.Bytes(), root); err != nil {
		t.Fatal(err)
	}
	staged, err := st.StateDigest()
	if err != nil {
		t.Fatal(err)
	}
	if staged != a.StateDigest() {
		t.Fatal("staged digest differs from the source's")
	}
	same("a staged apply")
	st.Abort()
	same("an abort")

	forged := root
	forged.CXLRoot[0] ^= 1
	if err := dst.RecoverTenant("a", store.Bytes(), forged); !errors.Is(err, securemem.ErrFreshness) {
		t.Fatalf("recover with a forged root: %v, want ErrFreshness", err)
	}
	same("a refused recovery")

	st, err = dst.StageRecovery("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Apply(store.Bytes(), root); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := da.Read(3*4096+5, got); err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("read after commit: %v, %q", err, got)
	}
	if da.StateDigest() != staged || da.Stats().Recovers != 1 {
		t.Fatal("commit did not install the staged state")
	}

	st, err = dst.StageRecovery("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Apply(store.Bytes(), root); err != nil {
		t.Fatal(err)
	}
	if err := dst.DestroyTenant("a"); err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(); !errors.Is(err, ErrTenantClosed) {
		t.Fatalf("commit after destroy: %v, want ErrTenantClosed", err)
	}
	if !allZero(da.memCfg.Backing.Home) {
		t.Fatal("commit after destroy wrote into the scrubbed window")
	}
}

// TestMigrationKeyDerivation pins the transport-secret contract: equal
// across pools built from the same masters (the attestation
// precondition), distinct per tenant, and disjoint from the storage MAC
// key itself.
func TestMigrationKeyDerivation(t *testing.T) {
	p1, p2 := newTestPool(t), newTestPool(t)
	k1, err := tn(t, p1, "a").MigrationKey()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := tn(t, p2, "a").MigrationKey()
	if err != nil {
		t.Fatal(err)
	}
	kb, err := tn(t, p1, "b").MigrationKey()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(k1, k2) {
		t.Error("same tenant on same-master pools derived different migration keys")
	}
	if bytes.Equal(k1, kb) {
		t.Error("distinct tenants share a migration key")
	}
	if bytes.Equal(k1, tn(t, p1, "a").memCfg.MACKey) {
		t.Error("migration key equals the storage MAC key")
	}
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}
