package securemem

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"github.com/salus-sim/salus/internal/config"
)

func testGeo() config.Geometry {
	return config.Geometry{SectorSize: 32, BlockSize: 128, ChunkSize: 256, PageSize: 4096}
}

func newSys(t *testing.T, model Model, totalPages, devicePages int) *System {
	t.Helper()
	s, err := New(Config{
		Geometry:    testGeo(),
		Model:       model,
		TotalPages:  totalPages,
		DevicePages: devicePages,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

var allModels = []Model{ModelNone, ModelConventional, ModelSalus}

func TestConfigValidate(t *testing.T) {
	base := Config{Geometry: testGeo(), TotalPages: 4, DevicePages: 2}
	if err := base.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Geometry.SectorSize = 64 },
		func(c *Config) { c.TotalPages = 0 },
		func(c *Config) { c.DevicePages = 0 },
		func(c *Config) { c.DevicePages = 8 }, // larger than total
	}
	for i, mut := range bad {
		c := base
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestNewRejectsUnknownModel(t *testing.T) {
	_, err := New(Config{Geometry: testGeo(), Model: Model(99), TotalPages: 2, DevicePages: 1})
	if err == nil {
		t.Error("unknown model accepted")
	}
}

func TestModelString(t *testing.T) {
	if ModelNone.String() != "none" || ModelConventional.String() != "conventional" || ModelSalus.String() != "salus" {
		t.Error("model names wrong")
	}
	if Model(42).String() == "" {
		t.Error("unknown model name empty")
	}
}

func TestReadFreshSystemReturnsZeros(t *testing.T) {
	for _, m := range allModels {
		s := newSys(t, m, 4, 2)
		buf := make([]byte, 64)
		if err := s.Read(0, buf); err != nil {
			t.Fatalf("%v: read fresh: %v", m, err)
		}
		for _, b := range buf {
			if b != 0 {
				t.Fatalf("%v: fresh read non-zero", m)
			}
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	for _, m := range allModels {
		s := newSys(t, m, 4, 2)
		data := []byte("the quick brown fox jumps over!!")
		if err := s.Write(100, data); err != nil {
			t.Fatalf("%v: write: %v", m, err)
		}
		got := make([]byte, len(data))
		if err := s.Read(100, got); err != nil {
			t.Fatalf("%v: read: %v", m, err)
		}
		if !bytes.Equal(got, data) {
			t.Errorf("%v: read %q, want %q", m, got, data)
		}
	}
}

func TestRoundTripAcrossEviction(t *testing.T) {
	// Write to page 0, then touch enough other pages to force its
	// eviction, then read it back (forcing re-migration).
	for _, m := range allModels {
		s := newSys(t, m, 6, 2)
		data := []byte("persistent-data-across-eviction!")
		if err := s.Write(0, data); err != nil {
			t.Fatalf("%v: write: %v", m, err)
		}
		for pg := 1; pg < 6; pg++ {
			if err := s.Write(HomeAddr(pg*4096), []byte{byte(pg)}); err != nil {
				t.Fatalf("%v: fill write: %v", m, err)
			}
		}
		if s.IsResident(0) {
			t.Fatalf("%v: page 0 still resident after pressure", m)
		}
		got := make([]byte, len(data))
		if err := s.Read(0, got); err != nil {
			t.Fatalf("%v: read back: %v", m, err)
		}
		if !bytes.Equal(got, data) {
			t.Errorf("%v: got %q, want %q", m, got, data)
		}
		if s.Stats().PageEvictions == 0 {
			t.Errorf("%v: no evictions recorded", m)
		}
	}
}

func TestPartialSectorWrite(t *testing.T) {
	for _, m := range allModels {
		s := newSys(t, m, 4, 2)
		if err := s.Write(10, []byte("abc")); err != nil { // straddles nothing, mid-sector
			t.Fatalf("%v: %v", m, err)
		}
		if err := s.Write(30, []byte("defgh")); err != nil { // straddles sectors 0 and 1
			t.Fatalf("%v: %v", m, err)
		}
		buf := make([]byte, 40)
		if err := s.Read(0, buf); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if string(buf[10:13]) != "abc" || string(buf[30:35]) != "defgh" {
			t.Errorf("%v: partial writes corrupted: %q", m, buf)
		}
	}
}

func TestOutOfRange(t *testing.T) {
	s := newSys(t, ModelSalus, 2, 1)
	if err := s.Read(HomeAddr(s.Size()), make([]byte, 1)); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("read past end: %v", err)
	}
	if err := s.Write(HomeAddr(s.Size()-1), make([]byte, 2)); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("write past end: %v", err)
	}
	if s.IsResident(HomeAddr(s.Size())) {
		t.Error("IsResident past end")
	}
}

func TestCiphertextNotPlaintext(t *testing.T) {
	// Bus snooping: the stored bytes must not reveal the written data.
	for _, m := range []Model{ModelConventional, ModelSalus} {
		s := newSys(t, m, 4, 2)
		secret := bytes.Repeat([]byte("SECRET!!"), 4) // one full sector
		if err := s.Write(0, secret); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		raw := s.RawHomeBytes(0, len(secret))
		if bytes.Contains(raw, []byte("SECRET")) {
			t.Errorf("%v: plaintext visible in home store", m)
		}
	}
	// ModelNone stores plaintext — the contrast the figure-3 baseline needs.
	s := newSys(t, ModelNone, 4, 2)
	secret := bytes.Repeat([]byte("SECRET!!"), 4)
	if err := s.Write(0, secret); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(s.RawHomeBytes(0, len(secret)), []byte("SECRET")) {
		t.Error("ModelNone unexpectedly hides plaintext")
	}
}

func TestSalusMigrationNeedsNoReencryption(t *testing.T) {
	s := newSys(t, ModelSalus, 8, 2)
	// Read-only sweep over all pages: lots of migrations and evictions.
	buf := make([]byte, 32)
	for pg := 0; pg < 8; pg++ {
		if err := s.Read(HomeAddr(pg*4096), buf); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.PageMigrationsIn != 8 {
		t.Fatalf("migrations = %d, want 8", st.PageMigrationsIn)
	}
	if st.PageEvictions == 0 {
		t.Fatal("no evictions")
	}
	if st.RelocationReEncryptions != 0 {
		t.Errorf("Salus performed %d relocation re-encryptions, want 0", st.RelocationReEncryptions)
	}
	if st.CollapseReEncryptions != 0 {
		t.Errorf("read-only workload collapsed with re-encryption %d times, want 0", st.CollapseReEncryptions)
	}
}

func TestConventionalMigrationReencrypts(t *testing.T) {
	s := newSys(t, ModelConventional, 8, 2)
	buf := make([]byte, 32)
	for pg := 0; pg < 8; pg++ {
		if err := s.Read(HomeAddr(pg*4096), buf); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	// Every migrated page re-encrypts all 128 sectors; evictions add more.
	if st.RelocationReEncryptions < 8*128 {
		t.Errorf("conventional relocation re-encryptions = %d, want >= %d", st.RelocationReEncryptions, 8*128)
	}
}

func TestSalusDirtyTrackingSkipsCleanChunks(t *testing.T) {
	s := newSys(t, ModelSalus, 4, 1)
	// Dirty exactly one chunk of page 0.
	if err := s.Write(0, make([]byte, 32)); err != nil {
		t.Fatal(err)
	}
	// Force eviction by touching page 1.
	if err := s.Read(4096, make([]byte, 32)); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.DirtyChunkWritebacks != 1 {
		t.Errorf("dirty chunk writebacks = %d, want 1", st.DirtyChunkWritebacks)
	}
	if st.CleanChunksSkipped != 15 {
		t.Errorf("clean chunks skipped = %d, want 15", st.CleanChunksSkipped)
	}
}

func TestSalusLazyMACFetchCounts(t *testing.T) {
	s := newSys(t, ModelSalus, 2, 1)
	// Touch 2 sectors in the same block: one MAC sector fetch.
	if err := s.Read(0, make([]byte, 32)); err != nil {
		t.Fatal(err)
	}
	if err := s.Read(32, make([]byte, 32)); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().LazyMACFetches; got != 1 {
		t.Errorf("lazy MAC fetches = %d, want 1", got)
	}
	// A different block fetches another.
	if err := s.Read(128, make([]byte, 32)); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().LazyMACFetches; got != 2 {
		t.Errorf("lazy MAC fetches = %d, want 2", got)
	}
}

func TestTamperHomeDetected(t *testing.T) {
	for _, m := range []Model{ModelConventional, ModelSalus} {
		s := newSys(t, m, 4, 2)
		if err := s.Write(0, []byte("important")); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if !s.CorruptHome(0) {
			t.Fatalf("%v: in-range CorruptHome reported failure", m)
		}
		err := s.Read(0, make([]byte, 8))
		if !errors.Is(err, ErrIntegrity) {
			t.Errorf("%v: tampered home read returned %v, want ErrIntegrity", m, err)
		}
		if s.CorruptHome(HomeAddr(s.Size())) {
			t.Errorf("%v: out-of-range CorruptHome reported success", m)
		}
	}
}

func TestTamperDeviceDetected(t *testing.T) {
	for _, m := range []Model{ModelConventional, ModelSalus} {
		s := newSys(t, m, 4, 2)
		if err := s.Write(0, []byte("important")); err != nil {
			t.Fatal(err)
		}
		if !s.CorruptDevice(0) {
			t.Fatalf("%v: page not resident", m)
		}
		err := s.Read(0, make([]byte, 8))
		if !errors.Is(err, ErrIntegrity) {
			t.Errorf("%v: tampered device read returned %v, want ErrIntegrity", m, err)
		}
	}
}

func TestSpliceDetected(t *testing.T) {
	for _, m := range []Model{ModelConventional, ModelSalus} {
		s := newSys(t, m, 4, 2)
		if err := s.Write(0, bytes.Repeat([]byte{1}, 32)); err != nil {
			t.Fatal(err)
		}
		if err := s.Write(32, bytes.Repeat([]byte{2}, 32)); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		// Move sector 1's valid ciphertext over sector 0.
		s.SpliceHome(0, 32)
		err := s.Read(0, make([]byte, 32))
		if !errors.Is(err, ErrIntegrity) {
			t.Errorf("%v: spliced read returned %v, want ErrIntegrity", m, err)
		}
	}
}

func TestSpliceDeviceDetected(t *testing.T) {
	// Device-resident splice: valid ciphertext relocated inside the device
	// memory. Both secure models bind the MAC to an address (home under
	// Salus, device under conventional), so the moved sector fails
	// verification; ModelNone has no MACs and is blind to it — the
	// baseline the secure models are measured against.
	for _, m := range allModels {
		s := newSys(t, m, 4, 2)
		if err := s.Write(0, bytes.Repeat([]byte{1}, 32)); err != nil {
			t.Fatal(err)
		}
		if err := s.Write(32, bytes.Repeat([]byte{2}, 32)); err != nil {
			t.Fatal(err)
		}
		if !s.IsResident(0) {
			t.Fatalf("%v: page 0 not resident after writes", m)
		}
		// Move sector 1's device-resident ciphertext over sector 0.
		if !s.SpliceDevice(0, 32) {
			t.Fatalf("%v: resident SpliceDevice reported failure", m)
		}
		buf := make([]byte, 32)
		err := s.Read(0, buf)
		if m == ModelNone {
			if err != nil {
				t.Errorf("none: spliced read returned %v, want silent acceptance", err)
			} else if !bytes.Equal(buf, bytes.Repeat([]byte{2}, 32)) {
				t.Errorf("none: spliced read returned %v, want the relocated bytes", buf)
			}
			continue
		}
		if !errors.Is(err, ErrIntegrity) {
			t.Errorf("%v: device-spliced read returned %v, want ErrIntegrity", m, err)
		}
	}
}

func TestSpliceDeviceRejectsNonResidentAndOutOfRange(t *testing.T) {
	s := newSys(t, ModelSalus, 4, 2)
	if s.SpliceDevice(0, 32) {
		t.Error("SpliceDevice on non-resident pages reported success")
	}
	if err := s.Write(0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if s.SpliceDevice(0, HomeAddr(s.Size())) {
		t.Error("SpliceDevice with out-of-range source reported success")
	}
	if s.SpliceDevice(HomeAddr(s.Size()), 0) {
		t.Error("SpliceDevice with out-of-range destination reported success")
	}
}

func TestReplayDetected(t *testing.T) {
	for _, m := range []Model{ModelConventional, ModelSalus} {
		s := newSys(t, m, 4, 2)
		if err := s.Write(0, []byte("version-1")); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		snap := s.SnapshotHomeChunk(0) // attacker records v1 + its metadata
		if err := s.Write(0, []byte("version-2")); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		s.ReplayHomeChunk(snap) // attacker restores everything untrusted
		err := s.Read(0, make([]byte, 9))
		if !errors.Is(err, ErrFreshness) {
			t.Errorf("%v: replayed read returned %v, want ErrFreshness", m, err)
		}
	}
}

func TestFlushIdempotent(t *testing.T) {
	for _, m := range allModels {
		s := newSys(t, m, 4, 2)
		if err := s.Write(0, []byte("x")); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatalf("%v: flush 1: %v", m, err)
		}
		if err := s.Flush(); err != nil {
			t.Fatalf("%v: flush 2: %v", m, err)
		}
		if s.ResidentPages() != 0 {
			t.Errorf("%v: %d pages resident after flush", m, s.ResidentPages())
		}
	}
}

func TestManyPagesStress(t *testing.T) {
	// Random-ish write/read mix across more pages than frames, verifying
	// data integrity end-to-end for every model.
	for _, m := range allModels {
		s := newSys(t, m, 10, 3)
		want := make(map[HomeAddr]byte)
		addr := HomeAddr(17)
		for i := 0; i < 400; i++ {
			addr = (addr*2654435761 + 12345) % HomeAddr(s.Size()-1)
			v := byte(i)
			if i%3 == 0 {
				if err := s.Write(addr, []byte{v}); err != nil {
					t.Fatalf("%v: write %d: %v", m, i, err)
				}
				want[addr] = v
			} else {
				var got [1]byte
				if err := s.Read(addr, got[:]); err != nil {
					t.Fatalf("%v: read %d: %v", m, i, err)
				}
				if w, ok := want[addr]; ok && got[0] != w {
					t.Fatalf("%v: addr %d = %d, want %d", m, addr, got[0], w)
				}
			}
		}
		// Final verification of all written addresses.
		for a, w := range want {
			var got [1]byte
			if err := s.Read(a, got[:]); err != nil {
				t.Fatalf("%v: final read: %v", m, err)
			}
			if got[0] != w {
				t.Fatalf("%v: final addr %d = %d, want %d", m, a, got[0], w)
			}
		}
	}
}

func TestStatsProgression(t *testing.T) {
	s := newSys(t, ModelSalus, 4, 2)
	if err := s.Write(0, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := s.Read(0, make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	// The partial-sector write's internal read-modify-write does not count
	// as a user-level Read.
	if st.Reads != 1 || st.Writes != 1 {
		t.Errorf("reads=%d writes=%d, want 1/1", st.Reads, st.Writes)
	}
	if st.MACVerifies == 0 {
		t.Error("no MAC verifies recorded")
	}
}

func TestSalusDeviceMinorOverflow(t *testing.T) {
	// The interleaving-friendly minors are 8 bits: 256 writes to one
	// sector overflow the group, forcing a one-chunk re-encryption sweep
	// under the incremented major. Data in the other sectors of the chunk
	// must survive.
	s := newSys(t, ModelSalus, 2, 1)
	if err := s.Write(32, []byte("neighbour sector, must survive!!")); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 32)
	for i := 0; i < 300; i++ {
		payload[0] = byte(i)
		if err := s.Write(0, payload); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if got := s.Stats().OverflowReEncryptions; got == 0 {
		t.Fatal("no overflow re-encryptions after 300 writes to one sector")
	}
	got := make([]byte, 32)
	if err := s.Read(0, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != byte(299%256) {
		t.Errorf("sector 0 byte = %d, want %d", got[0], byte(299%256))
	}
	if err := s.Read(32, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "neighbour sector, must survive!!" {
		t.Errorf("neighbour sector corrupted by overflow sweep: %q", got)
	}
	// And the state survives an eviction round trip.
	if err := s.Read(4096, make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Read(0, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != byte(299%256) {
		t.Errorf("after round trip: byte = %d, want %d", got[0], byte(299%256))
	}
}

func TestConventionalMinorOverflow(t *testing.T) {
	// Conventional 6-bit minors overflow after 63 increments; the whole
	// 1 KiB region covered by the counter sector re-encrypts.
	s := newSys(t, ModelConventional, 2, 1)
	if err := s.Write(64, []byte("data in the same counter region!")); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 32)
	for i := 0; i < 80; i++ {
		payload[0] = byte(i)
		if err := s.Write(0, payload); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if s.Stats().OverflowReEncryptions == 0 {
		t.Fatal("no overflow re-encryptions after 80 writes")
	}
	got := make([]byte, 32)
	if err := s.Read(64, got); err != nil {
		t.Fatal(err)
	}
	if string(got[:32]) != "data in the same counter region!" {
		t.Errorf("region neighbour corrupted: %q", got)
	}
}

// TestOpStatsAddFaultsSumsFaultBlock sets every counter of two OpStats and
// checks AddFaults sums exactly the fault block, TransientFaults through
// PoisonSkippedRelocations, and leaves every other counter alone.
func TestOpStatsAddFaultsSumsFaultBlock(t *testing.T) {
	var dst, src OpStats
	dv, sv := reflect.ValueOf(&dst).Elem(), reflect.ValueOf(&src).Elem()
	for i := 0; i < dv.NumField(); i++ {
		dv.Field(i).SetUint(100 + uint64(i))
		sv.Field(i).SetUint(1000 + uint64(i))
	}
	typ := dv.Type()
	first, _ := typ.FieldByName("TransientFaults")
	last, _ := typ.FieldByName("PoisonSkippedRelocations")
	dst.AddFaults(src)
	for i := 0; i < dv.NumField(); i++ {
		want := 100 + uint64(i)
		if i >= first.Index[0] && i <= last.Index[0] {
			want += 1000 + uint64(i)
		}
		if got := dv.Field(i).Uint(); got != want {
			t.Errorf("%s = %d after AddFaults, want %d", typ.Field(i).Name, got, want)
		}
	}
}
