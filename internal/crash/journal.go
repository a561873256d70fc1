package crash

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Record framing on the medium:
//
//	[0:2]   magic "SJ"
//	[2]     record type (TypeCommit for commits, caller-defined below it)
//	[3:11]  epoch, little-endian uint64
//	[11:15] payload length, little-endian uint32
//	[15:..] payload
//	[..+4]  CRC32 (IEEE) over bytes [2:15+plen] — type, epoch, length, payload
//
// Each record is exactly one StableStore write, so every record edge is a
// crash point.
const (
	recHeaderLen  = 2 + 1 + 8 + 4
	recTrailerLen = 4

	// TypeCommit marks an epoch's commit record; its payload is the
	// little-endian uint32 count of the epoch's data records. All data
	// record types must be below it.
	TypeCommit byte = 0xC0

	// maxPayload bounds a record payload; longer declared lengths are
	// treated as corruption rather than honoured.
	maxPayload = 1 << 28
)

var recMagic = [2]byte{'S', 'J'}

// Record is one journal entry as seen by Replay.
type Record struct {
	Type    byte
	Epoch   uint64
	Payload []byte
}

// Journal appends framed records to a StableStore with two-phase epoch
// commit: data records are written (one store write each), then synced,
// then a commit record carrying the epoch's record count is written and
// synced. An epoch whose commit record is not durable never happened.
//
// Journal is an append-only writer; reading a journal back is Replay's
// job and operates on raw medium bytes.
type Journal struct {
	store    StableStore
	frame    []byte // record buffer reused by every append; stores copy what they keep
	written  uint64
	curEpoch uint64
	pending  uint32 // data records appended in curEpoch since its last commit
}

// NewJournal returns a journal writing through store.
func NewJournal(store StableStore) *Journal {
	return &Journal{store: store}
}

// Append writes one data record of the given epoch. typ must be below
// TypeCommit. Epochs must not interleave: appending a record of a new
// epoch abandons any uncommitted records of the previous one (Replay will
// discard them).
func (j *Journal) Append(typ byte, epoch uint64, payload []byte) error {
	return j.AppendEncoded(typ, epoch, len(payload), func(p []byte) { copy(p, payload) })
}

// AppendEncoded is Append for an n-byte payload that encode writes
// straight into the framed record, so a payload built for the journal
// is never built elsewhere and copied in. encode must fill all n bytes
// and must not keep the slice.
func (j *Journal) AppendEncoded(typ byte, epoch uint64, n int, encode func(payload []byte)) error {
	if typ >= TypeCommit {
		return fmt.Errorf("crash: record type %#x reserved for commit records", typ)
	}
	if epoch != j.curEpoch {
		j.curEpoch = epoch
		j.pending = 0
	}
	if err := j.write(typ, epoch, n, encode); err != nil {
		return err
	}
	j.pending++
	return nil
}

// Commit makes the epoch durable: it syncs the epoch's data records,
// writes the commit record carrying their count, and syncs again. Only
// after Commit returns nil is the epoch recoverable.
func (j *Journal) Commit(epoch uint64) error {
	var count uint32
	if epoch == j.curEpoch {
		count = j.pending
	}
	if err := j.store.Sync(); err != nil {
		return err
	}
	if err := j.write(TypeCommit, epoch, 4, func(p []byte) { binary.LittleEndian.PutUint32(p, count) }); err != nil {
		return err
	}
	if err := j.store.Sync(); err != nil {
		return err
	}
	j.curEpoch = epoch
	j.pending = 0
	return nil
}

// BytesWritten returns the total framed bytes handed to the store.
func (j *Journal) BytesWritten() uint64 { return j.written }

// write frames one record in the reusable buffer, with encode filling
// its n-byte payload in place, and hands it to the store as one write.
func (j *Journal) write(typ byte, epoch uint64, n int, encode func(payload []byte)) error {
	size := recHeaderLen + n + recTrailerLen
	if cap(j.frame) < size {
		j.frame = make([]byte, size)
	}
	rec := j.frame[:size]
	copy(rec, recMagic[:])
	rec[2] = typ
	binary.LittleEndian.PutUint64(rec[3:], epoch)
	binary.LittleEndian.PutUint32(rec[11:], uint32(n))
	encode(rec[recHeaderLen : recHeaderLen+n])
	sum := crc32.ChecksumIEEE(rec[2 : recHeaderLen+n])
	binary.LittleEndian.PutUint32(rec[recHeaderLen+n:], sum)
	if err := j.store.Write(rec); err != nil {
		return err
	}
	j.written += uint64(size)
	return nil
}

// Replay scans raw journal bytes and returns, in order, the data records
// of every committed epoch up to and including target — the incremental
// history that reconstructs the target epoch's state. It stops at
// target's commit record; damage beyond it (the normal debris of a crash
// mid-checkpoint) is never examined.
//
// Outcomes:
//   - target reached: ([]Record, nil). target 0 means "never
//     checkpointed" and returns (nil, nil) without reading the journal.
//   - damage before target's commit — bad magic, bad CRC, truncated
//     record, epoch ordering violation, or a commit count that does not
//     match the records present: (nil, ErrTornCheckpoint).
//   - the journal ends cleanly at a record edge with fewer commits than
//     target: (nil, ErrRollback) — an internally valid but stale journal
//     is a rollback of the trusted epoch, never silently accepted.
func Replay(data []byte, target uint64) ([]Record, error) {
	return ReplaySince(data, 0, target)
}

// ReplaySince is Replay over a journal suffix: data starts just after
// the commit record of epoch base, and every epoch in it must lie above
// base, exactly as it would in the whole journal. A journal cut right
// after commit records and replayed one delta at a time, each call's
// base the previous call's target, yields exactly the records one
// Replay of the whole journal returns. target equal to base returns
// (nil, nil) without reading data; target below base is ErrRollback.
//
// Returned payloads alias data; callers that keep them past the next
// change to data must copy.
func ReplaySince(data []byte, base, target uint64) ([]Record, error) {
	if target == base {
		return nil, nil
	}
	if target < base {
		return nil, fmt.Errorf("%w: trusted epoch %d is below replayed epoch %d", ErrRollback, target, base)
	}
	var (
		out          []Record
		committed    = base   // last committed epoch seen
		pendingEpoch uint64   // epoch of the uncommitted records below
		pendingRecs  []Record // records of pendingEpoch since its last record run began
	)
	off := 0
	for off < len(data) {
		rec, n, err := decodeRecord(data[off:])
		if err != nil {
			return nil, fmt.Errorf("%w: offset %d: %v", ErrTornCheckpoint, off, err)
		}
		off += n
		if rec.Type == TypeCommit {
			if len(rec.Payload) != 4 {
				return nil, fmt.Errorf("%w: offset %d: commit payload length %d", ErrTornCheckpoint, off-n, len(rec.Payload))
			}
			if rec.Epoch <= committed {
				return nil, fmt.Errorf("%w: offset %d: commit epoch %d not above %d", ErrTornCheckpoint, off-n, rec.Epoch, committed)
			}
			want := binary.LittleEndian.Uint32(rec.Payload)
			var have uint32
			if pendingEpoch == rec.Epoch {
				have = uint32(len(pendingRecs))
			}
			if want != have {
				return nil, fmt.Errorf("%w: offset %d: epoch %d committed %d records, found %d", ErrTornCheckpoint, off-n, rec.Epoch, want, have)
			}
			out = append(out, pendingRecs...)
			pendingRecs = nil
			committed = rec.Epoch
			if committed >= target {
				if committed > target {
					// The first commit past an honest journal's trusted
					// epoch means the root predates the journal — it is
					// the journal that is ahead, not behind; treat the
					// root as stale TCB state and refuse.
					return nil, fmt.Errorf("%w: journal committed epoch %d beyond trusted epoch %d", ErrTornCheckpoint, committed, target)
				}
				return out, nil
			}
			continue
		}
		if rec.Epoch <= committed {
			return nil, fmt.Errorf("%w: offset %d: record epoch %d not above committed %d", ErrTornCheckpoint, off-n, rec.Epoch, committed)
		}
		if rec.Epoch != pendingEpoch {
			// A new epoch abandons the previous uncommitted one.
			pendingEpoch = rec.Epoch
			pendingRecs = pendingRecs[:0]
		}
		pendingRecs = append(pendingRecs, rec)
	}
	return nil, fmt.Errorf("%w: journal ends at committed epoch %d, trusted epoch is %d", ErrRollback, committed, target)
}

// decodeRecord parses one record at the head of data, returning it and
// the bytes consumed.
func decodeRecord(data []byte) (Record, int, error) {
	if len(data) < recHeaderLen+recTrailerLen {
		return Record{}, 0, fmt.Errorf("truncated record header (%d bytes)", len(data))
	}
	if data[0] != recMagic[0] || data[1] != recMagic[1] {
		return Record{}, 0, fmt.Errorf("bad record magic %#x%x", data[0], data[1])
	}
	plen := binary.LittleEndian.Uint32(data[11:])
	if plen > maxPayload {
		return Record{}, 0, fmt.Errorf("implausible payload length %d", plen)
	}
	total := recHeaderLen + int(plen) + recTrailerLen
	if len(data) < total {
		return Record{}, 0, fmt.Errorf("truncated record body (%d of %d bytes)", len(data), total)
	}
	sum := crc32.ChecksumIEEE(data[2 : recHeaderLen+int(plen)])
	if sum != binary.LittleEndian.Uint32(data[recHeaderLen+int(plen):]) {
		return Record{}, 0, fmt.Errorf("record checksum mismatch")
	}
	return Record{
		Type:    data[2],
		Epoch:   binary.LittleEndian.Uint64(data[3:]),
		Payload: data[recHeaderLen : recHeaderLen+int(plen) : recHeaderLen+int(plen)],
	}, total, nil
}

// CommittedEpoch scans the journal and returns the highest cleanly
// committed epoch, ignoring any trailing damage. It is a diagnostic aid
// (and the crash harness's ground truth for pairing cuts with roots);
// recovery itself must use Replay with the trusted epoch, never trust the
// journal's own word.
func CommittedEpoch(data []byte) uint64 {
	var (
		committed    uint64
		pendingEpoch uint64
		pendingN     uint32
	)
	off := 0
	for off < len(data) {
		rec, n, err := decodeRecord(data[off:])
		if err != nil {
			break
		}
		off += n
		if rec.Type == TypeCommit {
			if len(rec.Payload) != 4 || rec.Epoch <= committed {
				break
			}
			var have uint32
			if pendingEpoch == rec.Epoch {
				have = pendingN
			}
			if binary.LittleEndian.Uint32(rec.Payload) != have {
				break
			}
			committed = rec.Epoch
			pendingN = 0
			continue
		}
		if rec.Epoch <= committed {
			break
		}
		if rec.Epoch != pendingEpoch {
			pendingEpoch = rec.Epoch
			pendingN = 0
		}
		pendingN++
	}
	return committed
}
