package check

import "math/rand"

// FillData returns the deterministic payload for a write op: a function of
// (tag, length) only, so a shrunk sequence printed as a regression test
// reproduces its payloads without embedding them.
func FillData(tag byte, n int) []byte {
	d := make([]byte, n)
	for i := range d {
		d[i] = byte(uint32(tag)*131 + uint32(i)*29 + 7)
	}
	return d
}

// opHostile is a generator-only kind: an out-of-range or address-wrapping
// read or write probe that every model must reject identically.
const opHostile OpKind = 255

// Length classes a mix draws op lengths from.
const (
	lenTiny       = iota // 1-4 bytes
	lenTinyOrZero        // lenTiny, or zero one time in eight
	lenSector            // exactly one sector
	lenStraddle          // one sector plus one byte
	lenMulti             // a multi-sector straddle
	lenHalfChunk         // half a chunk or more: can straddle chunks
	lenSmall             // 1 to two sectors
)

// mixEntry gives rolls below bound (out of 100) the op kind.
type mixEntry struct {
	below int
	kind  OpKind
}

// opMix is one mode's generator table. Each op rolls rng.Intn(100) and
// takes the kind of the first entry whose bound exceeds the roll; a
// length rolls rng.Intn(len(lens)). The table fixes the mode's RNG draw
// order, so changing it changes every sequence of the mode.
type opMix struct {
	ops  []mixEntry
	lens []int
	// inRange clamps lengths to the address space (no hostile ops).
	inRange bool
	// epochEvery, when > 0, makes every epochEvery-th op an epoch
	// checkpoint instead of a roll.
	epochEvery int
}

// The three mixes. Plain is differential and adversarial: ~13% hostile
// probes. Crash wants maximal dirty-state churn between commits; link
// wants home-tier traffic heavy on writes and flushes (parking
// pressure) with periodic drains so recovery interleaves with outages.
var (
	plainMix = opMix{
		ops: []mixEntry{
			{26, OpRead}, {56, OpWrite}, {64, OpReadThrough}, {74, OpWriteThrough},
			{80, OpCheckpoint}, {85, OpFlush}, {87, OpSuspendResume}, {100, opHostile},
		},
		lens: []int{lenTinyOrZero, lenSector, lenStraddle, lenMulti, lenHalfChunk, lenSmall, lenSmall, lenSmall},
	}
	crashMix = opMix{
		ops: []mixEntry{
			{34, OpWrite}, {50, OpRead}, {66, OpWriteThrough}, {76, OpReadThrough},
			{88, OpCheckpoint}, {100, OpFlush},
		},
		lens:    []int{lenTiny, lenSector, lenStraddle, lenHalfChunk, lenSmall, lenSmall},
		inRange: true,
	}
	linkMix = opMix{
		ops: []mixEntry{
			{30, OpWrite}, {52, OpRead}, {66, OpWriteThrough}, {76, OpReadThrough},
			{84, OpCheckpoint}, {94, OpFlush}, {100, OpDrainWritebacks},
		},
		lens:    crashMix.lens,
		inRange: true,
	}
)

// generate produces the deterministic n-op sequence for one seed over
// space sp. The distribution is deliberately skewed: addresses favour
// chunk boundaries (straddles), lengths favour partial and multi-sector
// spans, and the device tier is far smaller than the footprint so
// migrations and evictions are constant.
func generate(seed int64, n int, sp Space, mix opMix) Sequence {
	rng := rand.New(rand.NewSource(seed))
	g := sp.Geometry
	size := sp.size()

	addr := func() uint64 {
		page := rng.Intn(sp.TotalPages)
		var off int
		switch rng.Intn(4) {
		case 0: // a few bytes before a chunk boundary: forces a straddle
			c := 1 + rng.Intn(g.ChunksPerPage()-1)
			off = c*g.ChunkSize - (1 + rng.Intn(4))
		case 1: // sector-aligned
			off = rng.Intn(g.SectorsPerPage()) * g.SectorSize
		case 2: // chunk-aligned
			off = rng.Intn(g.ChunksPerPage()) * g.ChunkSize
		default:
			off = rng.Intn(g.PageSize)
		}
		return uint64(page*g.PageSize + off)
	}
	length := func(a uint64) int {
		var l int
		switch mix.lens[rng.Intn(len(mix.lens))] {
		case lenTinyOrZero:
			if rng.Intn(8) == 0 {
				return 0
			}
			l = 1 + rng.Intn(4)
		case lenTiny:
			l = 1 + rng.Intn(4)
		case lenSector:
			l = g.SectorSize
		case lenStraddle:
			l = g.SectorSize + 1
		case lenMulti:
			l = 2*g.SectorSize + 3
		case lenHalfChunk:
			l = g.ChunkSize/2 + rng.Intn(g.ChunkSize)
		default:
			l = 1 + rng.Intn(2*g.SectorSize)
		}
		if mix.inRange && uint64(l) > size-a {
			l = int(size - a)
		}
		return l
	}
	hostile := func() (uint64, int) {
		switch rng.Intn(4) {
		case 0: // past the end
			return size + uint64(rng.Intn(1024)), 1 + rng.Intn(64)
		case 1: // addr+len wraps around 2^64 — the classic bounds-check trap
			return ^uint64(0) - uint64(rng.Intn(64)), 1 + rng.Intn(96)
		case 2: // in-range addr, range crosses the end
			return size - uint64(1+rng.Intn(32)), 33 + rng.Intn(64)
		default: // in-range addr, absurd length
			return uint64(rng.Intn(int(size))), int(size) + rng.Intn(256)
		}
	}

	ops := make([]Op, 0, n+1)
	var tag byte
	for i := 0; i < n; i++ {
		if mix.epochEvery > 0 && (i+1)%mix.epochEvery == 0 {
			ops = append(ops, Op{Kind: OpEpochCheckpoint})
			continue
		}
		r := rng.Intn(100)
		var kind OpKind
		for _, e := range mix.ops {
			if kind = e.kind; r < e.below {
				break
			}
		}
		op := Op{Kind: kind}
		switch kind {
		case OpRead, OpReadThrough:
			op.Addr = addr()
			op.Len = length(op.Addr)
		case OpWrite, OpWriteThrough:
			tag++
			op.Addr = addr()
			op.Len, op.Tag = length(op.Addr), tag
		case OpCheckpoint:
			op.Addr = addr()
		case opHostile:
			op.Addr, op.Len = hostile()
			if op.Kind = OpRead; rng.Intn(2) != 0 {
				tag++
				op.Kind, op.Tag = OpWrite, tag
			}
		}
		ops = append(ops, op)
	}
	return Sequence{Seed: seed, Ops: ops}
}
