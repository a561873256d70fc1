// Package bmt implements a Bonsai Merkle Tree: the integrity tree built
// over encryption-counter blocks that provides freshness (replay
// protection). Interior nodes are keyed hashes of their children; the root
// lives inside the TCB and is never written to untrusted memory. Replaying
// a stale counter block makes the recomputed path disagree with the stored
// nodes (or ultimately the root), which verification reports as an error.
//
// The tree is built level by level with arity Arity over fixed-size leaf
// sectors. Per the paper, each memory tier maintains its own local tree:
// the device tree covers the interleaving-friendly counter region, and the
// CXL tree covers the compact collapsed-counter region — which is what
// shrinks the CXL tree relative to building over MAC blocks (§IV-A2).
package bmt

import (
	"errors"
	"fmt"
	"sync"

	"github.com/salus-sim/salus/internal/security/cryptoeng"
)

// Arity is the tree fan-out: a 32-byte node hash covers 8 children.
const Arity = 8

// LeafBytes is the size of one leaf (a counter sector image).
const LeafBytes = 32

// Tree is a Bonsai Merkle Tree over a fixed number of leaves.
//
// levels[0] holds the leaf hashes; levels[len-1] holds the single root.
// The untrusted storage holds the leaf data itself and (conceptually) the
// interior nodes below the root; the root hash is TCB state.
//
// A Tree is safe for concurrent use: every exported method takes the
// internal mutex. Callers that already serialise access to a tree (a
// securemem shard lock over its device subtree) find the mutex
// uncontended.
type Tree struct {
	mu       sync.Mutex
	eng      *cryptoeng.Engine
	nLeaves  int
	levels   [][][32]byte
	leafData [][LeafBytes]byte

	// scratch holds one node's concatenated child hashes while they are
	// hashed, so rehashing and verification allocate nothing. Guarded by
	// mu.
	scratch [Arity * 32]byte

	// Trusted-node cache (see SetTrustCache).
	trusted  map[[2]int]bool
	trustCap int
}

// New builds a tree over initially zeroed leaves.
func New(eng *cryptoeng.Engine, nLeaves int) (*Tree, error) {
	if eng == nil {
		return nil, errors.New("bmt: nil engine")
	}
	if nLeaves <= 0 {
		return nil, fmt.Errorf("bmt: leaf count %d must be positive", nLeaves)
	}
	t := &Tree{eng: eng, nLeaves: nLeaves, leafData: make([][LeafBytes]byte, nLeaves)}
	// Build level sizes.
	for n := nLeaves; ; n = (n + Arity - 1) / Arity {
		t.levels = append(t.levels, make([][32]byte, n))
		if n == 1 {
			break
		}
	}
	for i := 0; i < nLeaves; i++ {
		t.rehashLeaf(i)
	}
	for lvl := 1; lvl < len(t.levels); lvl++ {
		for i := range t.levels[lvl] {
			t.rehashNode(lvl, i)
		}
	}
	return t, nil
}

// Leaves returns the leaf count.
func (t *Tree) Leaves() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.nLeaves
}

// Levels returns the number of levels including leaf hashes and root.
func (t *Tree) Levels() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.levels)
}

// InteriorNodes returns the number of nodes stored in untrusted memory:
// everything except the root (leaf data is counted separately as counter
// storage, but leaf hash nodes are materialised tree nodes).
func (t *Tree) InteriorNodes() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for lvl := 0; lvl < len(t.levels)-1; lvl++ {
		n += len(t.levels[lvl])
	}
	return n
}

// Root returns the current root hash (TCB state).
func (t *Tree) Root() [32]byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.root()
}

func (t *Tree) root() [32]byte { return t.levels[len(t.levels)-1][0] }

func (t *Tree) rehashLeaf(i int) {
	t.levels[0][i] = t.eng.HashNode(t.leafData[i][:], 0, i)
}

func (t *Tree) rehashNode(lvl, i int) {
	t.levels[lvl][i] = t.hashChildren(lvl, i)
}

// hashCandidate hashes candidate leaf data from the scratch buffer: a
// slice of the caller's array would escape into the hash and move the
// array to the heap.
func (t *Tree) hashCandidate(leaf int, data [LeafBytes]byte) [32]byte {
	copy(t.scratch[:], data[:])
	return t.eng.HashNode(t.scratch[:LeafBytes], 0, leaf)
}

// hashChildren recomputes node i of level lvl from the stored hashes of
// its children, staged in the tree's scratch buffer.
func (t *Tree) hashChildren(lvl, i int) [32]byte {
	kids := t.levels[lvl-1]
	first := i * Arity
	last := min(first+Arity, len(kids))
	n := 0
	for c := first; c < last; c++ {
		n += copy(t.scratch[n:], kids[c][:])
	}
	return t.eng.HashNode(t.scratch[:n], lvl, i)
}

// Update installs new leaf data and recomputes the path to the root. This
// is the write-side operation: it happens when a counter block is written
// back to memory.
func (t *Tree) Update(leaf int, data [LeafBytes]byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if leaf < 0 || leaf >= t.nLeaves {
		return fmt.Errorf("bmt: leaf %d out of range [0,%d)", leaf, t.nLeaves)
	}
	t.leafData[leaf] = data
	t.rehashLeaf(leaf)
	t.trust(0, leaf)
	idx := leaf
	for lvl := 1; lvl < len(t.levels); lvl++ {
		idx /= Arity
		t.rehashNode(lvl, idx)
		t.trust(lvl, idx)
	}
	return nil
}

// Leaf returns the stored leaf data (what untrusted memory holds).
func (t *Tree) Leaf(leaf int) ([LeafBytes]byte, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if leaf < 0 || leaf >= t.nLeaves {
		return [LeafBytes]byte{}, fmt.Errorf("bmt: leaf %d out of range [0,%d)", leaf, t.nLeaves)
	}
	return t.leafData[leaf], nil
}

// Verify checks candidate leaf data (as read from untrusted memory)
// against the tree: it recomputes the leaf hash and the path upward and
// compares against the root. A replayed (stale) or tampered leaf fails.
func (t *Tree) Verify(leaf int, data [LeafBytes]byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if leaf < 0 || leaf >= t.nLeaves {
		return fmt.Errorf("bmt: leaf %d out of range [0,%d)", leaf, t.nLeaves)
	}
	h := t.hashCandidate(leaf, data)
	if h != t.levels[0][leaf] {
		return fmt.Errorf("bmt: leaf %d hash mismatch (tampered or replayed counter block)", leaf)
	}
	// Recompute the path from stored sibling hashes and compare to root —
	// this is what defeats an attacker who also replays interior nodes.
	idx := leaf
	for lvl := 1; lvl < len(t.levels); lvl++ {
		parent := idx / Arity
		h = t.hashChildren(lvl, parent)
		if h != t.levels[lvl][parent] {
			return fmt.Errorf("bmt: level %d node %d mismatch", lvl, parent)
		}
		idx = parent
	}
	if h != t.root() {
		return errors.New("bmt: root mismatch")
	}
	return nil
}

// CorruptLeafForTest overwrites stored leaf data without rehashing,
// simulating a physical attack on untrusted memory. Tests use it to check
// that Verify detects the attack.
func (t *Tree) CorruptLeafForTest(leaf int, data [LeafBytes]byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.leafData[leaf] = data
}

// PathLength returns the number of tree-node reads needed to verify a leaf
// when nothing is cached: one node per level below the root.
func PathLength(nLeaves int) int {
	if nLeaves <= 0 {
		return 0
	}
	levels := 1
	for n := nLeaves; n > 1; n = (n + Arity - 1) / Arity {
		levels++
	}
	return levels - 1
}

// SetTrustCache enables a bounded cache of trusted interior nodes
// (capacity entries; 0 disables). It models the hardware BMT cache: a node
// that was verified against the root — or produced on-chip by an update —
// is trusted, and a later verification may stop at the first trusted
// ancestor instead of walking to the root. When the cache overflows it is
// cleared wholesale (a cheap approximation of eviction that can only cause
// extra verification work, never unsoundness).
func (t *Tree) SetTrustCache(capacity int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.trustCap = capacity
	t.trusted = nil
	if capacity > 0 {
		t.trusted = make(map[[2]int]bool, capacity)
	}
}

func (t *Tree) trust(level, index int) {
	if t.trusted == nil {
		return
	}
	if len(t.trusted) >= t.trustCap {
		clear(t.trusted)
	}
	t.trusted[[2]int{level, index}] = true
}

func (t *Tree) isTrusted(level, index int) bool {
	return t.trusted != nil && t.trusted[[2]int{level, index}]
}

// VerifyCached is Verify with the trusted-node cache: the upward walk ends
// at the first trusted ancestor. Without a cache configured it is exactly
// Verify.
func (t *Tree) VerifyCached(leaf int, data [LeafBytes]byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if leaf < 0 || leaf >= t.nLeaves {
		return fmt.Errorf("bmt: leaf %d out of range [0,%d)", leaf, t.nLeaves)
	}
	h := t.hashCandidate(leaf, data)
	if h != t.levels[0][leaf] {
		return fmt.Errorf("bmt: leaf %d hash mismatch (tampered or replayed counter block)", leaf)
	}
	if t.isTrusted(0, leaf) {
		return nil
	}
	idx := leaf
	for lvl := 1; lvl < len(t.levels); lvl++ {
		parent := idx / Arity
		h = t.hashChildren(lvl, parent)
		if h != t.levels[lvl][parent] {
			return fmt.Errorf("bmt: level %d node %d mismatch", lvl, parent)
		}
		if t.isTrusted(lvl, parent) || lvl == len(t.levels)-1 {
			// Reached a trusted ancestor (or the in-TCB root): the whole
			// walked path is now trusted. The node walked at level l is
			// leaf/Arity^l, so the path needs no record of its own.
			for l, i := 0, leaf; l <= lvl; l, i = l+1, i/Arity {
				t.trust(l, i)
			}
			return nil
		}
		idx = parent
	}
	return nil
}
