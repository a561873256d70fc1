package tenant

import (
	"fmt"
	"sync"

	"github.com/salus-sim/salus/internal/config"
	"github.com/salus-sim/salus/internal/securemem"
	"github.com/salus-sim/salus/internal/sim"
	"github.com/salus-sim/salus/internal/stats"
)

// Pool is the shared backing tier plus the tenant engines carved over
// it. The pool allocates one home buffer and one device buffer, hands
// each tenant a disjoint window of both, and never again touches tenant
// bytes itself — every data-path byte flows through exactly one
// tenant's engine and key domain. The topology (slice map, tenant set)
// is immutable after NewPool; per-tenant mutable state lives inside
// each Tenant under its own locks, so pool lookups need no lock.
type Pool struct {
	geo        config.Geometry
	backing    *securemem.Backing
	tenants    map[string]*Tenant
	order      []*Tenant
	totalPages int
	frames     int

	// reclaimed is the only pool-level mutable state: the running count
	// of device frames handed back by DestroyTenant, locked inside its
	// own type so the immutable topology fields above stay lock-free.
	reclaimed reclaimCounter
}

// reclaimCounter is a mutex-carrying counter of reclaimed device frames.
type reclaimCounter struct {
	mu sync.Mutex
	n  int
}

func (c *reclaimCounter) add(n int) {
	c.mu.Lock()
	c.n += n
	c.mu.Unlock()
}

func (c *reclaimCounter) get() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// NewPool validates the slice layout, allocates the shared backing, and
// builds one engine per tenant — each with keys derived from the pool
// masters and the tenant identity, its own TrustedRoot lineage, and its
// own disjoint backing window.
func NewPool(cfg Config) (*Pool, error) {
	l, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	p := &Pool{
		geo:        cfg.Geometry,
		backing:    securemem.NewBacking(cfg.Geometry, l.totalPages, l.frames),
		tenants:    make(map[string]*Tenant, len(cfg.Slices)),
		totalPages: l.totalPages,
		frames:     l.frames,
	}
	for i, s := range cfg.Slices {
		aesKey, macKey := deriveKeys(cfg.AESKey, cfg.MACKey, s.ID)
		memCfg := securemem.Config{
			Geometry:    cfg.Geometry,
			Model:       securemem.ModelSalus,
			TotalPages:  s.Pages,
			DevicePages: s.Frames,
			AESKey:      aesKey,
			MACKey:      macKey,
			Shards:      s.Shards,
			Backing:     p.backing.Window(cfg.Geometry, l.bases[i], s.Pages, l.frameBase[i], s.Frames),
		}
		eng, err := securemem.NewConcurrent(memCfg)
		if err != nil {
			return nil, fmt.Errorf("tenant %q: %w", s.ID, err)
		}
		t := &Tenant{
			id:       s.ID,
			domain:   domainTag(aesKey, macKey, s.ID),
			basePage: l.bases[i],
			pages:    s.Pages,
			frames:   s.Frames,
			base:     uint64(l.bases[i]) * uint64(cfg.Geometry.PageSize),
			size:     uint64(s.Pages) * uint64(cfg.Geometry.PageSize),
			shards:   s.Shards,
			queueCap: cfg.QueueCap,
			memCfg:   memCfg,
			eng:      eng,
			bucket:   sim.NewTokenBucket(s.OpRate, s.OpBurst),
		}
		p.tenants[s.ID] = t
		p.order = append(p.order, t)
	}
	return p, nil
}

// Tenant returns the named tenant, or ErrUnknownTenant.
func (p *Pool) Tenant(id string) (*Tenant, error) {
	t, ok := p.tenants[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, id)
	}
	return t, nil
}

// Tenants returns the pool's tenants in slice-declaration order.
func (p *Pool) Tenants() []*Tenant {
	out := make([]*Tenant, len(p.order))
	copy(out, p.order)
	return out
}

// TotalPages returns the shared home pool size in pages.
func (p *Pool) TotalPages() int { return p.totalPages }

// DeviceFrames returns the shared device tier size in frames.
func (p *Pool) DeviceFrames() int { return p.frames }

// Geometry returns the pool geometry.
func (p *Pool) Geometry() config.Geometry { return p.geo }

// Stats returns per-tenant counter snapshots in declaration order.
func (p *Pool) Stats() []stats.TenantOps {
	out := make([]stats.TenantOps, 0, len(p.order))
	for _, t := range p.order {
		out = append(out, t.Stats())
	}
	return out
}

// RecoverTenant rebuilds one tenant from its checkpoint journal and
// trusted root, swapping the recovered engine in under the tenant's
// exclusive lock. Only that tenant's backing window is rewritten; every
// sibling keeps serving from its own domain while the recovery runs —
// that containment is exactly what the chaos campaign's blast-radius
// oracle asserts.
func (p *Pool) RecoverTenant(id string, journal []byte, root securemem.TrustedRoot) error {
	t, err := p.Tenant(id)
	if err != nil {
		return err
	}
	t.state.Lock()
	defer t.state.Unlock()
	if t.eng == nil {
		return fmt.Errorf("%w: cannot recover %q", ErrTenantClosed, id)
	}
	sys, err := securemem.Recover(t.memCfg, journal, root)
	if err != nil {
		return err
	}
	t.eng = securemem.ConcurrentFrom(sys, t.shards)
	t.mu.Lock()
	t.ops.Recovers++
	t.mu.Unlock()
	return nil
}

// DestroyTenant retires one tenant: under the tenant's exclusive lock
// it zeroizes the derived key material, scrubs the tenant's home and
// device backing windows (the frame partition returns to the pool with
// no ciphertext residue), and drops the engine, so every later
// operation under that identity — reads, writes, checkpoints, even
// RecoverTenant with a valid journal — fails typed ErrTenantClosed.
// This is the retirement step after a tenant migrates away: the source
// copy must become cryptographically unreachable, not merely idle.
// Destroying an already-destroyed tenant fails ErrTenantClosed;
// siblings are untouched throughout.
func (p *Pool) DestroyTenant(id string) error {
	t, err := p.Tenant(id)
	if err != nil {
		return err
	}
	t.state.Lock()
	defer t.state.Unlock()
	if t.eng == nil {
		return fmt.Errorf("%w: %q already destroyed", ErrTenantClosed, id)
	}
	for i := range t.memCfg.AESKey {
		t.memCfg.AESKey[i] = 0
	}
	for i := range t.memCfg.MACKey {
		t.memCfg.MACKey[i] = 0
	}
	if b := t.memCfg.Backing; b != nil {
		for i := range b.Home {
			b.Home[i] = 0
		}
		for i := range b.Device {
			b.Device[i] = 0
		}
	}
	t.eng = nil
	p.reclaimed.add(t.frames)
	return nil
}

// ReclaimedFrames reports how many device frames DestroyTenant has
// handed back to the pool so far.
func (p *Pool) ReclaimedFrames() int {
	return p.reclaimed.get()
}

// SpliceHome copies n raw bytes of home-tier ciphertext from src to dst
// (pool-global addresses), modelling an attacker with physical access
// to the shared CXL pool replaying a sibling's ciphertext into its own
// slice. It bypasses every tenant gate on purpose: it is the attack
// surface the verification campaign drives, mirroring securemem's
// inject helpers. The defence under test is cryptographic — spliced
// bytes can never verify under the victim-distinct key domain — not the
// address gate. Out-of-pool ranges fail with securemem.ErrOutOfRange.
func (p *Pool) SpliceHome(dst, src securemem.HomeAddr, n int) error {
	size := uint64(p.totalPages) * uint64(p.geo.PageSize)
	d, s := uint64(dst), uint64(src)
	if n < 0 || d > size || uint64(n) > size-d || s > size || uint64(n) > size-s {
		return fmt.Errorf("%w: splice [%d,+%d) <- [%d,+%d) outside pool of %d bytes",
			securemem.ErrOutOfRange, d, n, s, n, size)
	}
	copy(p.backing.Home[d:d+uint64(n)], p.backing.Home[s:s+uint64(n)])
	return nil
}
