package securemem

import (
	"errors"

	"github.com/salus-sim/salus/internal/security/bmt"
	"github.com/salus-sim/salus/internal/security/counters"
	"github.com/salus-sim/salus/internal/security/cryptoeng"
	"github.com/salus-sim/salus/internal/security/maclib"
)

// ReKey rotates the encryption and MAC keys: every sector is decrypted
// under the old keys and re-encrypted under the new ones, all counters
// reset to zero (safe, because the fresh key makes the OTP space new), and
// the integrity trees are rebuilt. This is the standard response to
// key-lifetime policy or impending global counter exhaustion.
//
// The device tier is flushed first, so after ReKey the home tier is the
// single source of truth under the new keys. The operation is atomic from
// the caller's perspective: on any error the system is left unchanged.
func (s *System) ReKey(newAESKey, newMACKey []byte) error {
	if s.cfg.Model == ModelNone {
		return errors.New("securemem: ReKey requires an encrypted model")
	}
	newEng, err := cryptoeng.New(newAESKey, newMACKey, maclib.MACBits)
	if err != nil {
		return err
	}
	if err := s.Flush(); err != nil {
		return err
	}

	// Decrypt the whole home store under the current keys and counters.
	ss := s.geo.SectorSize
	nSectors := len(s.cxlData) / ss
	plain := make([]byte, len(s.cxlData))
	for sec := 0; sec < nSectors; sec++ {
		addr := HomeAddr(sec * ss)
		major, minor, err := s.currentHomePair(addr)
		if err != nil {
			return err
		}
		ct := s.cxlData[sec*ss : (sec+1)*ss]
		bump(&s.pageState(addr.Page(s.geo.PageSize)).macVerifies)
		if !s.eng.VerifyMAC(ct, uint64(addr), major, minor, s.homeMAC(addr)) {
			return ErrIntegrity
		}
		if err := s.eng.DecryptSector(plain[sec*ss:(sec+1)*ss], ct, uint64(addr), major, minor); err != nil {
			return err
		}
	}

	// Swap keys, reset all counter state, and re-encrypt under zero
	// counters with fresh MACs and trees.
	s.eng = newEng
	switch s.cfg.Model {
	case ModelSalus:
		for i := range s.collapsed {
			s.collapsed[i] = counters.CollapsedSector{}
		}
		if s.cxlSplit != nil {
			for i := range s.cxlSplit {
				s.cxlSplit[i] = counters.CXLSplitSector{}
				s.splitDirty[i] = false
			}
			s.splitTree, err = bmt.New(s.eng, len(s.cxlSplit))
			if err != nil {
				return err
			}
		}
		s.cxlTree, err = bmt.New(s.eng, len(s.collapsed))
		if err != nil {
			return err
		}
		s.buildDevTrees() // the Flush above left no page resident
	case ModelConventional:
		for i := range s.convCXLCtrs {
			s.convCXLCtrs[i] = counters.ConventionalSector{}
		}
		for i := range s.convDevCtrs {
			s.convDevCtrs[i] = counters.ConventionalSector{}
		}
		s.convCXLTree, err = bmt.New(s.eng, len(s.convCXLCtrs))
		if err != nil {
			return err
		}
		s.convDevTree, err = bmt.New(s.eng, len(s.convDevCtrs))
		if err != nil {
			return err
		}
	}
	buf := make([]byte, ss)
	for sec := 0; sec < nSectors; sec++ {
		addr := HomeAddr(sec * ss)
		major, minor := s.homeCounterPair(addr) // zero after the reset
		ct := s.cxlData[sec*ss : (sec+1)*ss]
		if err := s.eng.EncryptSector(buf, plain[sec*ss:(sec+1)*ss], uint64(addr), major, minor); err != nil {
			return err
		}
		copy(ct, buf)
		mac, err := s.eng.MAC(ct, uint64(addr), major, minor)
		if err != nil {
			return err
		}
		if err := s.storeHomeMAC(addr, mac); err != nil {
			return err
		}
	}
	bumpN(&s.stats.OverflowReEncryptions, uint64(nSectors))
	bump(&s.stats.KeyRotations)
	s.markAllStale() // every page was re-encrypted under the new keys
	return s.rebuildHomeTrees()
}

// currentHomePair is homeCounterPair plus split-state awareness, used by
// the re-key sweep where split chunks may still hold non-zero minors.
func (s *System) currentHomePair(addr HomeAddr) (major, minor uint64, err error) {
	if s.cfg.Model == ModelSalus && s.cxlSplit != nil {
		return s.splitPair(addr)
	}
	major, minor = s.homeCounterPair(addr)
	return major, minor, nil
}
