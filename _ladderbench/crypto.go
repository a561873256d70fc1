package main

import (
	"errors"
	"time"

	"github.com/salus-sim/salus/internal/securemem"
	"github.com/salus-sim/salus/internal/security/cryptoeng"
	"github.com/salus-sim/salus/internal/security/maclib"
)

// cryptoCosts is the bottom of the ladder: the per-call cost of the
// engine primitives every protected access pays.
type cryptoCosts struct {
	encryptSectorNs, verifyMACNs, encryptPageNs float64
}

// measureCrypto times EncryptSector, VerifyMAC and a whole-page
// EncryptSectors, each for a third of dur.
func measureCrypto(dur time.Duration) (cryptoCosts, error) {
	eng, err := cryptoeng.New([]byte("ladderbench-key!"), []byte("ladderbench-mac"), maclib.MACBits)
	if err != nil {
		return cryptoCosts{}, err
	}
	src := fillBytes(7, pageSize)
	dst := make([]byte, pageSize)
	minors := make([]uint64, pageSize/cryptoeng.SectorSize)
	each := dur / 3

	timeLoop := func(body func(i uint64) error) (float64, error) {
		start := time.Now()
		deadline := start.Add(each)
		var n uint64
		for ; n < 64 || time.Now().Before(deadline); n++ {
			if err := body(n); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(start).Nanoseconds()) / float64(n), nil
	}
	var c cryptoCosts
	if c.encryptSectorNs, err = timeLoop(func(i uint64) error {
		return eng.EncryptSector(dst[:cryptoeng.SectorSize], src[:cryptoeng.SectorSize], i*cryptoeng.SectorSize, 1, i&0x3f)
	}); err != nil {
		return c, err
	}
	mac, err := eng.MAC(dst[:cryptoeng.SectorSize], 0, 1, 0)
	if err != nil {
		return c, err
	}
	if c.verifyMACNs, err = timeLoop(func(i uint64) error {
		if !eng.VerifyMAC(dst[:cryptoeng.SectorSize], 0, 1, 0, mac) {
			return errBadMAC
		}
		return nil
	}); err != nil {
		return c, err
	}
	c.encryptPageNs, err = timeLoop(func(i uint64) error {
		return eng.EncryptSectors(dst, src, (i%1024)*pageSize, 1, minors)
	})
	return c, err
}

var errBadMAC = errors.New("cryptoeng: a freshly computed MAC failed to verify")

// estimatedCryptoNsPerOp estimates the crypto time behind the page-path
// counter delta d: every accessed sector is en- or decrypted once, every
// MAC verify and every written sector's MAC costs one MAC, and every
// re-encrypted sector costs a decrypt, an encrypt and a MAC. It is an
// estimate from micro costs, not a measurement of the access path.
func (c cryptoCosts) estimatedCryptoNsPerOp(d securemem.OpStats, ops int64) float64 {
	if ops <= 0 {
		return 0
	}
	reenc := float64(d.RelocationReEncryptions + d.CollapseReEncryptions + d.OverflowReEncryptions)
	ns := float64(d.Reads+d.Writes)*c.encryptSectorNs +
		float64(d.MACVerifies+d.Writes)*c.verifyMACNs +
		reenc*(2*c.encryptSectorNs+c.verifyMACNs)
	return ns / float64(ops)
}
