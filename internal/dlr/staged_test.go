package dlr

import (
	"bytes"
	"crypto/rand"
	"testing"

	"repro/internal/bn254"
	"repro/internal/cache"
	"repro/internal/device"
	"repro/internal/params"
)

// TestPipelinedRefreshPreservesDecryption is the end-to-end correctness
// check for the two-phase rotation: across several staged+committed
// rotations, the Dec protocol keeps decrypting correctly, and each
// rotation advances the epoch by
// exactly one (the pipelined path folds refresh and period rotation
// into a single share-state replacement).
func TestPipelinedRefreshPreservesDecryption(t *testing.T) {
	for _, mode := range []params.Mode{params.ModeBasic, params.ModeOptimalRate} {
		t.Run(mode.String(), func(t *testing.T) {
			pk, p1, p2 := genTest(t, mode)
			m, _ := RandMessage(rand.Reader, pk)
			ct, _ := Encrypt(rand.Reader, pk, m, nil)
			for i := 0; i < 3; i++ {
				epochBefore := p1.Epoch()
				p1Period, p2Period := p1.Period(), p2.Period()
				if _, err := RefreshPipelined(rand.Reader, p1, p2); err != nil {
					t.Fatalf("pipelined refresh %d: %v", i, err)
				}
				if p1.Epoch() != epochBefore+1 {
					t.Fatalf("rotation %d bumped epoch %d → %d, want exactly +1", i, epochBefore, p1.Epoch())
				}
				if p1.Period() != p1Period+1 || p2.Period() != p2Period+1 {
					t.Fatalf("rotation %d: periods (%d,%d) → (%d,%d), want both +1",
						i, p1Period, p2Period, p1.Period(), p2.Period())
				}
				got, _, err := Decrypt(rand.Reader, p1, p2, ct)
				if err != nil {
					t.Fatalf("decrypt after rotation %d: %v", i, err)
				}
				if !got.Equal(m) {
					t.Fatalf("wrong message after rotation %d", i)
				}
			}
		})
	}
}

// TestPipelinedRefreshInvariant checks Definition 3.1's consistency
// requirement for the pipelined path: the shares still reconstruct the
// same msk = g2^α after every staged rotation.
func TestPipelinedRefreshInvariant(t *testing.T) {
	for _, mode := range []params.Mode{params.ModeBasic, params.ModeOptimalRate} {
		t.Run(mode.String(), func(t *testing.T) {
			_, p1, p2 := genTest(t, mode)
			recon := func() *bn254.G2 {
				sh1, err := p1.sharePlain()
				if err != nil {
					t.Fatal(err)
				}
				sk2 := p2.shareSK2()
				acc := sh1.Payload
				g2 := p1.g2
				for i, a := range sh1.Coins {
					acc = g2.Mul(acc, g2.Inv(g2.Exp(a, sk2[i])))
				}
				return acc
			}
			msk0 := recon()
			for i := 0; i < 3; i++ {
				if _, err := RefreshPipelined(rand.Reader, p1, p2); err != nil {
					t.Fatal(err)
				}
				if !recon().Equal(msk0) {
					t.Fatalf("pipelined rotation %d changed the shared secret", i)
				}
			}
		})
	}
}

// TestPipelinedRefreshChangesShares checks the erasure half: one
// staged rotation replaces both devices' secret memories, with no cold
// BeginPeriod needed on top.
func TestPipelinedRefreshChangesShares(t *testing.T) {
	_, p1, p2 := genTest(t, params.ModeOptimalRate)
	s1Before := append([]byte(nil), p1.SecretBytes()...)
	s2Before := append([]byte(nil), p2.SecretBytes()...)
	if _, err := RefreshPipelined(rand.Reader, p1, p2); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(s2Before, p2.SecretBytes()) {
		t.Fatal("P2's share unchanged by pipelined refresh")
	}
	if bytes.Equal(s1Before, p1.SecretBytes()) {
		t.Fatal("P1's period key unchanged by pipelined refresh")
	}
}

// TestPipelinedRefreshPrewarmsTables is the pipeline's core claim at
// the dlr layer: after a staged rotation, the first decryption of the
// new epoch finds its transport tables prewarmed — zero cache misses —
// and the cache holds the prewarmed set under the new epoch with
// nothing from the old one. The decryption is still a full round trip
// with P2.
func TestPipelinedRefreshPrewarmsTables(t *testing.T) {
	pk, p1, p2 := genTest(t, params.ModeOptimalRate)
	c := cache.New(8)
	p1.AttachCache(c, "tenant-a")
	cs, ms := encryptN(t, pk, 2)

	// Establish a steady state: the first decryption builds the tables.
	got, _, err := decryptAll(p1, p2, cs)
	if err != nil {
		t.Fatal(err)
	}
	checkMessages(t, got, ms)

	if _, err := RefreshPipelined(rand.Reader, p1, p2); err != nil {
		t.Fatal(err)
	}
	newEpoch := p1.Epoch()
	if _, ok := c.Get(cache.Key{Tenant: "tenant-a", Epoch: newEpoch}); !ok {
		t.Fatalf("commit did not publish a prewarmed entry at epoch %d", newEpoch)
	}
	if _, ok := c.Get(cache.Key{Tenant: "tenant-a", Epoch: newEpoch - 1}); ok {
		t.Fatal("retired epoch's entry survived the commit")
	}

	missesBefore := c.Stats().Misses
	got, stats, err := decryptAll(p1, p2, cs)
	if err != nil {
		t.Fatal(err)
	}
	checkMessages(t, got, ms)
	if stats.BytesP1 == 0 || stats.BytesP2 == 0 {
		t.Fatal("first post-rotation decryption skipped the round trip with P2")
	}
	if c.Stats().Misses != missesBefore {
		t.Fatal("first post-rotation decryption missed the cache — prewarm did not take")
	}
}

// TestStagedRefreshStaleness pins the commit guards: a staged refresh
// from an older epoch must be refused (another rotation landed first),
// and a consumed or abandoned staging cannot be committed.
func TestStagedRefreshStaleness(t *testing.T) {
	_, p1, p2 := genTest(t, params.ModeOptimalRate)

	st, err := p1.StageRefresh(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	// A competing cold rotation lands first.
	if _, err := Refresh(rand.Reader, p1, p2); err != nil {
		t.Fatal(err)
	}
	if _, err := RefreshPipelined(rand.Reader, p1, p2); err != nil {
		t.Fatal(err)
	}
	if err := p1.CommitRefresh(rand.Reader, nil, st); err == nil {
		t.Fatal("stale staged refresh committed")
	}
	st.Abandon()

	// A fresh stage commits once and only once.
	st2, err := p1.StageRefresh(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := deviceRunCommit(p1, p2, st2); err != nil {
		t.Fatalf("fresh staged commit failed: %v", err)
	}
	if err := p1.CommitRefresh(rand.Reader, nil, st2); err == nil {
		t.Fatal("consumed staged refresh committed twice")
	}

	st3, err := p1.StageRefresh(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	st3.Abandon()
	if err := p1.CommitRefresh(rand.Reader, nil, st3); err == nil {
		t.Fatal("abandoned staged refresh committed")
	}
}

// deviceRunCommit commits st over a fresh in-process pair (test
// helper; RefreshPipelined stages internally so can't be used here).
func deviceRunCommit(p1 *P1, p2 *P2, st *StagedRefresh) (int64, int64, error) {
	var b1, b2 int64
	r1, r2, err := device.Run(
		func(ch device.Channel) error { return p1.CommitRefresh(rand.Reader, ch, st) },
		p2.Serve,
	)
	if r1 != nil {
		b1 = r1.BytesSent()
	}
	if r2 != nil {
		b2 = r2.BytesSent()
	}
	return b1, b2, err
}
