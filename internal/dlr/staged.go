package dlr

import (
	"fmt"
	"io"

	"repro/internal/bn254"
	"repro/internal/cache"
	"repro/internal/device"
	"repro/internal/hpske"
	"repro/internal/params"
	"repro/internal/wire"
)

// Pipelined refresh (zero-stall rotation).
//
// The cold rotation path — RunRef followed by BeginPeriod — serializes
// the entire share replacement against serving: while it runs, the
// tenant's window loop is quiesced, and the first post-rotation request
// then pays the full transport-table rebuild ((ℓ+1)(κ+1) Miller
// precomputations), so p99 spikes at every epoch boundary. Since the
// leakage bounds of Theorem 4.1 are per-period, production rotates
// continually, and the spike recurs at every cadence tick.
//
// The pipelined path splits the rotation in two:
//
//	StageRefresh  — read-only on P1's share state, runs CONCURRENTLY
//	                with serving: samples the next share coordinates
//	                a'ᵢ and the next period key σ', produces the next
//	                encrypted share under σ', pre-encodes the wire
//	                payload, and prewarms ℓ of the ℓ+1 next-epoch
//	                transport tables (the encrypted-Φ table needs P2's
//	                reply) with one flattened parallel build.
//	CommitRefresh — the only serialized part: one round trip to P2
//	                (the same ref1 frame as RunRef, answered by the
//	                same handleRef1), the Φ'-dependent transport table,
//	                and an atomic flip of P1's state to the staged next
//	                epoch.
//
// The first post-rotation request therefore finds every transport
// table warm: no rebuild, no p99 spike.
//
// Leakage accounting: the staged state is exactly the material the
// cold path holds transiently inside RunRef/BeginPeriod (the next
// period key, the new share ciphertexts, and — in ModeBasic — the new
// plaintext coordinates), held across the staging window instead of
// across one protocol run. The zeroize-on-commit guarantees are
// unchanged: the outgoing σ and (on P2) the outgoing s are wiped in
// place at the flip, and an abandoned staging wipes σ' (Abandon). The
// prewarmed tables are functions of public ciphertexts only — the next
// encrypted share, which transits the public channel at commit — so
// they add nothing to the adversary's view.

// StagedRefresh is the output of StageRefresh: everything the next
// epoch needs that can be computed without P2. It is single-use;
// CommitRefresh consumes it (or Abandon discards it, wiping the staged
// key material).
type StagedRefresh struct {
	// epoch is P1's rotation epoch at staging time; CommitRefresh
	// refuses a staged state whose base epoch is no longer current.
	epoch uint64

	// payload is the pre-encoded ref1 frame: (fᵢ, f'ᵢ) pairs plus fΦ,
	// byte-for-byte the shape the cold protocol's RunRef sends.
	payload []byte

	// nextKey is the next period's Π_comm key σ', installed at commit.
	//
	//dlr:secret
	nextKey hpske.Key

	// nextEncSK1 is the next epoch's encrypted share: the staged a'ᵢ
	// encrypted under σ' (ModeOptimalRate re-encrypts the wire f'ᵢ
	// from σ to σ' without decryption; ModeBasic encrypts the retained
	// plaintexts directly).
	nextEncSK1 []*hpske.Ciphertext[*bn254.G2]

	// newCoins retains the plaintext a'ᵢ in ModeBasic only (nil
	// otherwise), mirroring RunRef's newCoins.
	//
	//dlr:secret
	newCoins []*bn254.G2

	// transTabs are the prewarmed transport tables for nextEncSK1 — ℓ
	// of the next epoch's ℓ+1 tables; CommitRefresh appends the
	// encrypted-Φ' table once P2's reply provides it.
	transTabs []*hpske.TransportTable

	consumed bool
}

// Abandon discards a staged refresh that will not be committed (e.g.
// the commit round trip failed, or a competing rotation landed first),
// wiping the staged period key. Safe on nil and after commit.
//
//dlr:zeroize nextKey
func (st *StagedRefresh) Abandon() {
	if st == nil || st.consumed {
		//dlrlint:ignore zeroize-paths a nil or already-consumed staging holds no key; the consumed flag is only set after the wipe below
		return
	}
	st.consumed = true
	st.nextKey.Zeroize()
	st.nextKey = nil
	st.newCoins = nil
	st.nextEncSK1 = nil
	st.transTabs = nil
	st.payload = nil
}

// StageRefresh prepares the next rotation without mutating P1's share
// state and without contacting P2, so it can run concurrently with
// serving (share state is only mutated by commit/rotation operations,
// which the caller must serialize against both staging and serving —
// the server runs them on the tenant's window loop). The returned state is committed with
// CommitRefresh or discarded with Abandon.
func (p *P1) StageRefresh(rng io.Reader) (*StagedRefresh, error) {
	st := &StagedRefresh{epoch: p.epoch.Load()}
	nextKey, err := p.ssG2.GenKey(rng)
	if err != nil {
		return nil, err
	}
	st.nextKey = nextKey

	fPrimes := make([]*hpske.Ciphertext[*bn254.G2], p.prm.Ell)
	st.nextEncSK1 = make([]*hpske.Ciphertext[*bn254.G2], p.prm.Ell)
	if p.mode == params.ModeBasic {
		st.newCoins = make([]*bn254.G2, p.prm.Ell)
	}
	for i := range fPrimes {
		aPrime, err := p.g2.Rand(rng)
		if err != nil {
			st.Abandon()
			return nil, fmt.Errorf("dlr: sampling a'_%d: %w", i, err)
		}
		// f'ᵢ = Enc_σ(a'ᵢ) goes on the wire at commit (P2 combines it
		// under the old key).
		ct, err := p.ssG2.Encrypt(rng, p.skcomm, aPrime)
		if err != nil {
			st.Abandon()
			return nil, err
		}
		fPrimes[i] = ct
		switch p.mode {
		case params.ModeBasic:
			st.newCoins[i] = aPrime
			st.nextEncSK1[i], err = p.ssG2.Encrypt(rng, nextKey, aPrime)
		default: // params.ModeOptimalRate
			// Key-switch σ → σ' without decryption; the plaintext a'ᵢ
			// goes out of scope here, as in RunRef.
			st.nextEncSK1[i], err = p.ssG2.ReEncrypt(rng, p.skcomm, nextKey, ct)
		}
		if err != nil {
			st.Abandon()
			return nil, err
		}
	}

	// Pre-encode the commit frame: (fᵢ, f'ᵢ) pairs then fΦ, the ref1
	// shape handleRef1 expects.
	cts := make([]*hpske.Ciphertext[*bn254.G2], 0, 2*p.prm.Ell+1)
	for i := 0; i < p.prm.Ell; i++ {
		cts = append(cts, p.encSK1[i], fPrimes[i])
	}
	cts = append(cts, p.encPhi)
	st.payload, err = p.encodeG2List(cts)
	if err != nil {
		st.Abandon()
		return nil, err
	}

	// Prewarm the next epoch's transport tables (all but the
	// Φ'-dependent one) in one flattened parallel build. These are
	// public-data precomputations over ciphertexts that will transit
	// the public channel at commit.
	st.transTabs = hpske.PrecomputeTransportMany(st.nextEncSK1)
	return st, nil
}

// CommitRefresh finishes a staged rotation: one round trip on ch runs
// P2's half of the refresh, then P1 atomically flips to the staged
// next epoch with its transport tables already warm. The epoch
// advances by exactly one; the old period key is wiped in place. On
// error P1's state is unchanged and st remains uncommitted (the caller
// should Abandon it — though note that a failure AFTER the send may
// leave P2 already rotated, the same partial-failure window the cold
// protocol has; see the ROADMAP item "Fail closed under hung peers,
// hostile input and crashes").
//
//dlr:zeroize skcomm
func (p *P1) CommitRefresh(rng io.Reader, ch device.Channel, st *StagedRefresh) error {
	if st == nil || st.consumed {
		return fmt.Errorf("dlr: commit of a nil or consumed staged refresh")
	}
	if now := p.epoch.Load(); st.epoch != now {
		return fmt.Errorf("dlr: staged refresh is stale (staged at epoch %d, now %d)", st.epoch, now)
	}
	if err := ch.Send(wire.Msg{Kind: kindRef1, Payload: st.payload}); err != nil {
		return err
	}
	reply, err := ch.Recv()
	if err != nil {
		return err
	}
	if reply.Kind != kindRef2 {
		return fmt.Errorf("dlr: expected %s, got %s", kindRef2, reply.Kind)
	}
	fs, err := hpske.DecodeList(p.ssG2, reply.Payload, 1)
	if err != nil {
		return err
	}
	f := fs[0]

	var encPhi *hpske.Ciphertext[*bn254.G2]
	switch p.mode {
	case params.ModeBasic:
		phiPrime, err := p.ssG2.Decrypt(p.skcomm, f)
		if err != nil {
			return fmt.Errorf("dlr: decrypting Φ': %w", err)
		}
		p.sk1.Coins = st.newCoins
		p.sk1.Payload = phiPrime
		encPhi, err = p.ssG2.Encrypt(rng, st.nextKey, phiPrime)
		if err != nil {
			return err
		}
	default: // params.ModeOptimalRate
		encPhi, err = p.ssG2.ReEncrypt(rng, p.skcomm, st.nextKey, f)
		if err != nil {
			return err
		}
	}
	// Complete the transport set with the one Φ'-dependent table.
	transTabs := append(append(make([]*hpske.TransportTable, 0, p.prm.Ell+1),
		st.transTabs...), hpske.PrecomputeTransport(encPhi))

	// Atomic flip. The outgoing period key is wiped in place (the
	// paper's erasure at the end of refresh); the epoch advances ONCE —
	// the pipelined rotation replaces both the share refresh and the
	// period rotation in a single share-state replacement.
	p.skcomm.Zeroize()
	p.skcomm = st.nextKey
	p.encSK1 = st.nextEncSK1
	p.encPhi = encPhi
	p.period++
	p.epoch.Add(1)
	p.transTabs = transTabs
	st.consumed = true
	st.nextKey = nil
	st.newCoins = nil

	if p.tableCache != nil {
		// Publish the prewarmed set under the NEW epoch, then drop only
		// the retiring epochs: InvalidateTenant here would throw away the
		// warmth the pipeline just built.
		epoch := p.epoch.Load()
		p.tableCache.Put(cache.Key{Tenant: p.tenant, Epoch: epoch}, transTabs)
		p.tableCache.InvalidateTenantBelow(p.tenant, epoch)
	}
	return nil
}

// RefreshPipelined runs the full two-phase refresh in-process: stage
// (concurrent-safe, here sequential) then commit over a fresh channel
// pair. The in-process twin of the server's warm rotation handover.
func RefreshPipelined(rng io.Reader, p1 *P1, p2 *P2) (*Stats, error) {
	st, err := p1.StageRefresh(rng)
	if err != nil {
		return nil, err
	}
	r1, r2, err := device.Run(
		func(ch device.Channel) error { return p1.CommitRefresh(rng, ch, st) },
		p2.Serve,
	)
	if err != nil {
		st.Abandon()
		return nil, err
	}
	return &Stats{BytesP1: r1.BytesSent(), BytesP2: r2.BytesSent()}, nil
}
