package dlr

import (
	"fmt"
	"io"
	"math/big"

	"repro/internal/bn254"
	"repro/internal/device"
	"repro/internal/hpske"
	"repro/internal/params"
	"repro/internal/scalar"
	"repro/internal/wire"
)

// Protocol frame kinds.
const (
	kindDec1 = "dlr.dec1" // P1 → P2: d1,…,dℓ, dΦ, dB   (GT ciphertexts)
	kindDec2 = "dlr.dec2" // P2 → P1: c'                 (GT ciphertext)
	kindRef1 = "dlr.ref1" // P1 → P2: (f1,f'1),…,(fℓ,f'ℓ), fΦ (G2 ciphertexts)
	kindRef2 = "dlr.ref2" // P2 → P1: f                  (G2 ciphertext)
)

// RunDec executes P1's side of the decryption protocol for ciphertext
// c = (A, B) and returns the recovered message m ∈ GT.
//
// Step 1 (P1): derive dᵢ = e(A, ·)-transport of fᵢ (ciphertext reuse,
// §5.2), dΦ likewise from fΦ, and dB = Enc'(B); send all to P2.
// Step 3 (P1): decrypt P2's combination c' to m.
func (p *P1) RunDec(rng io.Reader, ch device.Channel, c *Ciphertext) (*bn254.GT, error) {
	if c == nil || c.A == nil || c.B == nil {
		return nil, fmt.Errorf("dlr: nil ciphertext")
	}
	// The ℓ+1 transports replay precomputed Miller-loop line tables
	// for the fixed encrypted share against the per-request c.A: the
	// (ℓ+1)(κ+1) pairings run with no G2 arithmetic and no line
	// inversions at all. Tables are built lazily on the first request
	// after a share rotation (see transportTables).
	cts := hpske.TransportManyPre(p.ctr, c.A, p.transportTables())
	dB, err := p.ssGT.Encrypt(rng, p.skcomm, c.B)
	if err != nil {
		return nil, fmt.Errorf("dlr: encrypting B: %w", err)
	}
	cts = append(cts, dB)

	payload, err := hpske.EncodeList(p.ssGT, cts)
	if err != nil {
		return nil, err
	}
	if err := ch.Send(wire.Msg{Kind: kindDec1, Payload: payload}); err != nil {
		return nil, err
	}

	reply, err := ch.Recv()
	if err != nil {
		return nil, err
	}
	if reply.Kind != kindDec2 {
		return nil, fmt.Errorf("dlr: expected %s, got %s", kindDec2, reply.Kind)
	}
	cprime, err := hpske.DecodeList(p.ssGT, reply.Payload, 1)
	if err != nil {
		return nil, err
	}
	m, err := p.ssGT.Decrypt(p.skcomm, cprime[0])
	if err != nil {
		return nil, fmt.Errorf("dlr: decrypting c': %w", err)
	}
	return m, nil
}

// handleDec1 executes P2's side of the decryption protocol (step 2):
// c' = dB · Π dᵢ^sᵢ / dΦ, computed coordinate-wise.
func (p *P2) handleDec1(msg wire.Msg) (wire.Msg, error) {
	cts, err := hpske.DecodeList(p.ssGT, msg.Payload, p.prm.Ell+2)
	if err != nil {
		return wire.Msg{}, err
	}
	ds := cts[:p.prm.Ell]
	dPhi := cts[p.prm.Ell]
	dB := cts[p.prm.Ell+1]

	// Π dᵢ^sᵢ is a coordinate-wise multi-exponentiation: LinComb
	// evaluates each coordinate through the shared-doubling fast path
	// instead of ℓ separate Pow/Mul rounds.
	comb, err := p.ssGT.LinComb(ds, p.sk2)
	if err != nil {
		return wire.Msg{}, err
	}
	acc, err := p.ssGT.Mul(dB, comb)
	if err != nil {
		return wire.Msg{}, err
	}
	acc, err = p.ssGT.Div(acc, dPhi)
	if err != nil {
		return wire.Msg{}, err
	}
	payload, err := hpske.EncodeList(p.ssGT, []*hpske.Ciphertext[*bn254.GT]{acc})
	if err != nil {
		return wire.Msg{}, err
	}
	return wire.Msg{Kind: kindDec2, Payload: payload}, nil
}

// RunRef executes P1's side of the refresh protocol.
//
// Step 1 (P1): sample fresh oblivious a'ᵢ, encrypt them as f'ᵢ, and send
// (fᵢ, f'ᵢ) pairs plus fΦ. Step 3 (P1): adopt the new share. In
// ModeBasic, Φ' = Dec'(f) and the plaintext share is replaced; in
// ModeOptimalRate, the f'ᵢ and f simply become the new encrypted share —
// no decryption ever happens.
func (p *P1) RunRef(rng io.Reader, ch device.Channel) error {
	newCoins := make([]*bn254.G2, p.prm.Ell) // retained only in ModeBasic
	fPrimes := make([]*hpske.Ciphertext[*bn254.G2], p.prm.Ell)
	for i := range fPrimes {
		aPrime, err := p.g2.Rand(rng)
		if err != nil {
			return fmt.Errorf("dlr: sampling a'_%d: %w", i, err)
		}
		ct, err := p.ssG2.Encrypt(rng, p.skcomm, aPrime)
		if err != nil {
			return err
		}
		fPrimes[i] = ct
		if p.mode == params.ModeBasic {
			newCoins[i] = aPrime
		}
		// In ModeOptimalRate the plaintext a'ᵢ goes out of scope here:
		// P1 held a single unencrypted coordinate at a time.
	}

	cts := make([]*hpske.Ciphertext[*bn254.G2], 0, 2*p.prm.Ell+1)
	for i := 0; i < p.prm.Ell; i++ {
		cts = append(cts, p.encSK1[i], fPrimes[i])
	}
	cts = append(cts, p.encPhi)
	payload, err := p.encodeG2List(cts)
	if err != nil {
		return err
	}
	if err := ch.Send(wire.Msg{Kind: kindRef1, Payload: payload}); err != nil {
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

	switch p.mode {
	case params.ModeBasic:
		phiPrime, err := p.ssG2.Decrypt(p.skcomm, f)
		if err != nil {
			return fmt.Errorf("dlr: decrypting Φ': %w", err)
		}
		p.sk1.Coins = newCoins
		p.sk1.Payload = phiPrime
		// The cached fᵢ encrypt the share that was just erased; rebuild
		// them (under a fresh skcomm) from the new share.
		if err := p.rebuildEncryptedShare(rng); err != nil {
			return err
		}
	default: // params.ModeOptimalRate
		p.encSK1 = fPrimes
		p.encPhi = f
		p.noteRotation() // tables referenced the erased share
	}
	return nil
}

// handleRef1 executes P2's side of the refresh protocol (step 2): sample
// a fresh s', return f = Π f'ᵢ^s'ᵢ / fᵢ^sᵢ · fΦ, and replace sk2 ← s'.
//
//dlr:zeroize sk2
func (p *P2) handleRef1(msg wire.Msg) (wire.Msg, error) {
	cts, codec, err := hpske.DecodeListCodec(p.ssG2, msg.Payload, 2*p.prm.Ell+1)
	if err != nil {
		return wire.Msg{}, err
	}
	sPrime, err := scalar.RandVector(nil, p.prm.Ell)
	if err != nil {
		return wire.Msg{}, err
	}
	// Π f'ᵢ^s'ᵢ · fᵢ^(−sᵢ) as one coordinate-wise linear combination:
	// the division folds into negated exponents, so the ℓ ciphertext
	// inversions of the naive loop disappear entirely.
	bases := make([]*hpske.Ciphertext[*bn254.G2], 0, 2*p.prm.Ell)
	exps := make([]*big.Int, 0, 2*p.prm.Ell)
	for i := 0; i < p.prm.Ell; i++ {
		bases = append(bases, cts[2*i+1], cts[2*i])
		exps = append(exps, sPrime[i], new(big.Int).Neg(p.sk2[i]))
	}
	acc, err := p.ssG2.LinComb(bases, exps)
	if err != nil {
		return wire.Msg{}, err
	}
	fPhi := cts[2*p.prm.Ell]
	acc, err = p.ssG2.Mul(acc, fPhi)
	if err != nil {
		return wire.Msg{}, err
	}
	// Answer in the codec the request arrived in, so a legacy P1 can
	// decode the reply while compressed-capable peers get v2 back.
	payload, err := hpske.EncodeListCodec(p.ssG2, []*hpske.Ciphertext[*bn254.G2]{acc}, codec)
	if err != nil {
		return wire.Msg{}, err
	}
	// Erase the old share and install the new one (the paper's erasure
	// at the end of refresh): the outgoing scalars are wiped in place
	// before the reference is dropped.
	p.sk2.Zeroize()
	p.sk2 = hpske.Key(sPrime)
	p.period++
	return wire.Msg{Kind: kindRef2, Payload: payload}, nil
}

// Serve handles exactly one protocol request on ch (decryption or
// refresh, dispatched on the frame kind).
func (p *P2) Serve(ch device.Channel) error {
	msg, err := ch.Recv()
	if err != nil {
		return err
	}
	var reply wire.Msg
	switch msg.Kind {
	case kindDec1:
		p.mu.RLock()
		reply, err = p.handleDec1(msg)
		p.mu.RUnlock()
	case kindRef1:
		p.mu.Lock()
		reply, err = p.handleRef1(msg)
		p.mu.Unlock()
	default:
		return fmt.Errorf("dlr: P2 received unknown frame kind %q", msg.Kind)
	}
	if err != nil {
		return err
	}
	return ch.Send(reply)
}

// ServeLoop handles protocol requests until the channel errors (e.g.
// the peer closes). The first channel error is returned, or nil if it
// looks like an orderly shutdown.
func (p *P2) ServeLoop(ch device.Channel) error {
	for {
		if err := p.Serve(ch); err != nil {
			return err
		}
	}
}

// Stats summarizes one protocol execution.
type Stats struct {
	// BytesP1 and BytesP2 are the bytes sent by each device.
	BytesP1, BytesP2 int64
}

// Decrypt runs the full 2-party decryption protocol in-process and
// returns the message together with transcript statistics.
func Decrypt(rng io.Reader, p1 *P1, p2 *P2, c *Ciphertext) (*bn254.GT, *Stats, error) {
	var m *bn254.GT
	r1, r2, err := device.Run(
		func(ch device.Channel) error {
			var err error
			m, err = p1.RunDec(rng, ch, c)
			return err
		},
		p2.Serve,
	)
	if err != nil {
		return nil, nil, err
	}
	return m, &Stats{BytesP1: r1.BytesSent(), BytesP2: r2.BytesSent()}, nil
}

// Refresh runs the full 2-party refresh protocol in-process. Both
// devices end up with fresh shares of the same secret; old shares are
// erased.
func Refresh(rng io.Reader, p1 *P1, p2 *P2) (*Stats, error) {
	r1, r2, err := device.Run(
		func(ch device.Channel) error { return p1.RunRef(rng, ch) },
		p2.Serve,
	)
	if err != nil {
		return nil, err
	}
	return &Stats{BytesP1: r1.BytesSent(), BytesP2: r2.BytesSent()}, nil
}
