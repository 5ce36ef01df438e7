package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"repro/internal/bn254"
	"repro/internal/dlr"
	"repro/internal/opcount"
	"repro/internal/params"
)

// poolPerTenant is how many distinct (message, ciphertext) pairs each
// tenant's requests cycle through.
const poolPerTenant = 32

// schemeParams is (n, λ) = (40, 128), so κ = 2 and ℓ = 14: one Dec
// costs P1 (ℓ+1)(κ+1) = 45 pairings.
func schemeParams() params.Params { return params.MustNew(40, 128) }

// stream is a deterministic byte stream derived from the run seed and a
// label. Every consumer of randomness (one tenant's keys, one tenant's
// pool, the schedule, the tenant order) gets its own label, so it draws
// the same bytes whatever the others draw.
type stream struct {
	src *rand.ChaCha8
	buf [8]byte
	n   int // unread bytes at the end of buf
}

func newStream(seed int64, label string) *stream {
	key := sha256.Sum256([]byte(fmt.Sprintf("serving-bench/%d/%s", seed, label)))
	return &stream{src: rand.NewChaCha8(key)}
}

// Read implements io.Reader; it never fails.
func (s *stream) Read(p []byte) (int, error) {
	for i := range p {
		if s.n == 0 {
			binary.LittleEndian.PutUint64(s.buf[:], s.src.Uint64())
			s.n = len(s.buf)
		}
		p[i] = s.buf[len(s.buf)-s.n]
		s.n--
	}
	return len(p), nil
}

// uniform returns a float in [0, 1).
func (s *stream) uniform() float64 { return float64(s.src.Uint64()>>11) / (1 << 53) }

// tenantInput is one tenant's generated inputs: the public key its
// dealer produced and the pool of messages with their encryptions.
type tenantInput struct {
	name string
	pk   []byte
	msgs []*bn254.GT
	cts  []*dlr.Ciphertext
}

// inputs is everything a workload run sends, all drawn from -seed.
type inputs struct {
	seed    int64
	tenants []tenantInput
	// order is the tenant order: it sets which connection each tenant's
	// requests use and when each tenant's refreshes start.
	order []int
	// arrivals holds, per ladder step, the Poisson arrival offsets from
	// the step's start.
	arrivals [][]time.Duration
}

// genKeys runs the trusted dealer for tenant i. The same seed always
// yields the same keys, so every set-up of a run serves the same pool.
func genKeys(seed int64, i int, ctrP1, ctrP2 *opcount.Counter) (*dlr.PublicKey, *dlr.P1, *dlr.P2, error) {
	return dlr.Gen(newStream(seed, fmt.Sprintf("keys/%d", i)), schemeParams(), dlr.WithCounters(ctrP1, ctrP2))
}

func makeInputs(seed int64, w workload, seconds float64) (*inputs, error) {
	in := &inputs{seed: seed}
	for i := 0; i < w.tenants; i++ {
		pk, _, _, err := genKeys(seed, i, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("generating keys of tenant %d: %w", i, err)
		}
		t := tenantInput{name: fmt.Sprintf("t%02d", i), pk: pk.Bytes()}
		rng := newStream(seed, fmt.Sprintf("pool/%d", i))
		for k := 0; k < poolPerTenant; k++ {
			m, err := dlr.RandMessage(rng, pk)
			if err != nil {
				return nil, err
			}
			ct, err := dlr.Encrypt(rng, pk, m, nil)
			if err != nil {
				return nil, err
			}
			t.msgs = append(t.msgs, m)
			t.cts = append(t.cts, ct)
		}
		in.tenants = append(in.tenants, t)
	}

	rng := newStream(seed, "order")
	in.order = make([]int, w.tenants)
	for i := range in.order {
		in.order[i] = i
	}
	for i := len(in.order) - 1; i > 0; i-- {
		j := int(rng.uniform() * float64(i+1))
		in.order[i], in.order[j] = in.order[j], in.order[i]
	}

	rng = newStream(seed, "schedule")
	n := ladderStepRequests(seconds)
	for _, rate := range w.rates {
		offs := make([]time.Duration, n)
		var at float64 // seconds since the step began
		for k := range offs {
			at += -math.Log(1-rng.uniform()) / rate
			offs[k] = time.Duration(at * float64(time.Second))
		}
		in.arrivals = append(in.arrivals, offs)
	}
	return in, nil
}

// checkKeys reports whether pk is the key the inputs were encrypted to.
func (t *tenantInput) checkKeys(pk *dlr.PublicKey) error {
	if !bytes.Equal(pk.Bytes(), t.pk) {
		return fmt.Errorf("tenant %s: key generation is not reproducible from the seed", t.name)
	}
	return nil
}
