package bench

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"time"

	"repro/internal/bn254"
	"repro/internal/ff"
	"repro/internal/group"
	"repro/internal/params"
	"repro/internal/scalar"
)

// E13 measures the throughput tier: lazy-reduction tower arithmetic
// against the fully reducing twins, and Pippenger bucket multi-
// exponentiation against the Straus tier at the E13 reference size of
// 64 terms. Acceptance criteria: MultiExp(64) ≥ 1.5× over Straus and
// the tower-mul-bound operations ≥ 1.2× over their reducing twins.

// e13Params are the scheme parameters the protocol-level measurements
// (E14–E18) run at (n = 40, λ = 128 → κ = 2, ℓ = 14) — small enough
// for the harness, protocol-shaped enough that the (ℓ+1)(κ+1)-pairing
// per-request cost is visible.
func e13Params() params.Params { return params.MustNew(40, 128) }

func e13Ops() ([]fpOp, error) {
	const n = 64
	ks := make([]*big.Int, n)
	g1s := make([]*bn254.G1, n)
	g2s := make([]*bn254.G2, n)
	gts := make([]*bn254.GT, n)
	gtGen := bn254.GTGenerator()
	for i := 0; i < n; i++ {
		k, err := scalar.Rand(rand.Reader)
		if err != nil {
			return nil, err
		}
		ks[i] = k
		if g1s[i], _, err = bn254.RandG1(rand.Reader); err != nil {
			return nil, err
		}
		if g2s[i], _, err = bn254.RandG2(rand.Reader); err != nil {
			return nil, err
		}
		gts[i] = new(bn254.GT).Exp(gtGen, k)
	}

	x2, err := ff.RandFp2(rand.Reader)
	if err != nil {
		return nil, err
	}
	y2, err := ff.RandFp2(rand.Reader)
	if err != nil {
		return nil, err
	}
	x6, err := ff.RandFp6(rand.Reader)
	if err != nil {
		return nil, err
	}
	y6, err := ff.RandFp6(rand.Reader)
	if err != nil {
		return nil, err
	}
	var z2 ff.Fp2
	var z6 ff.Fp6

	return []fpOp{
		{
			name: fmt.Sprintf("MultiExp(%d)-G1 (Straus→Pippenger)", n), iters: 5,
			ref:  func() { bn254.G1MultiScalarMult(g1s, ks) },
			fast: func() { bn254.G1MultiExpPippenger(g1s, ks) },
		},
		{
			name: fmt.Sprintf("MultiExp(%d)-G2 (Straus→Pippenger)", n), iters: 3,
			ref:  func() { bn254.G2MultiScalarMult(g2s, ks) },
			fast: func() { bn254.G2MultiExpPippenger(g2s, ks) },
		},
		{
			name: fmt.Sprintf("ProdExp-GT(%d) (naive→bucket)", n), iters: 3,
			ref:  func() { group.ProdExpReference[*bn254.GT](group.GT{}, gts, ks) },
			fast: func() { group.ProdExp[*bn254.GT](group.GT{}, gts, ks) },
		},
		{
			name: "Fp2.Mul (reducing→lazy)", iters: 200000,
			ref:  func() { ff.Fp2MulGeneric(&z2, x2, y2) },
			fast: func() { z2.Mul(x2, y2) },
		},
		{
			name: "Fp6.Mul (reducing→lazy)", iters: 30000,
			ref:  func() { ff.Fp6MulGeneric(&z6, x6, y6) },
			fast: func() { z6.Mul(x6, y6) },
		},
	}, nil
}

// E13Measurements times the throughput-tier operations against their
// previous-tier twins — the data behind the E13 table and the
// throughput rows of bench_baseline.json.
func E13Measurements() ([]FastPathMeasurement, error) {
	ops, err := e13Ops()
	if err != nil {
		return nil, err
	}
	for _, op := range ops {
		op.ref()
		op.fast()
	}
	return measureOps(ops), nil
}

// E13Throughput regenerates the throughput-tier speedup table.
func E13Throughput() (*Table, error) {
	meas, err := E13Measurements()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "E13",
		Title:  "throughput tier: lazy tower, Pippenger multi-exp",
		Header: []string{"operation", "before", "after", "speedup"},
	}
	for _, m := range meas {
		t.Rows = append(t.Rows, []string{
			m.Op,
			ms(time.Duration(m.RefNsPerOp)),
			ms(time.Duration(m.FastNsPerOp)),
			fmt.Sprintf("%.2fx", m.Speedup),
		})
	}
	t.Notes = append(t.Notes,
		"criterion: 64-term multi-exponentiation ≥ 1.5× over the Straus tier",
		"criterion: tower-multiplication-bound operations ≥ 1.2× over the reducing twins",
		"lazy tower and Pippenger paths are differentially tested and fuzzed against their twins (lazy_test.go, pippenger_test.go, Fuzz*)",
	)
	return t, nil
}
