package main

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// parts serializes each generated input: the ciphertext pool (with its
// keys and messages), the ladder schedule and the tenant order.
func parts(in *inputs) (pool, schedule, order []byte) {
	for _, t := range in.tenants {
		pool = append(pool, t.pk...)
		for k := range t.cts {
			pool = append(pool, t.msgs[k].Bytes()...)
			pool = append(pool, t.cts[k].Bytes()...)
		}
	}
	for _, step := range in.arrivals {
		for _, a := range step {
			schedule = binary.BigEndian.AppendUint64(schedule, uint64(a))
		}
	}
	for _, i := range in.order {
		order = append(order, byte(i))
	}
	return pool, schedule, order
}

func TestSeedDeterminesInputs(t *testing.T) {
	w := workload{name: "test", tenants: 4, rates: []float64{8, 16}}
	gen := func(seed int64) (pool, schedule, order []byte) {
		in, err := makeInputs(seed, w, 20)
		if err != nil {
			t.Fatal(err)
		}
		return parts(in)
	}
	pa, sa, oa := gen(3)
	pb, sb, ob := gen(3)
	pc, sc, oc := gen(4)
	for _, c := range []struct {
		name          string
		same, another []byte
		base          []byte
	}{
		{"ciphertext pool", pb, pc, pa},
		{"schedule", sb, sc, sa},
		{"tenant order", ob, oc, oa},
	} {
		if !bytes.Equal(c.base, c.same) {
			t.Errorf("%s differs between two runs with seed 3", c.name)
		}
		if bytes.Equal(c.base, c.another) {
			t.Errorf("%s is the same for seeds 3 and 4", c.name)
		}
	}
	if len(sa) != 8*2*ladderStepRequests(20) {
		t.Errorf("schedule holds %d bytes, want two steps of %d arrivals", len(sa), ladderStepRequests(20))
	}
}
