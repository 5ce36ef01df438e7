package dlr

import (
	"crypto/rand"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/device"
	"repro/internal/params"
	"repro/internal/wire"
)

// These tests inject protocol faults: a device receiving garbage,
// truncated ciphertext lists, or out-of-protocol frame kinds must fail
// with a clean error — never panic, never produce a wrong result
// silently.

func TestP2RejectsUnknownFrameKind(t *testing.T) {
	_, _, p2 := genTest(t, params.ModeOptimalRate)
	// dlr.decb1 asked P2 for the removed batch-decryption mask and
	// dlr.refp1 for its refresh-time twin; P2 must answer neither.
	for _, kind := range []string{"evil.frame", "dlr.decb1", "dlr.refp1"} {
		_, _, err := device.Run(
			func(ch device.Channel) error {
				return ch.Send(wire.Msg{Kind: kind, Payload: []byte("junk")})
			},
			p2.Serve,
		)
		if err == nil || !strings.Contains(err.Error(), "unknown frame kind") {
			t.Fatalf("P2 accepted frame kind %q: %v", kind, err)
		}
	}
}

func TestP2RejectsGarbagePayload(t *testing.T) {
	_, _, p2 := genTest(t, params.ModeOptimalRate)
	_, _, err := device.Run(
		func(ch device.Channel) error {
			return ch.Send(wire.Msg{Kind: "dlr.dec1", Payload: []byte{0xde, 0xad, 0xbe, 0xef}})
		},
		p2.Serve,
	)
	if err == nil {
		t.Fatal("P2 accepted garbage decryption payload")
	}
}

func TestP2RejectsTruncatedCiphertextList(t *testing.T) {
	pk, p1, p2 := genTest(t, params.ModeOptimalRate)
	m, _ := RandMessage(rand.Reader, pk)
	ct, _ := Encrypt(rand.Reader, pk, m, nil)

	// Intercept P1's dec1 frame and truncate it before delivery.
	_, _, err := device.Run(
		func(ch device.Channel) error {
			_, err := p1.RunDec(rand.Reader, &truncatingChannel{Channel: ch, dropBytes: 100}, ct)
			return err
		},
		p2.Serve,
	)
	if err == nil {
		t.Fatal("truncated ciphertext list accepted")
	}
}

// truncatingChannel drops trailing bytes from every sent payload.
type truncatingChannel struct {
	device.Channel
	dropBytes int
}

func (c *truncatingChannel) Send(m wire.Msg) error {
	if len(m.Payload) > c.dropBytes {
		m.Payload = m.Payload[:len(m.Payload)-c.dropBytes]
	}
	return c.Channel.Send(m)
}

func TestP1RejectsWrongReplyKind(t *testing.T) {
	pk, p1, _ := genTest(t, params.ModeOptimalRate)
	m, _ := RandMessage(rand.Reader, pk)
	ct, _ := Encrypt(rand.Reader, pk, m, nil)
	_, _, err := device.Run(
		func(ch device.Channel) error {
			_, err := p1.RunDec(rand.Reader, ch, ct)
			return err
		},
		func(ch device.Channel) error {
			if _, err := ch.Recv(); err != nil {
				return err
			}
			// Reply with the wrong frame kind.
			return ch.Send(wire.Msg{Kind: "dlr.ref2", Payload: nil})
		},
	)
	if err == nil || !strings.Contains(err.Error(), "expected dlr.dec2") {
		t.Fatalf("P1 accepted wrong reply kind: %v", err)
	}
}

func TestP1RejectsMalformedReply(t *testing.T) {
	pk, p1, _ := genTest(t, params.ModeOptimalRate)
	m, _ := RandMessage(rand.Reader, pk)
	ct, _ := Encrypt(rand.Reader, pk, m, nil)
	_, _, err := device.Run(
		func(ch device.Channel) error {
			_, err := p1.RunDec(rand.Reader, ch, ct)
			return err
		},
		func(ch device.Channel) error {
			if _, err := ch.Recv(); err != nil {
				return err
			}
			return ch.Send(wire.Msg{Kind: "dlr.dec2", Payload: []byte{1, 2, 3}})
		},
	)
	if err == nil {
		t.Fatal("P1 accepted malformed dec2 reply")
	}
}

func TestP1RejectsNilCiphertext(t *testing.T) {
	_, p1, p2 := genTest(t, params.ModeOptimalRate)
	if _, _, err := Decrypt(rand.Reader, p1, p2, nil); err == nil {
		t.Fatal("nil ciphertext accepted")
	}
	if _, _, err := Decrypt(rand.Reader, p1, p2, &Ciphertext{}); err == nil {
		t.Fatal("empty ciphertext accepted")
	}
}

// TestTamperedProtocolGivesWrongMessageNotPanic documents CPA-protocol
// behaviour under an active attacker: flipping a GT coordinate inside
// the dec1 frame must not crash either device; it yields a wrong
// message (integrity is the CCA2 scheme's job).
func TestTamperedProtocolGivesWrongMessageNotPanic(t *testing.T) {
	pk, p1, p2 := genTest(t, params.ModeOptimalRate)
	m, _ := RandMessage(rand.Reader, pk)
	ct, _ := Encrypt(rand.Reader, pk, m, nil)
	_, _, err := device.Run(
		func(ch device.Channel) error {
			mOut, err := p1.RunDec(rand.Reader, &bitFlipChannel{Channel: ch}, ct)
			if err != nil {
				// Tolerated: tampering may surface as a decode error.
				return nil
			}
			if mOut.Equal(m) {
				t.Error("tampered protocol still produced the correct message")
			}
			return nil
		},
		func(ch device.Channel) error {
			// P2 may legitimately reject the tampered frame.
			_ = p2.Serve(ch)
			return nil
		},
	)
	if err != nil {
		t.Fatal(err)
	}
}

// bitFlipChannel flips one byte near the end of each sent payload
// (inside the last GT coordinate encoding, keeping the field element
// valid with high probability).
type bitFlipChannel struct {
	device.Channel
}

func (c *bitFlipChannel) Send(m wire.Msg) error {
	if len(m.Payload) > 40 {
		p := append([]byte(nil), m.Payload...)
		p[len(p)-1] ^= 0x01
		m.Payload = p
	}
	return c.Channel.Send(m)
}

// TestTransportCacheSurvivesFaultyReply checks a protocol fault
// cannot poison the table cache: the only entry a decryption publishes
// is the transport-table set, built from P1's public encrypted share
// before the round trip. When the dec2 reply fails to decode, RunDec
// errors out; the next honest decryption replays that entry and
// decrypts correctly.
func TestTransportCacheSurvivesFaultyReply(t *testing.T) {
	pk, p1, p2 := genTest(t, params.ModeOptimalRate)
	c := cache.New(8)
	p1.AttachCache(c, "tenant-a")
	m, _ := RandMessage(rand.Reader, pk)
	ct, _ := Encrypt(rand.Reader, pk, m, nil)

	_, _, err := device.Run(
		func(ch device.Channel) error {
			if _, err := p1.RunDec(rand.Reader, ch, ct); err == nil {
				t.Error("P1 accepted malformed dec2 reply")
			}
			return nil
		},
		func(ch device.Channel) error {
			if _, err := ch.Recv(); err != nil {
				return err
			}
			return ch.Send(wire.Msg{Kind: "dlr.dec2", Payload: []byte{0xde, 0xad}})
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 {
		t.Fatalf("faulty decryption left %d cache entries, want the 1 transport-table set", c.Len())
	}

	got, _, err := Decrypt(rand.Reader, p1, p2, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Fatal("honest decryption after faulty reply decrypted wrongly")
	}
}
