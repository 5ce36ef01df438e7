package dlr

import (
	"crypto/rand"
	"encoding/binary"
	"testing"

	"repro/internal/bn254"
	"repro/internal/device"
	"repro/internal/group"
	"repro/internal/hpske"
	"repro/internal/params"
	"repro/internal/wire"
)

// payloadIsCompressed reports whether a protocol list payload opens
// with the hpske codec-v2 sentinel.
func payloadIsCompressed(p []byte) bool {
	return len(p) >= 5 && binary.BigEndian.Uint32(p) == 0xFFFFFFFF
}

// runRecordedRefresh runs one refresh (G2 ciphertext lists in both
// directions) through a transcript recorder and returns the frame sent
// in each direction.
func runRecordedRefresh(t *testing.T, p1 *P1, p2 *P2) (req, reply wire.Msg) {
	t.Helper()
	a, b := device.NewLocalPair()
	rec := device.NewRecorder(a)
	done := make(chan error, 1)
	go func() { done <- p2.Serve(b) }()
	if err := p1.RunRef(rand.Reader, rec); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	sent, recv := rec.Transcript()
	if len(sent) != 1 || len(recv) != 1 {
		t.Fatalf("transcript has %d sent / %d received frames, want 1/1", len(sent), len(recv))
	}
	return sent[0], recv[0]
}

// TestWireCodecNegotiation pins the codec echo in both directions: a
// compressed-capable P1 gets compressed replies, and a legacy-pinned P1
// (SetLegacyWire) gets byte-format-legacy replies from the very same
// upgraded P2. Decryption still works after every switch.
func TestWireCodecNegotiation(t *testing.T) {
	prm, err := params.New(64, 40)
	if err != nil {
		t.Fatal(err)
	}
	pk, p1, p2, err := Gen(rand.Reader, prm)
	if err != nil {
		t.Fatal(err)
	}
	decrypts := func() {
		t.Helper()
		cs, ms := encryptN(t, pk, 1)
		got, _, err := decryptAll(p1, p2, cs)
		if err != nil {
			t.Fatal(err)
		}
		checkMessages(t, got, ms)
	}

	req, reply := runRecordedRefresh(t, p1, p2)
	if !payloadIsCompressed(req.Payload) {
		t.Fatal("default P1 sent a legacy request")
	}
	if !payloadIsCompressed(reply.Payload) {
		t.Fatal("P2 answered a compressed request with a legacy reply")
	}
	decrypts()

	// Same P2, legacy peer: the request and the echoed reply are both
	// uncompressed.
	p1.SetLegacyWire(true)
	req, reply = runRecordedRefresh(t, p1, p2)
	if payloadIsCompressed(req.Payload) {
		t.Fatal("legacy-pinned P1 sent a compressed request")
	}
	if payloadIsCompressed(reply.Payload) {
		t.Fatal("P2 answered a legacy request with a compressed reply")
	}
	decrypts()

	// The pipelined refresh runs end to end on the legacy codec too.
	if _, err := RefreshPipelined(rand.Reader, p1, p2); err != nil {
		t.Fatalf("legacy-codec pipelined refresh: %v", err)
	}
	decrypts()
	p1.SetLegacyWire(false)
	if _, err := Refresh(rand.Reader, p1, p2); err != nil {
		t.Fatalf("compressed-codec refresh: %v", err)
	}
	decrypts()
}

// TestUnmarshalP1LegacyState rebuilds a Marshal blob in the
// pre-compression format (raw 128-byte plaintext-share points, legacy
// encrypted-share list) and checks UnmarshalP1 still accepts it and the
// restored instance decrypts.
func TestUnmarshalP1LegacyState(t *testing.T) {
	prm, err := params.New(64, 40)
	if err != nil {
		t.Fatal(err)
	}
	pk, p1, p2, err := Gen(rand.Reader, prm, WithMode(params.ModeBasic))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := p1.Marshal()
	if err != nil {
		t.Fatal(err)
	}

	// Re-encode the blob's share fields in the legacy formats.
	p := wire.NewParser(blob)
	modeU, err := p.Uint32()
	if err != nil {
		t.Fatal(err)
	}
	skRaw, err := p.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	shRaw, err := p.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	encRaw, err := p.Bytes()
	if err != nil {
		t.Fatal(err)
	}

	var legacySh []byte
	for off := 0; off < len(shRaw); off += bn254.G2BytesCompressed {
		pt, err := new(bn254.G2).SetBytesCompressed(shRaw[off : off+bn254.G2BytesCompressed])
		if err != nil {
			t.Fatal(err)
		}
		legacySh = append(legacySh, pt.Bytes()...)
	}

	ss, err := hpske.New[*bn254.G2](group.G2{}, pk.Params.Kappa)
	if err != nil {
		t.Fatal(err)
	}
	encList, err := hpske.DecodeList(ss, encRaw, pk.Params.Ell+1)
	if err != nil {
		t.Fatal(err)
	}
	legacyEnc, err := hpske.EncodeListLegacy(ss, encList)
	if err != nil {
		t.Fatal(err)
	}

	var b wire.Builder
	b.AppendUint32(modeU)
	b.AppendBytes(skRaw)
	b.AppendBytes(legacySh)
	b.AppendBytes(legacyEnc)

	restored, err := UnmarshalP1(pk, b.Bytes(), nil)
	if err != nil {
		t.Fatalf("legacy state rejected: %v", err)
	}
	m, err := RandMessage(rand.Reader, pk)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := Encrypt(rand.Reader, pk, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Decrypt(rand.Reader, restored, p2, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Fatal("restored legacy-state P1 decrypted the wrong message")
	}
}
