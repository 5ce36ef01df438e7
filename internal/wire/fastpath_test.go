package wire

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
)

func TestAppendFrameMatchesWrite(t *testing.T) {
	msgs := []Msg{
		{Kind: "srv.dec", Payload: []byte("hello")},
		{Kind: "k", Payload: nil},
		{Kind: "dlr.decb1", Payload: bytes.Repeat([]byte{7}, 4096)},
	}
	for _, m := range msgs {
		var buf bytes.Buffer
		if err := Write(&buf, m); err != nil {
			t.Fatal(err)
		}
		app, err := AppendFrame(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), app) {
			t.Fatalf("AppendFrame diverges from Write for %q", m.Kind)
		}
	}
}

func TestAppendMuxMatchesWriteMux(t *testing.T) {
	m := MuxMsg{ID: 0xDEADBEEF01020304, Kind: "srv.decr", Payload: []byte("payload")}
	var buf bytes.Buffer
	if err := WriteMux(&buf, m); err != nil {
		t.Fatal(err)
	}
	app, err := AppendMux(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), app) {
		t.Fatal("AppendMux diverges from WriteMux")
	}
	if len(app) != m.Size() {
		t.Fatalf("MuxMsg.Size() = %d but encoded %d bytes", m.Size(), len(app))
	}
	got, err := ReadMux(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != m.ID || got.Kind != m.Kind || !bytes.Equal(got.Payload, m.Payload) {
		t.Fatalf("mux round trip mismatch: %+v", got)
	}
}

func TestMaxPayloadBoundary(t *testing.T) {
	// Exactly MaxPayload: accepted by both encoder and decoder.
	exact := Msg{Kind: "k", Payload: make([]byte, MaxPayload)}
	var buf bytes.Buffer
	if err := Write(&buf, exact); err != nil {
		t.Fatalf("rejected payload of exactly MaxPayload: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("decoder rejected payload of exactly MaxPayload: %v", err)
	}
	if len(got.Payload) != MaxPayload {
		t.Fatalf("payload length %d, want %d", len(got.Payload), MaxPayload)
	}

	// One over: rejected by the encoder…
	over := Msg{Kind: "k", Payload: make([]byte, MaxPayload+1)}
	if _, err := AppendFrame(nil, over); err == nil {
		t.Fatal("AppendFrame accepted MaxPayload+1")
	}
	if err := Write(io.Discard, over); err == nil {
		t.Fatal("Write accepted MaxPayload+1")
	}
	// …and by the decoder when hand-encoded.
	raw := []byte{'D', 'L', Version, 1, 'k', 0x01, 0x00, 0x00, 0x01}
	if _, err := Read(bytes.NewReader(raw)); err == nil {
		t.Fatal("Read accepted an over-limit length prefix")
	}
	// Mux encoder accounts for the id prefix inside the limit.
	muxOver := MuxMsg{Kind: "k", Payload: make([]byte, MaxPayload-muxIDSize+1)}
	if _, err := AppendMux(nil, muxOver); err == nil {
		t.Fatal("AppendMux accepted a payload that exceeds MaxPayload with its id prefix")
	}
}

func TestZeroLengthKind(t *testing.T) {
	m := Msg{Kind: "", Payload: []byte("body")}
	var buf bytes.Buffer
	if err := Write(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != "" || !bytes.Equal(got.Payload, m.Payload) {
		t.Fatalf("zero-length kind round trip mismatch: %+v", got)
	}
}

func TestInternKind(t *testing.T) {
	for _, k := range []string{
		"dlr.dec1", "dlr.dec2", "dlr.ref1", "dlr.ref2",
		"srv.dec", "srv.decr", "srv.busy", "srv.err", "srv.ref", "srv.refr",
	} {
		if got := internKind([]byte(k)); got != k {
			t.Fatalf("internKind(%q) = %q", k, got)
		}
	}
	if got := internKind([]byte("custom.tag")); got != "custom.tag" {
		t.Fatalf("internKind fallthrough = %q", got)
	}
}

func TestReaderReusesPayloadBuffer(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 3; i++ {
		if err := Write(&buf, Msg{Kind: "srv.dec", Payload: bytes.Repeat([]byte{byte(i)}, 64)}); err != nil {
			t.Fatal(err)
		}
	}
	rd := NewReader(&buf)
	first, err := rd.Next()
	if err != nil {
		t.Fatal(err)
	}
	firstCopy := append([]byte(nil), first.Payload...)
	second, err := rd.Next()
	if err != nil {
		t.Fatal(err)
	}
	// The contract: first.Payload aliases scratch and has been
	// overwritten by the second frame.
	if &first.Payload[0] != &second.Payload[0] {
		t.Fatal("Reader did not reuse its payload buffer for same-size frames")
	}
	if bytes.Equal(first.Payload, firstCopy) {
		t.Fatal("scratch unexpectedly preserved the first payload")
	}
	if !bytes.Equal(second.Payload, bytes.Repeat([]byte{1}, 64)) {
		t.Fatal("second frame decoded incorrectly")
	}
}

func TestReaderMux(t *testing.T) {
	var buf bytes.Buffer
	want := []MuxMsg{
		{ID: 1, Kind: "srv.dec", Payload: []byte("a")},
		{ID: 99, Kind: "srv.decr", Payload: nil},
	}
	for _, m := range want {
		if err := WriteMux(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	rd := NewReader(&buf)
	for _, w := range want {
		got, err := rd.NextMux()
		if err != nil {
			t.Fatal(err)
		}
		if got.ID != w.ID || got.Kind != w.Kind || !bytes.Equal(got.Payload, w.Payload) {
			t.Fatalf("NextMux = %+v, want %+v", got, w)
		}
	}
}

func TestReaderRejectsBadFrames(t *testing.T) {
	rd := NewReader(bytes.NewReader([]byte{'X', 'Y', 1, 0, 0, 0, 0, 0}))
	if _, err := rd.Next(); err == nil {
		t.Fatal("Reader accepted bad magic")
	}
	rd = NewReader(bytes.NewReader([]byte{'D', 'L', 9, 0, 0, 0, 0, 0}))
	if _, err := rd.Next(); err == nil {
		t.Fatal("Reader accepted bad version")
	}
	frame, err := AppendFrame(nil, Msg{Kind: "srv.dec", Payload: []byte("abcdef")})
	if err != nil {
		t.Fatal(err)
	}
	rd = NewReader(bytes.NewReader(frame[:len(frame)-2]))
	if _, err := rd.Next(); err == nil {
		t.Fatal("Reader accepted a truncated frame")
	}
}

// TestConcurrentPooledWrites hammers the shared frame pool from many
// goroutines writing to one net.Pipe-backed connection while a single
// Reader drains it — the shape of the decrypt server under load. Run
// with -race this doubles as the wire race test.
func TestConcurrentPooledWrites(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()

	const writers = 8
	const perWriter = 50
	var wmu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte(w)}, 128)
			for i := 0; i < perWriter; i++ {
				m := MuxMsg{ID: uint64(w)<<32 | uint64(i), Kind: "srv.dec", Payload: payload}
				wmu.Lock()
				//dlrlint:ignore lock-discipline wmu deliberately serializes writers on the shared pipe, mirroring the server's per-conn write mutex
				err := WriteMux(c1, m)
				wmu.Unlock()
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		rd := NewReader(c2)
		for n := 0; n < writers*perWriter; n++ {
			m, err := rd.NextMux()
			if err != nil {
				t.Error(err)
				return
			}
			w := byte(m.ID >> 32)
			if len(m.Payload) != 128 || m.Payload[0] != w || m.Payload[127] != w {
				t.Errorf("frame %x has corrupted payload", m.ID)
				return
			}
		}
	}()
	wg.Wait()
	<-done
}

func FuzzFrameRoundTrip(f *testing.F) {
	f.Add([]byte("srv.dec"), []byte("payload"), uint64(7))
	f.Add([]byte(""), []byte(""), uint64(0))
	f.Add([]byte("dlr.decb1"), bytes.Repeat([]byte{0xFF}, 300), uint64(1<<63))
	f.Fuzz(func(t *testing.T, kind, payload []byte, id uint64) {
		if len(kind) > 255 || len(payload) > 1<<16 {
			t.Skip()
		}
		m := Msg{Kind: string(kind), Payload: payload}
		frame, err := AppendFrame(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Read(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("decoding our own frame: %v", err)
		}
		if got.Kind != m.Kind || !bytes.Equal(got.Payload, m.Payload) {
			t.Fatal("base frame round trip mismatch")
		}

		mm := MuxMsg{ID: id, Kind: string(kind), Payload: payload}
		mframe, err := AppendMux(nil, mm)
		if err != nil {
			t.Fatal(err)
		}
		rd := NewReader(bytes.NewReader(mframe))
		gotM, err := rd.NextMux()
		if err != nil {
			t.Fatalf("decoding our own mux frame: %v", err)
		}
		if gotM.ID != mm.ID || gotM.Kind != mm.Kind || !bytes.Equal(gotM.Payload, mm.Payload) {
			t.Fatal("mux frame round trip mismatch")
		}

		// Truncations of a valid frame must error, never panic or hang.
		for cut := 0; cut < len(frame); cut++ {
			if _, err := Read(bytes.NewReader(frame[:cut])); err == nil {
				t.Fatalf("accepted frame truncated to %d of %d bytes", cut, len(frame))
			}
		}
	})
}
