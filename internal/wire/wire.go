// Package wire implements the length-prefixed binary framing used by the
// 2-party protocols, both in-process and over TCP. Every frame carries a
// short ASCII kind tag and an opaque payload of group elements encoded
// by the schemes themselves.
//
// Frame layout (big-endian):
//
//	magic   [2]byte  = "DL"
//	version uint8    = 1
//	kindLen uint8
//	kind    [kindLen]byte
//	payLen  uint32
//	payload [payLen]byte
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// Version is the framing version emitted by this package.
const Version = 1

// MaxPayload bounds frame payloads (16 MiB) so a malformed peer cannot
// force unbounded allocation.
const MaxPayload = 16 << 20

var magic = [2]byte{'D', 'L'}

// Msg is one protocol frame.
type Msg struct {
	// Kind is a short ASCII tag identifying the protocol step
	// (e.g. "dec.d", "ref.f").
	Kind string
	// Payload is the opaque frame body.
	Payload []byte
}

// Size returns the on-wire size of the message in bytes.
func (m Msg) Size() int { return 2 + 1 + 1 + len(m.Kind) + 4 + len(m.Payload) }

// AppendFrame appends the encoding of m to dst and returns the extended
// slice. It is the allocation-free core of Write: callers that batch
// several frames into one syscall (the server's per-window flush)
// append them all into one buffer and hand it to a single conn.Write.
func AppendFrame(dst []byte, m Msg) ([]byte, error) {
	if len(m.Kind) > 255 {
		return dst, fmt.Errorf("wire: kind %q too long", m.Kind[:32])
	}
	if len(m.Payload) > MaxPayload {
		return dst, fmt.Errorf("wire: payload %d exceeds limit %d", len(m.Payload), MaxPayload)
	}
	dst = append(dst, magic[0], magic[1], Version, byte(len(m.Kind)))
	dst = append(dst, m.Kind...)
	var l [4]byte
	binary.BigEndian.PutUint32(l[:], uint32(len(m.Payload)))
	dst = append(dst, l[:]...)
	return append(dst, m.Payload...), nil
}

// framePool recycles encode buffers across Write/WriteMux calls. The
// pool holds pointers so Get/Put stay allocation-free, and putFrameBuf
// drops oversized buffers so one huge frame cannot pin its capacity in
// the pool forever.
var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// maxPooledFrame caps the capacity a returned buffer may retain.
const maxPooledFrame = 64 << 10

func getFrameBuf() *[]byte { return framePool.Get().(*[]byte) }

func putFrameBuf(bp *[]byte) {
	if cap(*bp) > maxPooledFrame {
		return
	}
	framePool.Put(bp)
}

// Write encodes m onto w as one w.Write call. The encode buffer comes
// from an internal pool, so steady-state writes allocate nothing; w
// must not retain the slice passed to its Write method beyond the call
// (net.Conn and bytes.Buffer both satisfy this).
func Write(w io.Writer, m Msg) error {
	bp := getFrameBuf()
	buf, err := AppendFrame((*bp)[:0], m)
	*bp = buf[:0]
	if err != nil {
		putFrameBuf(bp)
		return err
	}
	_, werr := w.Write(buf)
	putFrameBuf(bp)
	if werr != nil {
		return fmt.Errorf("wire: writing frame: %w", werr)
	}
	return nil
}

// Read decodes one frame from r. The returned payload is freshly
// allocated and owned by the caller; long-lived consumers on hot paths
// should prefer Reader, which recycles its payload buffer.
func Read(r io.Reader) (Msg, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Msg{}, fmt.Errorf("wire: reading header: %w", err)
	}
	if hdr[0] != magic[0] || hdr[1] != magic[1] {
		return Msg{}, fmt.Errorf("wire: bad magic %x", hdr[:2])
	}
	if hdr[2] != Version {
		return Msg{}, fmt.Errorf("wire: unsupported version %d", hdr[2])
	}
	var kind [255]byte
	if _, err := io.ReadFull(r, kind[:hdr[3]]); err != nil {
		return Msg{}, fmt.Errorf("wire: reading kind: %w", err)
	}
	var l [4]byte
	if _, err := io.ReadFull(r, l[:]); err != nil {
		return Msg{}, fmt.Errorf("wire: reading length: %w", err)
	}
	n := binary.BigEndian.Uint32(l[:])
	if n > MaxPayload {
		return Msg{}, fmt.Errorf("wire: payload %d exceeds limit %d", n, MaxPayload)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return Msg{}, fmt.Errorf("wire: reading payload: %w", err)
	}
	return Msg{Kind: internKind(kind[:hdr[3]]), Payload: payload}, nil
}

// internKind maps the protocol's fixed kind tags onto shared string
// constants so decoding a frame does not allocate a fresh string per
// message. Unknown tags fall back to an ordinary conversion.
func internKind(b []byte) string {
	// The switch compares against the byte slice without converting it;
	// each case returns the compiler-interned constant.
	switch string(b) {
	case "dlr.dec1":
		return "dlr.dec1"
	case "dlr.dec2":
		return "dlr.dec2"
	case "dlr.ref1":
		return "dlr.ref1"
	case "dlr.ref2":
		return "dlr.ref2"
	case "srv.dec":
		return "srv.dec"
	case "srv.decr":
		return "srv.decr"
	case "srv.busy":
		return "srv.busy"
	case "srv.err":
		return "srv.err"
	case "srv.ref":
		return "srv.ref"
	case "srv.refr":
		return "srv.refr"
	}
	return string(b)
}

// Builder incrementally assembles a payload of fixed-size group-element
// encodings and scalars.
type Builder struct {
	buf []byte
}

// AppendBytes appends a length-prefixed byte string.
func (b *Builder) AppendBytes(p []byte) *Builder {
	var l [4]byte
	binary.BigEndian.PutUint32(l[:], uint32(len(p)))
	b.buf = append(b.buf, l[:]...)
	b.buf = append(b.buf, p...)
	return b
}

// AppendRaw appends p without a length prefix (for fixed-size encodings).
func (b *Builder) AppendRaw(p []byte) *Builder {
	b.buf = append(b.buf, p...)
	return b
}

// AppendUint32 appends a big-endian uint32.
func (b *Builder) AppendUint32(v uint32) *Builder {
	var l [4]byte
	binary.BigEndian.PutUint32(l[:], v)
	b.buf = append(b.buf, l[:]...)
	return b
}

// Bytes returns the assembled payload.
func (b *Builder) Bytes() []byte { return b.buf }

// Parser walks a payload assembled by Builder.
type Parser struct {
	buf []byte
	off int
}

// NewParser returns a parser over p.
func NewParser(p []byte) *Parser { return &Parser{buf: p} }

// Bytes reads a length-prefixed byte string.
func (p *Parser) Bytes() ([]byte, error) {
	if p.off+4 > len(p.buf) {
		return nil, fmt.Errorf("wire: truncated length prefix at offset %d", p.off)
	}
	n := binary.BigEndian.Uint32(p.buf[p.off:])
	p.off += 4
	if uint32(len(p.buf)-p.off) < n {
		return nil, fmt.Errorf("wire: truncated byte string (want %d, have %d)", n, len(p.buf)-p.off)
	}
	out := p.buf[p.off : p.off+int(n)]
	p.off += int(n)
	return out, nil
}

// Raw reads exactly n unprefixed bytes.
func (p *Parser) Raw(n int) ([]byte, error) {
	if n < 0 || len(p.buf)-p.off < n {
		return nil, fmt.Errorf("wire: truncated raw field (want %d, have %d)", n, len(p.buf)-p.off)
	}
	out := p.buf[p.off : p.off+n]
	p.off += n
	return out, nil
}

// Uint32 reads a big-endian uint32.
func (p *Parser) Uint32() (uint32, error) {
	raw, err := p.Raw(4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(raw), nil
}

// Done reports whether the payload is fully consumed.
func (p *Parser) Done() bool { return p.off == len(p.buf) }

// Remaining returns the number of unread bytes.
func (p *Parser) Remaining() int { return len(p.buf) - p.off }
