package tcpnet

import (
	"encoding/binary"
	"testing"

	"repro/internal/wire"
)

// roundTripFrame pushes m through writeFrame/readFrame over an in-memory
// pipe and returns the decoded copy.
func roundTripFrame(t *testing.T, m *wire.Message) *wire.Message {
	t.Helper()
	c1, c2 := newPipe()
	defer c1.Close()
	defer c2.Close()
	errc := make(chan error, 1)
	go func() { errc <- writeFrame(c1, m) }()
	got, err := readFrame(c2)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("writeFrame: %v", err)
	}
	return got
}

func TestFrameZeroLengthPayload(t *testing.T) {
	m := &wire.Message{Op: wire.OpPing, Src: 1, Dst: 0, Seq: 42}
	got := roundTripFrame(t, m)
	defer wire.PutMessage(got)
	if got.Op != wire.OpPing || got.Seq != 42 || len(got.Data) != 0 {
		t.Fatalf("zero-payload frame corrupted: %v", got)
	}
}

func TestFrameAtMaxDataLen(t *testing.T) {
	if testing.Short() {
		t.Skip("16 MiB frame")
	}
	data := make([]byte, wire.MaxDataLen)
	data[0], data[len(data)-1] = 0xAB, 0xCD
	m := &wire.Message{Op: wire.OpUserMsg, Data: data}
	got := roundTripFrame(t, m)
	defer wire.PutMessage(got)
	if len(got.Data) != wire.MaxDataLen || got.Data[0] != 0xAB || got.Data[len(got.Data)-1] != 0xCD {
		t.Fatalf("limit-sized frame corrupted: len=%d", len(got.Data))
	}
}

// A frame prefix claiming one byte more than the limit must be rejected
// before any payload allocation.
func TestFrameOverMaxDataLenRejected(t *testing.T) {
	c1, c2 := newPipe()
	defer c1.Close()
	defer c2.Close()
	var pre [4]byte
	binary.LittleEndian.PutUint32(pre[:], uint32(wire.HeaderSize+wire.MaxDataLen+1))
	go c1.Write(pre[:])
	if _, err := readFrame(c2); err == nil {
		t.Fatal("over-limit frame size accepted")
	}
}

// A frame shorter than a header is garbage regardless of payload limits.
func TestFrameUnderHeaderSizeRejected(t *testing.T) {
	c1, c2 := newPipe()
	defer c1.Close()
	defer c2.Close()
	var pre [4]byte
	binary.LittleEndian.PutUint32(pre[:], wire.HeaderSize-1)
	go c1.Write(pre[:])
	if _, err := readFrame(c2); err == nil {
		t.Fatal("under-header frame size accepted")
	}
}

// loopConn is a read-only net.Conn replaying one encoded frame forever, so a
// steady-state readFrame loop sees no I/O cost and no allocation of its own.
type loopConn struct {
	byteConn
	frame []byte
	off   int
}

func (c *loopConn) Read(p []byte) (int, error) {
	n := copy(p, c.frame[c.off:])
	c.off = (c.off + n) % len(c.frame)
	return n, nil
}

// TestReadFrameAllocationFree pins the receive path at 0 allocs/frame in
// steady state: the size prefix used to live in a local array that escaped
// to the heap through io.ReadFull, one allocation per received frame.
func TestReadFrameAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector defeats sync.Pool reuse")
	}
	m := &wire.Message{Op: wire.OpWriteV, Src: 1, Seq: 42}
	m.AppendWriteRun(16, []int64{7, 8})
	conn := &loopConn{frame: frame(m.Encode())}
	allocs := testing.AllocsPerRun(1000, func() {
		got, err := readFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		wire.PutMessage(got)
	})
	if allocs != 0 {
		t.Errorf("readFrame allocates %v/frame, want 0", allocs)
	}
}
