// Package wire is the binary streaming transport of the attestation API: a
// compact length-prefixed, versioned frame format for telemetry events,
// spoken on GET /v1/stream by divotd (and fanned out by divotherd). It is
// versioned alongside internal/attest's v1 JSON envelope — Version here moves
// in lockstep with attest.Version. It is binary and multiplexed because
// JSON-over-HTTP with one connection per link is the wrong shape for
// thousands of watchers over a large federation: one multiplexed connection
// carries many links, resumes each independently, and spends a handful of
// bytes per event instead of a JSON object.
//
// # Frame layout
//
//	[ length uint32 BE ][ version byte ][ type byte ][ payload ... ]
//
// length covers everything after itself (version + type + payload), so a
// reader can skip frames of unknown type wholesale. length must be at least 2
// and at most MaxFrameLen — an oversized prefix is rejected before any
// allocation, so a corrupt or adversarial stream cannot balloon memory.
//
// Frame types: Hello, Event, Heartbeat, Gap, Shutdown, Error (see FrameType).
// Control payloads (Hello, Gap, Error) are small JSON documents — they are
// rare, and JSON keeps them self-describing; Event payloads are binary (see
// event.go) because they are the volume.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Version is the binary stream protocol version, carried in every frame. It
// tracks internal/attest's envelope version: the two describe one wire
// protocol in two encodings.
const Version = 1

// MaxFrameLen bounds one frame's length field (version + type + payload).
// Event payloads are tens to hundreds of bytes; 1 MiB leaves room for
// pathological Detail strings while keeping a torn or hostile length prefix
// from provoking a huge allocation.
const MaxFrameLen = 1 << 20

// ContentType is the HTTP content type of a binary event stream. The client
// SDK requires it on a 200 from GET /v1/stream — a proxy answering 200 with
// anything else is a protocol error, not a stream.
const ContentType = "application/x-divot-stream"

// FrameType tags what a frame carries.
type FrameType uint8

const (
	// FrameHello is the server's first frame on every stream connection: a
	// JSON Hello payload naming the resolved link set.
	FrameHello FrameType = 1
	// FrameEvent carries one telemetry event in the binary encoding.
	FrameEvent FrameType = 2
	// FrameHeartbeat is an empty keep-alive sent on a fixed interval.
	FrameHeartbeat FrameType = 3
	// FrameGap reports a broken per-link resume (JSON Gap payload): the
	// subscriber asked to continue past a sequence number the server's
	// retention ring has already evicted. The SDK surfaces it as
	// client.ResumeGapError and ends the watch instead of skipping the hole.
	FrameGap FrameType = 4
	// FrameShutdown announces the server is going away; the stream ends
	// cleanly and the client resumes elsewhere (or later) from its cursors.
	FrameShutdown FrameType = 5
	// FrameError carries a terminal structured error (JSON ErrorInfo payload,
	// same codes as the v1 envelope) for failures that strike after the
	// stream is already open — a federation shard dying mid-stream, say.
	FrameError FrameType = 6
)

// String names the frame type for diagnostics.
func (t FrameType) String() string {
	switch t {
	case FrameHello:
		return "hello"
	case FrameEvent:
		return "event"
	case FrameHeartbeat:
		return "heartbeat"
	case FrameGap:
		return "gap"
	case FrameShutdown:
		return "shutdown"
	case FrameError:
		return "error"
	}
	return fmt.Sprintf("FrameType(%d)", uint8(t))
}

// Decode errors. ErrShortFrame means the input holds a truncated frame — a
// streaming reader should read more bytes; everything else is terminal for
// the connection.
var (
	ErrShortFrame   = errors.New("wire: truncated frame")
	ErrFrameTooLong = errors.New("wire: frame length exceeds MaxFrameLen")
	ErrBadVersion   = errors.New("wire: unsupported protocol version")
	ErrBadFrameType = errors.New("wire: unknown frame type")
)

// headerLen is the length prefix's size.
const headerLen = 4

// AppendFrame appends one encoded frame to dst and returns the extended
// slice. It panics if payload exceeds MaxFrameLen-2 — frames are built by the
// server from bounded inputs, so that is a programming error, not a runtime
// condition.
func AppendFrame(dst []byte, t FrameType, payload []byte) []byte {
	n := 2 + len(payload)
	if n > MaxFrameLen {
		panic("wire: frame payload exceeds MaxFrameLen")
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(n))
	dst = append(dst, Version, byte(t))
	return append(dst, payload...)
}

// DecodeFrame parses the first frame in b, returning its type, its payload
// (aliasing b — copy before retaining), and how many bytes the frame
// consumed. ErrShortFrame means b ends mid-frame: read more and retry.
func DecodeFrame(b []byte) (t FrameType, payload []byte, n int, err error) {
	if len(b) < headerLen {
		return 0, nil, 0, ErrShortFrame
	}
	ln := binary.BigEndian.Uint32(b)
	if ln > MaxFrameLen {
		return 0, nil, 0, ErrFrameTooLong
	}
	if ln < 2 {
		return 0, nil, 0, fmt.Errorf("wire: frame length %d below header", ln)
	}
	total := headerLen + int(ln)
	if len(b) < total {
		return 0, nil, 0, ErrShortFrame
	}
	if b[headerLen] != Version {
		return 0, nil, 0, fmt.Errorf("%w: %d", ErrBadVersion, b[headerLen])
	}
	t = FrameType(b[headerLen+1])
	if t < FrameHello || t > FrameError {
		return 0, nil, 0, fmt.Errorf("%w: %d", ErrBadFrameType, uint8(t))
	}
	return t, b[headerLen+2 : total], total, nil
}

// Reader decodes frames off a byte stream. Payloads alias an internal buffer
// that the next call to Next overwrites.
type Reader struct {
	r   io.Reader
	hdr [headerLen + 2]byte
	buf []byte
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// Next reads one frame, blocking until a full frame (or stream end) arrives.
// io.EOF is returned only at a clean frame boundary; a stream severed
// mid-frame reports io.ErrUnexpectedEOF.
func (rd *Reader) Next() (FrameType, []byte, error) {
	if _, err := io.ReadFull(rd.r, rd.hdr[:headerLen]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, nil, io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	ln := binary.BigEndian.Uint32(rd.hdr[:headerLen])
	if ln > MaxFrameLen {
		return 0, nil, ErrFrameTooLong
	}
	if ln < 2 {
		return 0, nil, fmt.Errorf("wire: frame length %d below header", ln)
	}
	if _, err := io.ReadFull(rd.r, rd.hdr[headerLen:]); err != nil {
		return 0, nil, io.ErrUnexpectedEOF
	}
	if rd.hdr[headerLen] != Version {
		return 0, nil, fmt.Errorf("%w: %d", ErrBadVersion, rd.hdr[headerLen])
	}
	t := FrameType(rd.hdr[headerLen+1])
	if t < FrameHello || t > FrameError {
		return 0, nil, fmt.Errorf("%w: %d", ErrBadFrameType, uint8(t))
	}
	need := int(ln) - 2
	if cap(rd.buf) < need {
		rd.buf = make([]byte, need)
	}
	rd.buf = rd.buf[:need]
	if _, err := io.ReadFull(rd.r, rd.buf); err != nil {
		return 0, nil, io.ErrUnexpectedEOF
	}
	return t, rd.buf, nil
}
