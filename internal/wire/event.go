package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"divot/internal/attest"
	"divot/internal/telemetry"
)

// Event payload encoding. Every event carries a kind, a link id, and a
// sequence number; everything else is optional behind a flags byte:
//
//	flags   byte            which optional fields follow
//	kind    byte            telemetry.EventKind code, or kindEscape + string
//	link    uvarint + bytes
//	seq     uvarint
//	round   uvarint         flagRound
//	side    uvarint + bytes flagSide
//	score   float64 BE      flagScore
//	from    uvarint + bytes flagFrom
//	to      uvarint + bytes flagTo
//	detail  uvarint + bytes flagDetail
//
// A round/alert event encodes in ~20-60 bytes against ~120-200 as JSON,
// and decoding is a straight scan with no reflection.
const (
	flagRound  = 1 << 0
	flagSide   = 1 << 1
	flagScore  = 1 << 2
	flagFrom   = 1 << 3
	flagTo     = 1 << 4
	flagDetail = 1 << 5
	// flagsKnown masks the bits this version assigns; a set bit outside it is
	// an encoding from the future and rejected (the frame version did not
	// move, so it can only be corruption).
	flagsKnown = flagRound | flagSide | flagScore | flagFrom | flagTo | flagDetail
)

// kindEscape in the kind byte means a string kind name follows — events whose
// kind postdates this codec still travel, just less compactly.
const kindEscape = 0xFF

// kindNames maps kind codes to the wire names (the same names the JSON feed
// uses); kindCodes is its inverse.
var (
	kindNames [telemetry.EventKindCount]string
	kindCodes = make(map[string]byte, telemetry.EventKindCount)
)

func init() {
	for k := telemetry.EventKind(0); k < telemetry.EventKindCount; k++ {
		kindNames[k] = k.String()
		kindCodes[k.String()] = byte(k)
	}
}

// AppendEventFrame appends one complete Event frame (header included) to dst.
func AppendEventFrame(dst []byte, ev attest.Event) []byte {
	// Reserve the length prefix, encode, then backfill it.
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, Version, byte(FrameEvent))
	dst = appendEvent(dst, ev)
	n := len(dst) - start - headerLen
	if n > MaxFrameLen {
		panic("wire: event frame exceeds MaxFrameLen")
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(n))
	return dst
}

// appendEvent appends the binary event payload.
func appendEvent(dst []byte, ev attest.Event) []byte {
	var flags byte
	if ev.Round != 0 {
		flags |= flagRound
	}
	if ev.Side != "" {
		flags |= flagSide
	}
	if ev.Score != 0 {
		flags |= flagScore
	}
	if ev.From != "" {
		flags |= flagFrom
	}
	if ev.To != "" {
		flags |= flagTo
	}
	if ev.Detail != "" {
		flags |= flagDetail
	}
	dst = append(dst, flags)
	if code, ok := kindCodes[ev.Kind]; ok {
		dst = append(dst, code)
	} else {
		dst = append(dst, kindEscape)
		dst = appendString(dst, ev.Kind)
	}
	dst = appendString(dst, ev.Link)
	dst = binary.AppendUvarint(dst, ev.Seq)
	if flags&flagRound != 0 {
		dst = binary.AppendUvarint(dst, ev.Round)
	}
	if flags&flagSide != 0 {
		dst = appendString(dst, ev.Side)
	}
	if flags&flagScore != 0 {
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(ev.Score))
	}
	if flags&flagFrom != 0 {
		dst = appendString(dst, ev.From)
	}
	if flags&flagTo != 0 {
		dst = appendString(dst, ev.To)
	}
	if flags&flagDetail != 0 {
		dst = appendString(dst, ev.Detail)
	}
	return dst
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// DecodeEvent parses a FrameEvent payload. It never panics on hostile input:
// every length is bounds-checked against what remains, unknown flag bits and
// trailing garbage are rejected.
func DecodeEvent(p []byte) (attest.Event, error) {
	var ev attest.Event
	if len(p) < 2 {
		return ev, fmt.Errorf("wire: event payload too short (%d bytes)", len(p))
	}
	flags := p[0]
	if flags&^byte(flagsKnown) != 0 {
		return ev, fmt.Errorf("wire: event flags %#x carry unknown bits", flags)
	}
	p = p[1:]
	switch code := p[0]; {
	case code == kindEscape:
		var err error
		if ev.Kind, p, err = readString(p[1:]); err != nil {
			return ev, fmt.Errorf("wire: event kind: %w", err)
		}
	case int(code) < len(kindNames):
		ev.Kind = kindNames[code]
		p = p[1:]
	default:
		return ev, fmt.Errorf("wire: unknown event kind code %d", p[0])
	}
	var err error
	if ev.Link, p, err = readString(p); err != nil {
		return ev, fmt.Errorf("wire: event link: %w", err)
	}
	if ev.Seq, p, err = readUvarint(p); err != nil {
		return ev, fmt.Errorf("wire: event seq: %w", err)
	}
	if flags&flagRound != 0 {
		if ev.Round, p, err = readUvarint(p); err != nil {
			return ev, fmt.Errorf("wire: event round: %w", err)
		}
	}
	if flags&flagSide != 0 {
		if ev.Side, p, err = readString(p); err != nil {
			return ev, fmt.Errorf("wire: event side: %w", err)
		}
	}
	if flags&flagScore != 0 {
		if len(p) < 8 {
			return ev, fmt.Errorf("wire: event score truncated")
		}
		ev.Score = math.Float64frombits(binary.BigEndian.Uint64(p))
		p = p[8:]
	}
	if flags&flagFrom != 0 {
		if ev.From, p, err = readString(p); err != nil {
			return ev, fmt.Errorf("wire: event from: %w", err)
		}
	}
	if flags&flagTo != 0 {
		if ev.To, p, err = readString(p); err != nil {
			return ev, fmt.Errorf("wire: event to: %w", err)
		}
	}
	if flags&flagDetail != 0 {
		if ev.Detail, p, err = readString(p); err != nil {
			return ev, fmt.Errorf("wire: event detail: %w", err)
		}
	}
	if len(p) != 0 {
		return ev, fmt.Errorf("wire: %d trailing bytes after event", len(p))
	}
	return ev, nil
}

func readUvarint(p []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, fmt.Errorf("bad uvarint")
	}
	return v, p[n:], nil
}

func readString(p []byte) (string, []byte, error) {
	n, rest, err := readUvarint(p)
	if err != nil {
		return "", nil, err
	}
	if n > uint64(len(rest)) {
		return "", nil, fmt.Errorf("string length %d exceeds remaining %d bytes", n, len(rest))
	}
	return string(rest[:n]), rest[n:], nil
}
