package fed

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/internal/sky"
	"repro/internal/zone"
)

// The wire protocol is a stream of little-endian binary frames over
// HTTP. All three federation streams — the POST /sweep request body,
// the /sweep response, and the /exchange response — are zero or more
// fixed-width record frames of one kind followed by exactly one
// trailer frame:
//
//	probe    'P' | i int32 | ra dec r float64                          29 B
//	hit      'H' | p int32 | objID int64 | ra dec dist i gr ri float64 61 B
//	row      'R' | objID int64 | ra dec i gr ri sgr sri float64        65 B
//	trailer  'T' | count int64 | transient uint8 | errLen uint32 | err
//
// Probe and hit indices are the coordinator's global batch positions: a
// worker only sees the probes whose zone windows intersect its stripe,
// and tags every hit with the global index so the coordinator's merge
// can hand hits to the caller's fn under the original numbering.
// Floats travel as their raw IEEE-754 bits (math.Float64bits), so
// coordinates, distances, and magnitudes cross the wire bit for bit and
// the federated result stays byte-identical to the centralised sweep.
//
// The trailer carries the record count so the receiver can detect a
// truncated stream: a worker dying mid-response leaves a prefix of
// whole frames, or a torn last frame. A missing trailer, a torn frame,
// or a count that disagrees with the records seen, like any transport
// error, classifies as transient and is retried. A non-empty error
// string is the worker's own failure, retried only when its transient
// flag is set. The decoder bounds the error length, rejects unknown
// tags, and never allocates by a length read off the wire.

const (
	tagProbe   = 'P'
	tagHit     = 'H'
	tagRow     = 'R'
	tagTrailer = 'T'

	// Frame body sizes, after the tag byte.
	probeBody   = 4 + 3*8
	hitBody     = 4 + 8 + 6*8
	rowBody     = 8 + 7*8
	trailerHead = 8 + 1 + 4

	// hitFrameLen is one hit's full size on the wire.
	hitFrameLen = 1 + hitBody

	// maxErrLen bounds a trailer's error string. Encoders truncate to
	// it; decoders reject anything longer as corrupt.
	maxErrLen = 1024
)

var le = binary.LittleEndian

// frameKind describes one stream: its record tag and body width, and
// the names its error messages use.
type frameKind struct {
	stream, unit string
	tag          byte
	size         int
}

var (
	probeFrames = frameKind{"sweep request", "probes", tagProbe, probeBody}
	hitFrames   = frameKind{"sweep", "hits", tagHit, hitBody}
	rowFrames   = frameKind{"exchange", "rows", tagRow, rowBody}
)

func appendF64(b []byte, v float64) []byte { return le.AppendUint64(b, math.Float64bits(v)) }

func getF64(b []byte) float64 { return math.Float64frombits(le.Uint64(b)) }

// appendProbe appends one probe frame carrying global batch index i.
func appendProbe(b []byte, i int32, p zone.Probe) []byte {
	b = append(b, tagProbe)
	b = le.AppendUint32(b, uint32(i))
	b = appendF64(b, p.Ra)
	b = appendF64(b, p.Dec)
	return appendF64(b, p.R)
}

// appendHit appends one hit frame for global probe index p.
func appendHit(b []byte, p int32, zr *zone.ZoneRow) []byte {
	b = append(b, tagHit)
	b = le.AppendUint32(b, uint32(p))
	b = le.AppendUint64(b, uint64(zr.ObjID))
	b = appendF64(b, zr.Ra)
	b = appendF64(b, zr.Dec)
	b = appendF64(b, zr.Distance)
	b = appendF64(b, zr.I)
	b = appendF64(b, zr.Gr)
	return appendF64(b, zr.Ri)
}

// appendRow appends one raw catalog row frame.
func appendRow(b []byte, g *sky.Galaxy) []byte {
	b = append(b, tagRow)
	b = le.AppendUint64(b, uint64(g.ObjID))
	b = appendF64(b, g.Ra)
	b = appendF64(b, g.Dec)
	b = appendF64(b, g.I)
	b = appendF64(b, g.Gr)
	b = appendF64(b, g.Ri)
	b = appendF64(b, g.SigmaGr)
	return appendF64(b, g.SigmaRi)
}

// appendTrailer closes a stream of count records. A non-nil err marks
// the stream failed, with err's transient classification.
func appendTrailer(b []byte, count int64, err error) []byte {
	var msg string
	var transient byte
	if err != nil {
		msg = err.Error()
		if msg == "" {
			msg = "unspecified error"
		}
		msg = msg[:min(len(msg), maxErrLen)]
		if faultinject.IsTransient(err) {
			transient = 1
		}
	}
	b = append(b, tagTrailer)
	b = le.AppendUint64(b, uint64(count))
	b = append(b, transient)
	b = le.AppendUint32(b, uint32(len(msg)))
	return append(b, msg...)
}

// frameReader decodes one stream of a single record kind. Record bodies
// land in a fixed scratch array, so decoding allocates nothing per
// frame.
type frameReader struct {
	br  *bufio.Reader
	k   frameKind
	n   int64 // records returned so far
	buf [rowBody]byte
}

func newFrameReader(r io.Reader, k frameKind) *frameReader {
	return &frameReader{br: bufio.NewReader(r), k: k}
}

// next returns the next record body (valid until the following call).
// At the trailer it returns nil and the stream's verdict: nil only when
// the trailer is well-formed, error-free, and counts exactly the
// records returned.
func (fr *frameReader) next() ([]byte, error) {
	tag, err := fr.br.ReadByte()
	if err != nil {
		if err == io.EOF {
			return nil, transientf("fed: %s stream truncated after %d %s (no trailer)",
				fr.k.stream, fr.n, fr.k.unit)
		}
		return nil, fr.readErr(err)
	}
	switch tag {
	case fr.k.tag:
		body := fr.buf[:fr.k.size]
		if _, err := io.ReadFull(fr.br, body); err != nil {
			return nil, fr.readErr(err)
		}
		fr.n++
		return body, nil
	case tagTrailer:
		return nil, fr.trailer()
	default:
		return nil, fr.corrupt("unknown frame tag 0x%02x", tag)
	}
}

func (fr *frameReader) trailer() error {
	head := fr.buf[:trailerHead]
	if _, err := io.ReadFull(fr.br, head); err != nil {
		return fr.readErr(err)
	}
	count := int64(le.Uint64(head))
	transient := head[8]
	errLen := le.Uint32(head[9:])
	switch {
	case transient > 1:
		return fr.corrupt("trailer transient flag %d", transient)
	case errLen > maxErrLen:
		return fr.corrupt("trailer error length %d exceeds %d", errLen, maxErrLen)
	case errLen == 0 && transient == 1:
		return fr.corrupt("transient trailer without an error")
	}
	if errLen > 0 {
		msg := make([]byte, errLen)
		if _, err := io.ReadFull(fr.br, msg); err != nil {
			return fr.readErr(err)
		}
		err := fmt.Errorf("fed: worker %s failed: %s", fr.k.stream, msg)
		if transient == 1 {
			return asTransient(err)
		}
		return err
	}
	if count != fr.n {
		return transientf("fed: %s stream count mismatch: trailer says %d %s, got %d",
			fr.k.stream, count, fr.k.unit, fr.n)
	}
	return nil
}

// readErr classifies a failed read inside a frame: a torn frame is a
// truncated stream, anything else a transport error; both transient.
func (fr *frameReader) readErr(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return transientf("fed: %s stream truncated mid-frame after %d %s",
			fr.k.stream, fr.n, fr.k.unit)
	}
	return asTransient(fmt.Errorf("fed: %s stream read after %d %s: %w",
		fr.k.stream, fr.n, fr.k.unit, err))
}

// corrupt reports a malformed frame. It classifies transient like a
// torn stream: the bytes were damaged in flight or by a dying worker,
// and a retry against a replica can still produce the full answer.
func (fr *frameReader) corrupt(format string, args ...any) error {
	return transientf("fed: %s stream corrupt after %d %s: %s",
		fr.k.stream, fr.n, fr.k.unit, fmt.Sprintf(format, args...))
}

// fedHit is one buffered worker hit, tagged with the caller's global
// probe index.
type fedHit struct {
	p   int32
	row zone.ZoneRow
}

// decodeSweepStream appends a /sweep response's hits to hits. It fails
// unless a trailer arrived whose count matches the hits seen.
func decodeSweepStream(r io.Reader, hits []fedHit) ([]fedHit, error) {
	fr := newFrameReader(r, hitFrames)
	for {
		b, err := fr.next()
		if b == nil {
			return hits, err
		}
		hits = append(hits, fedHit{p: int32(le.Uint32(b)), row: zone.ZoneRow{
			ObjID: int64(le.Uint64(b[4:])),
			Ra:    getF64(b[12:]), Dec: getF64(b[20:]), Distance: getF64(b[28:]),
			I: getF64(b[36:]), Gr: getF64(b[44:]), Ri: getF64(b[52:]),
		}})
	}
}

// decodeExchangeStream is decodeSweepStream's /exchange twin.
func decodeExchangeStream(r io.Reader, rows []sky.Galaxy) ([]sky.Galaxy, error) {
	fr := newFrameReader(r, rowFrames)
	for {
		b, err := fr.next()
		if b == nil {
			return rows, err
		}
		rows = append(rows, sky.Galaxy{
			ObjID: int64(le.Uint64(b)),
			Ra:    getF64(b[8:]), Dec: getF64(b[16:]),
			I: getF64(b[24:]), Gr: getF64(b[32:]), Ri: getF64(b[40:]),
			SigmaGr: getF64(b[48:]), SigmaRi: getF64(b[56:]),
		})
	}
}

// decodeSweepRequest reads a POST /sweep body: the probe batch, with
// each probe's global batch index alongside.
func decodeSweepRequest(r io.Reader) ([]zone.Probe, []int32, error) {
	fr := newFrameReader(r, probeFrames)
	var probes []zone.Probe
	var idx []int32
	for {
		b, err := fr.next()
		if b == nil {
			return probes, idx, err
		}
		idx = append(idx, int32(le.Uint32(b)))
		probes = append(probes, zone.Probe{Ra: getF64(b[4:]), Dec: getF64(b[12:]), R: getF64(b[20:])})
	}
}

// transientError marks a transport-level failure as retryable; the
// coordinator's retry loop classifies with faultinject.IsTransient, so
// injected faults, net errors, and truncated streams all take the same
// path.
type transientError struct{ err error }

func (e *transientError) Error() string   { return e.err.Error() }
func (e *transientError) Unwrap() error   { return e.err }
func (e *transientError) Transient() bool { return true }

func transientf(format string, args ...any) error {
	return &transientError{err: fmt.Errorf(format, args...)}
}

// asTransient wraps err as transient unless it already classifies.
func asTransient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// countingWriter feeds an atomic byte counter — the exact measured
// bytes grid.TransferStats reports, replacing the struct-size
// estimates the in-process simulation used.
type countingWriter struct {
	w io.Writer
	n *atomic.Int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n.Add(int64(n))
	return n, err
}

// countingReader is countingWriter's receive side.
type countingReader struct {
	r io.Reader
	n *atomic.Int64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n.Add(int64(n))
	return n, err
}
