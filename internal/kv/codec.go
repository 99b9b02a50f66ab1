package kv

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// The binary codec frames each record as:
//
//	uvarint(len(key)) key-bytes uvarint(len(value)) value-bytes
//
// and, for delta streams, a trailing op byte. It is used by shuffle
// spill files, DFS blocks, state files, and checkpoints. The format is
// self-delimiting and append-friendly; readers stop cleanly at io.EOF.

// maxFieldLen bounds a single key or value (64 MiB). The limit exists to
// turn a corrupted length prefix into an error instead of an attempted
// multi-gigabyte allocation.
const maxFieldLen = 64 << 20

// ErrCorrupt reports a malformed binary record (bad length prefix,
// truncated field, or invalid op byte).
var ErrCorrupt = errors.New("kv: corrupt record stream")

// Writer encodes pairs and deltas to an underlying io.Writer using the
// binary codec. Writers buffer internally; call Flush before the
// underlying file is read or closed.
type Writer struct {
	w       *bufio.Writer
	scratch [binary.MaxVarintLen64]byte
	// Bytes counts the encoded bytes written (post-buffering length,
	// maintained by this type rather than the OS, so it is exact even
	// before Flush).
	Bytes int64
	// Records counts the records written.
	Records int64
}

// NewWriter returns a Writer encoding to w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 64<<10)}
}

// NewWriterSize returns a Writer encoding to w through a buffer of at
// least size bytes. Spill paths use large buffers (256 KiB) so run
// writes hit the OS in few, big syscalls.
func NewWriterSize(w io.Writer, size int) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, size)}
}

func (w *Writer) writeField(s string) error {
	n := binary.PutUvarint(w.scratch[:], uint64(len(s)))
	if _, err := w.w.Write(w.scratch[:n]); err != nil {
		return err
	}
	if _, err := w.w.WriteString(s); err != nil {
		return err
	}
	w.Bytes += int64(n + len(s))
	return nil
}

// WritePair appends one pair record.
func (w *Writer) WritePair(p Pair) error {
	if err := w.writeField(p.Key); err != nil {
		return err
	}
	if err := w.writeField(p.Value); err != nil {
		return err
	}
	w.Records++
	return nil
}

// WriteDelta appends one delta record (pair framing plus one op byte).
func (w *Writer) WriteDelta(d Delta) error {
	if !d.Op.Valid() {
		return fmt.Errorf("kv: WriteDelta: invalid op %q", byte(d.Op))
	}
	if err := w.writeField(d.Key); err != nil {
		return err
	}
	if err := w.writeField(d.Value); err != nil {
		return err
	}
	if err := w.w.WriteByte(byte(d.Op)); err != nil {
		return err
	}
	w.Bytes++
	w.Records++
	return nil
}

// Flush writes any buffered data to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reader decodes pairs and deltas produced by Writer. A stream must be
// read with the same record type it was written with; mixing WritePair
// and WriteDelta in one stream is not supported.
type Reader struct {
	r *bufio.Reader
	// Bytes counts the encoded bytes consumed.
	Bytes int64
	// Records counts the records read.
	Records int64
}

// NewReader returns a Reader decoding from r. Each call allocates a
// 64 KiB read buffer, so a Reader is for streams (files, network
// bodies); to decode a frame already in memory, loop over
// DecodePairInPlace instead.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 64<<10)}
}

func (r *Reader) readField(first bool) (string, error) {
	n, err := binary.ReadUvarint(r.r)
	if err != nil {
		if err == io.EOF && first {
			return "", io.EOF // clean end of stream
		}
		if err == io.EOF {
			return "", fmt.Errorf("%w: truncated length prefix", ErrCorrupt)
		}
		return "", err
	}
	r.Bytes += int64(uvarintLen(n))
	if n > maxFieldLen {
		return "", fmt.Errorf("%w: field length %d exceeds limit", ErrCorrupt, n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r.r, buf); err != nil {
		return "", fmt.Errorf("%w: truncated field: %v", ErrCorrupt, err)
	}
	r.Bytes += int64(n)
	return string(buf), nil
}

// ReadPair reads the next pair. It returns io.EOF at a clean end of
// stream and ErrCorrupt (wrapped) on malformed input.
func (r *Reader) ReadPair() (Pair, error) {
	k, err := r.readField(true)
	if err != nil {
		return Pair{}, err
	}
	v, err := r.readField(false)
	if err != nil {
		return Pair{}, err
	}
	r.Records++
	return Pair{Key: k, Value: v}, nil
}

// ReadDelta reads the next delta record.
func (r *Reader) ReadDelta() (Delta, error) {
	k, err := r.readField(true)
	if err != nil {
		return Delta{}, err
	}
	v, err := r.readField(false)
	if err != nil {
		return Delta{}, err
	}
	op, err := r.r.ReadByte()
	if err != nil {
		return Delta{}, fmt.Errorf("%w: truncated op byte", ErrCorrupt)
	}
	r.Bytes++
	if !Op(op).Valid() {
		return Delta{}, fmt.Errorf("%w: invalid op byte %q", ErrCorrupt, op)
	}
	r.Records++
	return Delta{Key: k, Value: v, Op: Op(op)}, nil
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// AppendPair appends p's binary encoding to buf and returns the
// extended slice. It is the allocation-free counterpart of
// Writer.WritePair for callers assembling records in a block arena.
func AppendPair(buf []byte, p Pair) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(p.Key)))
	buf = append(buf, p.Key...)
	buf = binary.AppendUvarint(buf, uint64(len(p.Value)))
	buf = append(buf, p.Value...)
	return buf
}

// DecodePairInPlace decodes one pair record from the front of buf
// without copying: key and value alias buf. n is the number of bytes
// consumed. Callers that outlive buf (e.g. a pooled block buffer about
// to be recycled) must copy before retaining. Returns io.EOF when buf
// is empty.
func DecodePairInPlace(buf []byte) (key, value []byte, n int, err error) {
	if len(buf) == 0 {
		return nil, nil, 0, io.EOF
	}
	key, n1, err := decodeFieldInPlace(buf)
	if err != nil {
		return nil, nil, 0, err
	}
	value, n2, err := decodeFieldInPlace(buf[n1:])
	if err != nil {
		return nil, nil, 0, err
	}
	return key, value, n1 + n2, nil
}

func decodeFieldInPlace(buf []byte) ([]byte, int, error) {
	l, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, 0, fmt.Errorf("%w: truncated length prefix", ErrCorrupt)
	}
	if l > maxFieldLen {
		return nil, 0, fmt.Errorf("%w: field length %d exceeds limit", ErrCorrupt, l)
	}
	end := n + int(l)
	if end > len(buf) {
		return nil, 0, fmt.Errorf("%w: truncated field", ErrCorrupt)
	}
	return buf[n:end], end, nil
}

// EncodePairs writes all pairs to w with a single Writer and flushes.
func EncodePairs(w io.Writer, ps []Pair) (int64, error) {
	enc := NewWriter(w)
	for _, p := range ps {
		if err := enc.WritePair(p); err != nil {
			return enc.Bytes, err
		}
	}
	return enc.Bytes, enc.Flush()
}

// DecodePairs reads all pairs from r until EOF. It decodes through a
// NewReader, so each call allocates a 64 KiB read buffer: use it for
// streams, and DecodePairInPlace for bytes already in memory.
func DecodePairs(r io.Reader) ([]Pair, error) {
	dec := NewReader(r)
	var out []Pair
	for {
		p, err := dec.ReadPair()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, p)
	}
}

// EncodeDeltas writes all deltas to w with a single Writer and flushes.
func EncodeDeltas(w io.Writer, ds []Delta) (int64, error) {
	enc := NewWriter(w)
	for _, d := range ds {
		if err := enc.WriteDelta(d); err != nil {
			return enc.Bytes, err
		}
	}
	return enc.Bytes, enc.Flush()
}

// DecodeDeltas reads all deltas from r until EOF.
func DecodeDeltas(r io.Reader) ([]Delta, error) {
	dec := NewReader(r)
	var out []Delta
	for {
		d, err := dec.ReadDelta()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, d)
	}
}
