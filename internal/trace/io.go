package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Binary trace format:
//
//	magic   [5]byte  "PYTR1"
//	name    uvarint length + bytes
//	suite   uvarint length + bytes
//	count   uvarint
//	records: per record
//	    pcDelta   varint  (PC - prevPC)
//	    addrDelta varint  (Addr - prevAddr)
//	    nonmem    uvarint
//	    flags     byte    (bit0 = store)
//
// Delta encoding keeps traces compact since both PCs and addresses are
// strongly local. Encoder/Decoder process the format incrementally so
// paper-scale traces stream to and from disk without ever being resident
// in memory; Write/Read wrap them for whole-trace convenience.

var magic = [5]byte{'P', 'Y', 'T', 'R', '1'}

// ErrBadFormat is returned when decoding input that is not a valid trace.
var ErrBadFormat = errors.New("trace: bad format")

// maxNameLen bounds the decoded name/suite strings.
const maxNameLen = 1 << 20

// maxRecordCount bounds the decoded record count.
const maxRecordCount = 1 << 32

// maxRecordLen is the longest a well-formed record can be: three varints
// of at most binary.MaxVarintLen64 bytes each (non-minimal encodings
// included) and the flags byte.
const maxRecordLen = 3*binary.MaxVarintLen64 + 1

// Encoder streams records into the binary trace format. The record count
// is part of the header, so it must be known up front; Close fails if the
// number of records written differs.
type Encoder struct {
	w        io.Writer
	buf      []byte // encoded bytes not yet written to w
	err      error  // sticky first write error
	left     uint64
	prevPC   uint64
	prevAddr uint64
}

// NewEncoder writes the trace header for count records to w and returns an
// encoder ready to accept exactly count records.
func NewEncoder(w io.Writer, name, suite string, count int) (*Encoder, error) {
	if count < 0 {
		return nil, fmt.Errorf("trace: negative record count %d", count)
	}
	b := append([]byte(nil), magic[:]...)
	b = binary.AppendUvarint(b, uint64(len(name)))
	b = append(b, name...)
	b = binary.AppendUvarint(b, uint64(len(suite)))
	b = append(b, suite...)
	b = binary.AppendUvarint(b, uint64(count))
	return &Encoder{w: w, buf: b, left: uint64(count)}, nil
}

// appendRecord appends one record's encoding to b: its PC and address
// deltas from the previous record, its nonmem count and its flags byte.
// It is the format's only record encoder.
func appendRecord(b []byte, pcDelta, addrDelta uint64, nonmem uint16, store bool) []byte {
	b = binary.AppendVarint(b, int64(pcDelta))
	b = binary.AppendVarint(b, int64(addrDelta))
	b = binary.AppendUvarint(b, uint64(nonmem))
	var flags byte
	if store {
		flags = 1
	}
	return append(b, flags)
}

// flush writes the pending output. A write error is sticky: every later
// flush, and so Close, reports it.
func (e *Encoder) flush() error {
	if e.err == nil {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
	return e.err
}

// EncodeChunk appends every record of c. The chunk's bytes reach the
// underlying writer in one write.
func (e *Encoder) EncodeChunk(c Chunk) error {
	if uint64(len(c)) > e.left {
		return fmt.Errorf("trace: encoder: more records than the declared count")
	}
	e.left -= uint64(len(c))
	b, pc, addr := e.buf, e.prevPC, e.prevAddr
	for _, r := range c {
		b = appendRecord(b, r.PC-pc, r.Addr-addr, r.NonMem, r.Store)
		pc, addr = r.PC, r.Addr
	}
	e.buf, e.prevPC, e.prevAddr = b, pc, addr
	return e.flush()
}

// Close flushes buffered output and verifies the declared record count was
// written. It does not close the underlying writer.
func (e *Encoder) Close() error {
	if e.left != 0 {
		return fmt.Errorf("trace: encoder: %d records short of the declared count", e.left)
	}
	return e.flush()
}

// Write encodes t to w in the binary trace format.
func Write(w io.Writer, t *Trace) error {
	e, err := NewEncoder(w, t.Name, t.Suite, len(t.Records))
	if err != nil {
		return err
	}
	if err := e.EncodeChunk(t.Records); err != nil {
		return err
	}
	return e.Close()
}

// Decoder streams records out of the binary trace format, validating the
// header on construction and each record as it is read.
type Decoder struct {
	br       *bufio.Reader
	name     string
	suite    string
	count    uint64
	read     uint64
	prevPC   uint64
	prevAddr uint64
}

// NewDecoder reads and validates the trace header from r.
func NewDecoder(r io.Reader) (*Decoder, error) {
	br := bufio.NewReader(r)
	var got [5]byte
	if _, err := io.ReadFull(br, got[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if got != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadFormat, got[:])
	}
	readString := func() (string, error) {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return "", err
		}
		if n > maxNameLen {
			return "", fmt.Errorf("%w: string length %d", ErrBadFormat, n)
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(br, b); err != nil {
			return "", err
		}
		return string(b), nil
	}
	d := &Decoder{br: br}
	var err error
	if d.name, err = readString(); err != nil {
		return nil, fmt.Errorf("%w: name: %v", ErrBadFormat, err)
	}
	if d.suite, err = readString(); err != nil {
		return nil, fmt.Errorf("%w: suite: %v", ErrBadFormat, err)
	}
	if d.count, err = binary.ReadUvarint(br); err != nil {
		return nil, fmt.Errorf("%w: count: %v", ErrBadFormat, err)
	}
	if d.count > maxRecordCount {
		return nil, fmt.Errorf("%w: record count %d", ErrBadFormat, d.count)
	}
	return d, nil
}

// Name returns the trace name from the header.
func (d *Decoder) Name() string { return d.name }

// Suite returns the suite from the header.
func (d *Decoder) Suite() string { return d.suite }

// Count returns the declared record count from the header.
func (d *Decoder) Count() int64 { return int64(d.count) }

// Remaining returns how many of the declared records are still to decode.
func (d *Decoder) Remaining() int64 { return int64(d.count - d.read) }

// DecodeChunk appends up to max records onto c, returning how many were
// decoded. A clean end of trace yields (n, nil) with n < max; corrupt
// input yields the ErrBadFormat-wrapped error.
//
// Whole runs of records are parsed straight out of the buffered window.
// A record the window does not hold in full (the input's last bytes), or
// whose bytes the window parse refuses, goes through decodeSlow instead,
// which reads byte by byte and so fails on truncated or corrupt input
// exactly as a byte reader does.
func (d *Decoder) DecodeChunk(c *Chunk, max int) (int, error) {
	want := 0
	if max > 0 {
		want = int(min(uint64(max), d.count-d.read))
	}
	n := 0
	for n < want {
		// Refill the window so it holds a whole record if the input does.
		// A short window (the end of input, or a read error) is left to
		// decodeSlow, which reports it.
		d.br.Peek(maxRecordLen)
		win, _ := d.br.Peek(d.br.Buffered())
		pc, addr := d.prevPC, d.prevAddr
		p, m := 0, 0
		for n+m < want && len(win)-p >= maxRecordLen {
			pcD, k := binary.Varint(win[p:])
			if k <= 0 {
				break
			}
			q := p + k
			addrD, k := binary.Varint(win[q:])
			if k <= 0 {
				break
			}
			q += k
			nonmem, k := binary.Uvarint(win[q:])
			if k <= 0 || nonmem > math.MaxUint16 {
				break
			}
			q += k
			pc += uint64(pcD)
			addr += uint64(addrD)
			*c = append(*c, Record{PC: pc, Addr: addr, NonMem: uint16(nonmem), Store: win[q]&1 != 0})
			p = q + 1
			m++
		}
		d.br.Discard(p) // cannot fail: the p bytes are buffered
		d.prevPC, d.prevAddr = pc, addr
		d.read += uint64(m)
		n += m
		if m == 0 {
			if err := d.decodeSlow(c); err != nil {
				return n, err
			}
			n++
		}
	}
	return n, nil
}

// decodeSlow decodes one record through the byte reader.
func (d *Decoder) decodeSlow(c *Chunk) error {
	i := d.read
	pcD, err := binary.ReadVarint(d.br)
	if err != nil {
		return fmt.Errorf("%w: record %d: %v", ErrBadFormat, i, err)
	}
	addrD, err := binary.ReadVarint(d.br)
	if err != nil {
		return fmt.Errorf("%w: record %d: %v", ErrBadFormat, i, err)
	}
	nonmem, err := binary.ReadUvarint(d.br)
	if err != nil {
		return fmt.Errorf("%w: record %d: %v", ErrBadFormat, i, err)
	}
	if nonmem > math.MaxUint16 {
		return fmt.Errorf("%w: record %d: nonmem %d overflows uint16", ErrBadFormat, i, nonmem)
	}
	flags, err := d.br.ReadByte()
	if err != nil {
		return fmt.Errorf("%w: record %d: %v", ErrBadFormat, i, err)
	}
	d.read++
	d.prevPC += uint64(pcD)
	d.prevAddr += uint64(addrD)
	*c = append(*c, Record{PC: d.prevPC, Addr: d.prevAddr, NonMem: uint16(nonmem), Store: flags&1 != 0})
	return nil
}

// Read decodes a trace from r.
func Read(r io.Reader) (*Trace, error) {
	d, err := NewDecoder(r)
	if err != nil {
		return nil, err
	}
	// Cap the pre-allocation: the header's count is untrusted input, so a
	// corrupt file must not force a huge up-front allocation.
	recs := make(Chunk, 0, min(d.count, 1<<20))
	if _, err := d.DecodeChunk(&recs, int(d.count)); err != nil {
		return nil, err
	}
	return &Trace{Name: d.Name(), Suite: d.Suite(), Records: recs}, nil
}
